// The GDI database object (paper Figure 2: "General management" +
// Figure 3 "Databases management").
//
// A Database bundles the storage substrates of one graph database instance:
// the BGDL block store, the internal DHT (application ID -> DPtr), the
// replicated metadata registries, and the explicit indexes. GDI supports
// multiple parallel databases (paper Section 3.9): any number of Database
// objects may coexist in one Runtime.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "block/block_store.hpp"
#include "cache/shared_cache.hpp"
#include "common/hash.hpp"
#include "dht/dht.hpp"
#include "gdi/commit_pipeline.hpp"
#include "gdi/index.hpp"
#include "gdi/metadata.hpp"
#include "rma/runtime.hpp"
#include "wal/wal.hpp"

namespace gdi {

namespace server {
class TenantScheduler;
}

namespace net {
class Listener;
}

/// Vertex distribution scheme (paper Section 5.4: GDI is orthogonal to the
/// partitioning; GDA defaults to round-robin since "other distribution
/// schemes only negligibly impact our performance").
enum class Partitioning : std::uint8_t {
  kRoundRobin = 0,  ///< owner = app_id mod P
  kHashed,          ///< owner = splitmix64(app_id) mod P
};

struct DatabaseConfig {
  block::BlockStoreConfig block;
  dht::DhtConfig dht;
  std::size_t index_capacity_per_rank = 1u << 16;
  int lock_attempts = 8;  ///< bounded lock retries before a txn conflict abort
  Partitioning partitioning = Partitioning::kRoundRobin;
  /// Issue read-side holder/DHT fetches through the nonblocking batch engine
  /// (overlapped max(alpha)+sum(beta*bytes) cost). Off = the seed's serial
  /// one-latency-per-GET behaviour; results are identical either way. Only
  /// bench_pr4_edge_batch's serial row turns it off (ROADMAP, "One
  /// configuration").
  bool batched_reads = true;
  /// Shared (inter-transaction) version-validated holder cache, one per rank
  /// (see src/cache/shared_cache.hpp). Hits skip a holder's block fetches
  /// entirely; correctness comes from lock-word version validation, so reads
  /// keep their mode's semantics. Off by default: with it off, every op-count
  /// contract of the uncached design holds exactly; benches and production
  /// configs switch it on.
  bool shared_cache = false;
  /// Shared-cache capacity in holder *bytes* per rank (entries charged their
  /// assembled-holder size, FIFO-evicted beyond -- a 4-block holder displaces
  /// 4x what a singleton does).
  std::size_t shared_cache_bytes = 4096 * 512;
  /// Shared-cache admission policy (cache::ScachePolicy). kFifo is the
  /// historical single-queue behaviour, bit-exact with prior releases; k2Q
  /// adds scan-resistant two-queue admission for mixed HTAP traffic.
  cache::ScachePolicy scache_policy = cache::ScachePolicy::kFifo;
  /// Write-through: a committing writer re-stamps its shared-cache entries
  /// with the committed bytes under the version its fetch-flavored unlock
  /// published (BlockStore::write_unlock_fetch), instead of leaving them
  /// invalidated -- the rank's own write set stays warm across transactions.
  /// Requires shared_cache; off by default for the same op-count reasons.
  bool scache_write_through = false;
  /// Cross-transaction group commit (src/gdi/commit_pipeline.hpp): eligible
  /// commits defer their writeback flush + unlock round into a rank-local
  /// shared epoch, paying one overlapped flush per epoch instead of one per
  /// commit. Off by default: with it off, commit keeps the PR 2 contract of
  /// exactly one flush per writeback.
  bool commit_pipeline = false;
  std::size_t commit_epoch_txns = 32;        ///< commits per flush epoch
  std::size_t commit_epoch_bytes = 1 << 16;  ///< writeback bytes per epoch
  double commit_max_delay_ns = 50000.0;      ///< epoch age bound (simulated ns)
  /// Epoch write-ahead log (src/wal/): every commit's redo record is appended
  /// to a per-rank segmented log before its unlock FAAs; the log epoch is
  /// sealed (one group fsync) when the commit pipeline's flush epoch closes,
  /// or immediately for pipeline-ineligible commits. Off by default: with it
  /// off, no WAL object exists and every byte of RMA traffic is identical to
  /// the non-durable build (the WAL itself adds no window operations either
  /// way -- only file IO plus modeled fsync/append time -- so the parity is
  /// exact by construction; tests pin it). See README "Durability protocol".
  bool wal = false;
  std::string wal_dir;                    ///< log directory; required when wal is on
  std::size_t wal_segment_bytes = 4u << 20;  ///< log segment rotation bound
  /// Auto-checkpoint cadence: write a checkpoint (and truncate logs behind
  /// it) every N sealed epochs. 0 = manual checkpoints only. The cadence
  /// trigger snapshots every rank's regions from the sealing rank's thread,
  /// so it is only safe for single-driver streams; concurrent multi-rank
  /// writers should call the collective checkpoint() instead.
  std::uint64_t wal_checkpoint_epochs = 0;
  /// Incremental DHT compaction from checkpoint(): each collective checkpoint
  /// first runs `dht.compact(self, budget)` with this budget, so a database
  /// that checkpoints regularly also converges its id-index partition (clean
  /// count -> shard count) a slice at a time. 0 = off (the default): a
  /// checkpoint then snapshots exactly the physical state the workload
  /// produced, which byte-for-byte recovery tests rely on. When on, the
  /// migrations happen *before* the quiescent snapshot barrier, so the
  /// checkpoint image is identical on every rank either way.
  std::uint64_t wal_checkpoint_compact_budget = 0;
  double wal_fsync_ns = 20000.0;       ///< modeled cost of one group fsync
  double wal_append_ns_per_byte = 0.25;  ///< modeled append/CRC streaming cost
  /// Multi-tenant front end (src/server/): one TenantScheduler per rank that
  /// accepts transactions from concurrent client *sessions* (in-process
  /// threads today; the session API is transport-agnostic so a socket
  /// listener can feed the same queues later), coalesces compatible reads
  /// into shared batch executes and funnels commits into the commit
  /// pipeline's flush epochs. Off by default: with it off, no scheduler
  /// object exists and every byte of traffic is identical to prior releases.
  bool server = false;
  /// Admission control: max requests a single session may have in flight
  /// (queued + executing). Submissions beyond it are shed with kOverloaded.
  std::size_t server_inflight_per_tenant = 64;
  /// Admission control: global budget, in *request bytes*, across all of a
  /// rank's sessions. A zero-cost denial-of-service guard: one chatty tenant
  /// cannot queue unbounded work even below its own in-flight cap.
  std::size_t server_admission_bytes = 256 * 1024;
  /// Up to this many consecutive read requests (in dispatch order) share one
  /// kRead transaction and one BatchScope::execute. 1 = no coalescing (each
  /// request runs as its own transaction -- the per-client eager baseline).
  std::size_t server_read_coalesce = 32;
  /// Deficit round-robin quantum in bytes: how much request volume each
  /// backlogged session may dispatch per scheduler round. Smaller = finer
  /// interleaving; the fairness bound is one max-size request per round.
  std::size_t server_drr_quantum_bytes = 256;
  /// Bounded retries for a scheduled write that aborts with kTxnConflict
  /// before the scheduler reports the failure to the client.
  std::size_t server_write_retries = 3;
  /// Socket front end (src/net/): one poll-based Listener per rank speaking
  /// the CRC-framed wire protocol into this rank's TenantScheduler. Requires
  /// cfg.server. Off by default: with it off, no listener object exists, no
  /// socket is opened, and every byte of traffic is identical to a
  /// server-only build.
  bool net_listen = false;
  std::uint16_t net_port = 0;       ///< 0 = ephemeral (Listener::port() tells)
  std::uint64_t net_auth_token = 0; ///< Hello must present exactly this token
  std::size_t net_max_connections = 64;
  std::size_t net_max_tenants = 256;
  /// Per-connection request window (credit-based flow control): max
  /// unanswered requests on one connection. A slow reader stalls only itself.
  std::uint32_t net_credits = 32;
  std::uint32_t net_max_frame_bytes = 512;  ///< frame payload bound
  double net_handshake_timeout_ms = 2000.0; ///< accept -> valid Hello deadline
  double net_idle_timeout_ms = 0.0;         ///< 0 = never drop an idle conn
  double net_drain_timeout_ms = 2000.0;     ///< graceful-shutdown bound
  double net_retry_after_ns = 200000.0;     ///< hint on kOverloaded sheds
};

class Transaction;
enum class TxnMode : std::uint8_t;

class Database {
 public:
  /// Collective: every rank calls; all receive the same database. The
  /// returned pointer carries a per-rank teardown lease: when a rank releases
  /// its last copy (on its own thread), that rank's open commit-pipeline
  /// epoch is drained and its WAL tail sealed -- destroying a database never
  /// loses deferred work, whether or not the workload drained it.
  [[nodiscard]] static std::shared_ptr<Database> create(rma::Rank& self,
                                                        const DatabaseConfig& cfg);

  /// Collective: rebuild a WAL-enabled database from cfg.wal_dir -- fresh
  /// construction, checkpoint restore (if one exists), then per-rank log
  /// replay up to the first torn frame. Returns nullptr on every rank if any
  /// rank's recovery failed (corrupt checkpoint section or a replay
  /// divergence). Resume point: wal_recovered_commits().
  [[nodiscard]] static std::shared_ptr<Database> recover(rma::Rank& self,
                                                         const DatabaseConfig& cfg);

  Database(int nranks, const DatabaseConfig& cfg);
  ~Database();  // out of line: TenantScheduler is incomplete here

  [[nodiscard]] const DatabaseConfig& config() const { return cfg_; }
  [[nodiscard]] block::BlockStore& blocks() { return blocks_; }
  [[nodiscard]] dht::DistributedHashTable& id_index() { return dht_; }
  [[nodiscard]] int nranks() const { return nranks_; }

  /// This rank's shared holder cache, or nullptr when the feature is off.
  /// Per-rank because the target deployment gives each rank private process
  /// memory; a rank only ever touches its own instance (no locking needed).
  [[nodiscard]] cache::SharedBlockCache* shared_cache(rma::Rank& self) {
    if (scaches_.empty()) return nullptr;
    return scaches_[static_cast<std::size_t>(self.id())].get();
  }

  /// This rank's group-commit pipeline, or nullptr when the feature is off
  /// (same per-rank ownership discipline as the shared cache).
  [[nodiscard]] CommitPipeline* commit_pipeline(rma::Rank& self) {
    if (pipelines_.empty()) return nullptr;
    return pipelines_[static_cast<std::size_t>(self.id())].get();
  }

  /// This rank's WAL writer, or nullptr when cfg_.wal is off (same per-rank
  /// ownership discipline as the shared cache and the pipeline).
  [[nodiscard]] wal::WalWriter* wal(rma::Rank& self) {
    if (wals_.empty()) return nullptr;
    return wals_[static_cast<std::size_t>(self.id())].get();
  }

  /// This rank's multi-tenant scheduler, or nullptr when cfg_.server is off.
  /// Session submit() is thread-safe (clients live on their own threads);
  /// everything else -- pump/run/shutdown -- is the rank thread's alone.
  [[nodiscard]] server::TenantScheduler* scheduler(rma::Rank& self);

  /// This rank's socket listener, or nullptr when cfg_.net_listen is off.
  /// request_stop() is thread-safe; everything else (start/serve/poll_once)
  /// belongs to the rank thread, like the scheduler it feeds.
  [[nodiscard]] net::Listener* listener(rma::Rank& self);

  /// Seal this rank's open WAL epoch (one group fsync), honouring any armed
  /// kill point. Pipeline-off and pipeline-ineligible commits call this after
  /// their eager flush; pipeline epochs reach it through the close hook.
  /// Also drives the auto-checkpoint cadence (cfg_.wal_checkpoint_epochs).
  void wal_epoch_close(rma::Rank& self);

  /// Fold a WAL-appended tenant acknowledgement into this rank's listener
  /// replay state. Called from commit_local right after the append and
  /// *before* the seal: any checkpoint (always cut at a seal point) then
  /// carries every ack its image covers -- folding only at reply harvest
  /// left a window where a checkpoint between commit and harvest dropped the
  /// ack from both the trailer and the truncated tail, so a reconnecting
  /// client could re-execute a committed write. No-op without a listener.
  void net_ack_durable(rma::Rank& self, std::uint64_t tenant,
                       std::uint64_t tag, Status st, std::int64_t v0,
                       std::int64_t v1);

  /// Collective checkpoint: every rank seals its open pipeline epoch + WAL
  /// tail, rank 0 writes one atomic global snapshot of all ranks' state, then
  /// every rank truncates its log segments behind the snapshot. Returns
  /// kStale (on every rank) if the checkpoint file could not be written.
  Status checkpoint(rma::Rank& self);

  /// Drain one rank's deferred commit state: close its open pipeline epoch
  /// and seal its WAL tail, with kill points disarmed (this runs from the
  /// teardown lease's destructor). Idempotent; no-op on a killed rank -- a
  /// simulated crash must not persist the tail it was supposed to lose.
  void drain(rma::Rank& self);

  /// Number of commits rank `self` had durably logged at recovery time (0 on
  /// a freshly created database). Workloads resume their stream from here.
  [[nodiscard]] std::uint64_t wal_recovered_commits(rma::Rank& self) const {
    if (recovered_commits_.empty()) return 0;
    return recovered_commits_[static_cast<std::size_t>(self.id())];
  }

  /// Deterministic byte fingerprint of one rank's durable state (block-store
  /// regions, DHT shards, metadata replica) -- the checkpoint section format.
  /// Tests compare a recovered database against a fault-free oracle with it.
  /// Quiescent state only (call inside a barrier or after teardown drain).
  [[nodiscard]] std::vector<std::byte> serialize_rank(int r);

  /// 1D vertex distribution (paper Section 5.4).
  [[nodiscard]] std::uint32_t owner_rank(std::uint64_t app_id) const {
    const std::uint64_t key = cfg_.partitioning == Partitioning::kHashed
                                  ? splitmix64(app_id)
                                  : app_id;
    return static_cast<std::uint32_t>(key % static_cast<std::uint64_t>(nranks_));
  }

  // --- metadata (creates/deletes are collective, lookups local) -------------
  Result<std::uint32_t> create_label(rma::Rank& self, const std::string& name);
  Status delete_label(rma::Rank& self, std::uint32_t id);
  [[nodiscard]] Result<std::uint32_t> label_from_name(rma::Rank& self,
                                                      const std::string& name) const;
  [[nodiscard]] Result<std::string> label_name(rma::Rank& self, std::uint32_t id) const;
  [[nodiscard]] std::vector<Label> all_labels(rma::Rank& self) const;

  Result<std::uint32_t> create_ptype(rma::Rank& self, const PropertyType& def);
  Status delete_ptype(rma::Rank& self, std::uint32_t id);
  [[nodiscard]] Result<std::uint32_t> ptype_from_name(rma::Rank& self,
                                                      const std::string& name) const;
  [[nodiscard]] const PropertyType* ptype(rma::Rank& self, std::uint32_t id) const;
  [[nodiscard]] std::vector<PropertyType> all_ptypes(rma::Rank& self) const;

  // --- explicit indexes (creation collective) --------------------------------
  [[nodiscard]] std::shared_ptr<Index> create_index(rma::Rank& self, IndexDef def);
  [[nodiscard]] const std::vector<std::shared_ptr<Index>>& indexes() const {
    return indexes_;
  }

 private:
  friend class Transaction;
  friend class BulkLoader;

  /// Wrap the collectively created database in this rank's teardown lease
  /// (an aliasing shared_ptr whose deleter drains this rank on this thread).
  static std::shared_ptr<Database> attach_lease(rma::Rank& self,
                                                std::shared_ptr<Database> db);
  /// Restore this rank's checkpoint section + replay its log tail. Returns
  /// false on corruption or replay divergence (collectively fatal).
  bool recover_rank(rma::Rank& self);
  /// Re-execute one logged commit. Returns false on divergence (an acquire
  /// that lands on a different block than the log recorded).
  bool replay_commit(rma::Rank& self, const wal::CommitView& c);
  /// Cadence-triggered checkpoint from the sealing rank's thread (snapshots
  /// every rank's regions; single-driver streams only -- see DatabaseConfig).
  void checkpoint_local(rma::Rank& self);
  bool restore_rank_sections(rma::Rank& self, int r, std::span<const std::byte> in);
  /// Attach every listener's replay state to a checkpoint's net trailer
  /// (no-op without listeners, keeping net-off checkpoints byte-identical).
  void collect_net_sections(wal::Checkpoint& ck);

  DatabaseConfig cfg_;
  int nranks_;
  block::BlockStore blocks_;
  dht::DistributedHashTable dht_;
  std::vector<MetadataReplica> metadata_;  ///< one replica per rank (paper 5.8)
  /// One shared holder cache per rank (empty when cfg_.shared_cache is off).
  std::vector<std::unique_ptr<cache::SharedBlockCache>> scaches_;
  /// One group-commit pipeline per rank (empty when cfg_.commit_pipeline off).
  std::vector<std::unique_ptr<CommitPipeline>> pipelines_;
  /// One WAL writer per rank (empty when cfg_.wal is off).
  std::vector<std::unique_ptr<wal::WalWriter>> wals_;
  /// One multi-tenant scheduler per rank (empty when cfg_.server is off).
  std::vector<std::unique_ptr<server::TenantScheduler>> schedulers_;
  /// One socket listener per rank (empty when cfg_.net_listen is off).
  std::vector<std::unique_ptr<net::Listener>> listeners_;
  /// Per-rank commit high-water mark observed at recovery (0 when fresh).
  std::vector<std::uint64_t> recovered_commits_;
  /// Per-rank "inside teardown drain" flags: the pipeline close hook must
  /// not fire kill points while the lease destructor drains (a throw from a
  /// destructor would terminate).
  std::vector<std::uint8_t> draining_;
  std::vector<std::shared_ptr<Index>> indexes_;
  std::uint32_t next_index_id_ = 0;
};

}  // namespace gdi
