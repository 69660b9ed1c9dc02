// Per-layer metrics. Every workload emits the same set, so the traced run of
// each workload prints every name; a layer the workload does not exercise
// reads 0 (e.g. net.* on the in-process and analytics workloads).
#pragma once

#include "common.hpp"
#include "server/scheduler.hpp"

namespace perfbench {

struct LayerStats {
  // net: the traced run drives Listener::poll_once itself.
  double net_transport_ratio = 0;  ///< wire kqps / same stream via Session::submit
  double net_poll_us = 0;          ///< mean wall us per poll_once call
  double net_idle_poll_frac = 0;   ///< polls made with the 1 ms idle timeout
  double net_reqs_per_poll = 0;
  double net_frames_per_req = 0;   ///< frames rx+tx per request
  double net_stalls_per_kreq = 0;
  double gen_late_p99_us = 0;      ///< open-loop generator lateness (validity)
  double gen_backlog_growth = 0;   ///< outstanding at 90% vs 10% of fixed-rate arrivals
  // server: the traced run drives TenantScheduler::pump itself.
  double server_pump_wall_us = 0;
  double server_pump_model_us = 0;
  double server_reqs_per_pump = 0;
  double server_coalesce_frac = 0;
  double server_epochs_per_kreq = 0;
  double server_sheds_per_kreq = 0;
  // gdi: the request stream replayed as BatchScope read groups of 32 and
  // single write transactions.
  double gdi_execute_model_us = 0;
  double gdi_execute_wall_us = 0;
  double gdi_commit_model_us = 0;
  double gdi_commit_wall_us = 0;
  double gdi_abort_frac = 0;
  double gdi_commits_per_epoch = 0;
  double gdi_flushes_per_commit = 0;
  // cache
  double cache_scache_hit_rate = 0;
  double cache_invalidations_per_kreq = 0;
  double cache_restamps_per_kwrite = 0;
  double cache_txn_hit_rate = 0;
  // dht: one lookup_many of 32 keys, timed on the model clock.
  double dht_lookup_model_us = 0;
  double dht_probes_per_lookup = 0;  ///< probe rounds per key looked up
  double dht_xlate_hit_rate = 0;
  // rma (and the block layer's traffic)
  double rma_model_us_per_req = 0;
  double rma_flushes_per_req = 0;
  double rma_atomics_per_req = 0;
  double rma_gets_per_req = 0;
  double rma_bytes_get_per_req = 0;
  double rma_remote_frac = 0;
  double rma_ops_per_batch = 0;
  // wal
  double wal_appends_per_fsync = 0;
  double wal_fsyncs_per_kreq = 0;
  double wal_log_bytes_per_write = 0;
  double wal_recover_s = 0;
  // workloads: bfs, khop, pagerank, wcc, lcc
  double olap_wall_ms[5] = {0, 0, 0, 0, 0};
  double olap_model_ms[5] = {0, 0, 0, 0, 0};
  double olap_remote_ops[5] = {0, 0, 0, 0, 0};
  // setup
  double setup_gen_s = 0;
  double setup_load_s = 0;
  // tracing itself
  double trace_overhead_frac = 0;  ///< 1 - traced/untraced wall throughput
};

inline constexpr const char* kKernels[5] = {"bfs", "khop", "pagerank", "wcc", "lcc"};

/// Fill the cache/dht/rma/wal counter ratios from one phase's counter delta.
/// `requests` is the phase's request count, `writes` its write requests.
inline void fill_from_counters(LayerStats& ls, const gdi::rma::OpCounters& d,
                               double requests, double writes, double model_ns) {
  const double sc = static_cast<double>(d.scache_hits + d.scache_misses);
  ls.cache_scache_hit_rate = ratio(static_cast<double>(d.scache_hits), sc);
  ls.cache_invalidations_per_kreq =
      ratio(static_cast<double>(d.scache_invalidations) * 1e3, requests);
  ls.cache_restamps_per_kwrite = ratio(static_cast<double>(d.scache_restamps) * 1e3, writes);
  ls.cache_txn_hit_rate = ratio(static_cast<double>(d.cache_hits),
                                static_cast<double>(d.cache_hits + d.cache_misses));
  ls.dht_xlate_hit_rate = ratio(static_cast<double>(d.xlate_hits),
                                static_cast<double>(d.xlate_hits + d.xlate_fallbacks));
  ls.rma_model_us_per_req = ratio(model_ns / 1e3, requests);
  ls.rma_flushes_per_req = ratio(static_cast<double>(d.flushes), requests);
  ls.rma_atomics_per_req = ratio(static_cast<double>(d.atomics), requests);
  ls.rma_gets_per_req = ratio(static_cast<double>(d.gets), requests);
  ls.rma_bytes_get_per_req = ratio(static_cast<double>(d.bytes_get), requests);
  ls.rma_remote_frac = ratio(static_cast<double>(d.remote_ops),
                             static_cast<double>(d.puts + d.gets + d.atomics));
  ls.rma_ops_per_batch = ratio(static_cast<double>(d.nb_gets + d.nb_puts + d.nb_atomics),
                               static_cast<double>(d.batches));
  ls.wal_appends_per_fsync =
      ratio(static_cast<double>(d.wal_appends), static_cast<double>(d.wal_fsyncs));
  ls.wal_fsyncs_per_kreq = ratio(static_cast<double>(d.wal_fsyncs) * 1e3, requests);
  ls.server_coalesce_frac =
      ratio(static_cast<double>(d.sched_coalesced), static_cast<double>(d.sched_served));
  ls.server_epochs_per_kreq = ratio(static_cast<double>(d.sched_epochs) * 1e3, requests);
  ls.server_sheds_per_kreq =
      ratio(static_cast<double>(d.sched_admission_rejects) * 1e3, requests);
}

inline void emit_layers(RunResult& r, const LayerStats& l) {
  r.add("net.transport_ratio", l.net_transport_ratio, "ratio", "wall");
  r.add("net.poll_us", l.net_poll_us, "us", "wall");
  r.add("net.idle_poll_frac", l.net_idle_poll_frac, "ratio", "-");
  r.add("net.reqs_per_poll", l.net_reqs_per_poll, "count", "-");
  r.add("net.frames_per_req", l.net_frames_per_req, "count", "-");
  r.add("net.stalls_per_kreq", l.net_stalls_per_kreq, "count", "-");
  r.add("gen.late_p99_us", l.gen_late_p99_us, "us", "wall");
  r.add("gen.backlog_growth", l.gen_backlog_growth, "count", "-");
  r.add("server.pump_wall_us", l.server_pump_wall_us, "us", "wall");
  r.add("server.pump_model_us", l.server_pump_model_us, "us", "model");
  r.add("server.reqs_per_pump", l.server_reqs_per_pump, "count", "-");
  r.add("server.coalesce_frac", l.server_coalesce_frac, "ratio", "-");
  r.add("server.epochs_per_kreq", l.server_epochs_per_kreq, "count", "-");
  r.add("server.sheds_per_kreq", l.server_sheds_per_kreq, "count", "-");
  r.add("gdi.execute_model_us", l.gdi_execute_model_us, "us", "model");
  r.add("gdi.execute_wall_us", l.gdi_execute_wall_us, "us", "wall");
  r.add("gdi.commit_model_us", l.gdi_commit_model_us, "us", "model");
  r.add("gdi.commit_wall_us", l.gdi_commit_wall_us, "us", "wall");
  r.add("gdi.abort_frac", l.gdi_abort_frac, "ratio", "-");
  r.add("gdi.commits_per_epoch", l.gdi_commits_per_epoch, "count", "-");
  r.add("gdi.flushes_per_commit", l.gdi_flushes_per_commit, "count", "-");
  r.add("cache.scache_hit_rate", l.cache_scache_hit_rate, "ratio", "-");
  r.add("cache.invalidations_per_kreq", l.cache_invalidations_per_kreq, "count", "-");
  r.add("cache.restamps_per_kwrite", l.cache_restamps_per_kwrite, "count", "-");
  r.add("cache.txn_hit_rate", l.cache_txn_hit_rate, "ratio", "-");
  r.add("dht.lookup_model_us", l.dht_lookup_model_us, "us", "model");
  r.add("dht.probes_per_lookup", l.dht_probes_per_lookup, "count", "-");
  r.add("dht.xlate_hit_rate", l.dht_xlate_hit_rate, "ratio", "-");
  r.add("rma.model_us_per_req", l.rma_model_us_per_req, "us", "model");
  r.add("rma.flushes_per_req", l.rma_flushes_per_req, "count", "-");
  r.add("rma.atomics_per_req", l.rma_atomics_per_req, "count", "-");
  r.add("rma.gets_per_req", l.rma_gets_per_req, "count", "-");
  r.add("rma.bytes_get_per_req", l.rma_bytes_get_per_req, "B", "-");
  r.add("rma.remote_frac", l.rma_remote_frac, "ratio", "-");
  r.add("rma.ops_per_batch", l.rma_ops_per_batch, "count", "-");
  r.add("wal.appends_per_fsync", l.wal_appends_per_fsync, "count", "-");
  r.add("wal.fsyncs_per_kreq", l.wal_fsyncs_per_kreq, "count", "-");
  r.add("wal.log_bytes_per_write", l.wal_log_bytes_per_write, "B", "-");
  r.add("wal.recover_s", l.wal_recover_s, "s", "wall");
  for (int k = 0; k < 5; ++k) {
    const std::string p = std::string("olap.") + kKernels[k];
    r.add(p + ".wall_ms", l.olap_wall_ms[k], "ms", "wall");
    r.add(p + ".model_ms", l.olap_model_ms[k], "ms", "model");
    r.add(p + ".remote_ops", l.olap_remote_ops[k], "count", "-");
  }
  r.add("setup.gen_s", l.setup_gen_s, "s", "wall");
  r.add("setup.load_s", l.setup_load_s, "s", "wall");
  r.add("trace.overhead_frac", l.trace_overhead_frac, "ratio", "-");
}

/// The gdi layer timed on its own (perfbench/src/replay.cpp).
struct GdiReplay {
  Samples exec_model, exec_wall, commit_model, commit_wall;  ///< us per call
  std::uint64_t txns = 0, aborts = 0;
  gdi::rma::OpCounters counters;
};

/// Collective: every rank replays `mine` -- reads as BatchScope groups of 32,
/// writes as single transactions -- and rank 0 accumulates into `out`.
void gdi_replay(const std::shared_ptr<gdi::Database>& db, gdi::rma::Rank& self,
                std::uint32_t pt, const std::vector<const gdi::server::Request*>& mine,
                GdiReplay& out);
void fill_gdi(LayerStats& ls, GdiReplay& g);

/// Collective: mean model-clock cost of one DHT lookup_many of 32 resident
/// keys, and probe rounds per call. Rank 0 probes; the others wait.
inline void probe_dht(gdi::rma::Rank& self, gdi::Database& db, std::uint64_t n,
                      std::uint64_t seed, LayerStats& ls) {
  self.barrier();
  if (self.id() == 0) {
    Span sp("dht", "lookup_many");
    Rng rng(seed ^ 0xd47u);
    constexpr int kCalls = 64;
    const auto c0 = self.counters();
    const double m0 = self.sim_time_ns();
    std::vector<std::uint64_t> keys(32);
    for (int c = 0; c < kCalls; ++c) {
      for (auto& k : keys) k = rng.below(n);
      (void)db.id_index().lookup_many(self, keys);
    }
    ls.dht_lookup_model_us = (self.sim_time_ns() - m0) / 1e3 / kCalls;
    ls.dht_probes_per_lookup =  // per key
        static_cast<double>(self.counters().dht_probe_rounds - c0.dht_probe_rounds) /
        (kCalls * 32.0);
  }
  self.barrier();
}

}  // namespace perfbench
