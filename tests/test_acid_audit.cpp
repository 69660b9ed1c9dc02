// SNB-Interactive-style ACID audit, driven through the multi-tenant front
// end (src/server/): concurrent client sessions hammer the same vertices
// through the TenantScheduler with the commit pipeline, shared cache and
// write-through enabled -- the full stack between a client request and the
// bytes in the block store.
//
// The two classic anomalies audited (LDBC SNB ACID test suite shapes):
//  * lost update -- N sessions each submit kIncrement read-modify-writes on
//    ONE vertex; serializability demands the final value equal the number of
//    successfully acknowledged increments, exactly (any lost update would
//    leave it short), including on a single-key stream long enough that the
//    holder must recycle the room of the values it overwrites;
//  * dirty read / fractured read -- writers keep two vertices equal with
//    atomic kWritePair transactions while readers snapshot both in one
//    kReadPair transaction; every acknowledged read must observe v0 == v1
//    (seeing a half-applied pair is a dirty or fractured read).
//
// Both run at P=1 (pure multi-session interleaving on one rank) and P=2
// (cross-rank conflicts through the real lock/validation path, where
// writers genuinely race and bounded retries matter).
//
// NOTE: inside Runtime::run all assertions must be EXPECT_* (non-fatal);
// a fatal ASSERT would return from one rank's lambda and deadlock the team.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "gdi/gdi.hpp"
#include "server/scheduler.hpp"

namespace gdi {
namespace {

using server::OpKind;
using server::Request;
using server::Session;
using server::TenantScheduler;

DatabaseConfig audit_cfg() {
  DatabaseConfig c;
  c.block.block_size = 512;
  c.block.blocks_per_rank = 8192;
  c.dht.entries_per_rank = 4096;
  c.dht.buckets_per_rank = 512;
  c.server = true;
  c.server_inflight_per_tenant = 512;
  c.server_admission_bytes = 1u << 20;
  c.server_write_retries = 16;  // cross-rank races need real retry headroom
  c.commit_pipeline = true;
  c.commit_epoch_txns = 8;
  c.shared_cache = true;
  c.scache_write_through = true;
  return c;
}

/// Create app ids 0..n-1 with int64 property `val` = `init`; collective.
std::uint32_t load_vertices(const std::shared_ptr<Database>& db,
                            rma::Rank& self, std::uint64_t n,
                            std::int64_t init) {
  PropertyType pd{.name = "val", .dtype = Datatype::kInt64};
  const std::uint32_t pt = *db->create_ptype(self, pd);
  for (std::uint64_t id = 0; id < n; ++id) {
    if (db->owner_rank(id) != static_cast<std::uint32_t>(self.id())) continue;
    Transaction txn(db, self, TxnMode::kWrite);
    auto vh = txn.create_vertex(id);
    EXPECT_TRUE(vh.ok());
    if (vh.ok()) EXPECT_EQ(txn.update_property(*vh, pt, PropValue{init}), Status::kOk);
    EXPECT_EQ(txn.commit(), Status::kOk);
  }
  self.barrier();
  return pt;
}

Request make_req(OpKind op, std::uint64_t a, std::uint32_t pt,
                 std::int64_t value = 0, std::uint64_t b = 0) {
  Request r;
  r.op = op;
  r.a = a;
  r.b = b;
  r.ptype = pt;
  r.value = value;
  r.arrival_ns = 0;
  return r;
}

std::int64_t read_value(const std::shared_ptr<Database>& db, rma::Rank& self,
                        std::uint64_t id, std::uint32_t pt) {
  Transaction txn(db, self, TxnMode::kRead);
  auto vh = txn.find_vertex(id);
  EXPECT_TRUE(vh.ok());
  std::int64_t v = -1;
  if (vh.ok()) {
    auto props = txn.get_properties(*vh, pt);
    EXPECT_TRUE(props.ok());
    if (props.ok() && !props->empty())
      v = std::get<std::int64_t>(props->front());
  }
  EXPECT_EQ(txn.commit(), Status::kOk);
  return v;
}

/// Shared body: `tenants` client threads per rank each submit `per_tenant`
/// kIncrement requests on app id 0; returns this rank's kOk reply count.
std::uint64_t run_increment_audit(const std::shared_ptr<Database>& db,
                                  rma::Rank& self, int tenants,
                                  std::uint64_t per_tenant, std::uint32_t pt) {
  TenantScheduler* ts = db->scheduler(self);
  EXPECT_NE(ts, nullptr);
  std::vector<Session*> ss;
  for (int t = 0; t < tenants; ++t) ss.push_back(ts->open_session());
  self.barrier();  // both ranks' schedulers live before anyone races
  std::vector<std::thread> clients;
  for (int t = 0; t < tenants; ++t) {
    clients.emplace_back([&, t] {
      Session* s = ss[static_cast<std::size_t>(t)];
      for (std::uint64_t k = 0; k < per_tenant; ++k) {
        Request r = make_req(OpKind::kIncrement, 0, pt);
        r.client_tag = (static_cast<std::uint64_t>(t) << 32) | k;
        while (s->submit(r) != Status::kOk) std::this_thread::yield();
      }
      s->close();
    });
  }
  ts->run(db, self);
  for (auto& c : clients) c.join();
  std::uint64_t okc = 0;
  for (auto* s : ss)
    for (const auto& rep : s->take_replies())
      if (rep.status == Status::kOk) ++okc;
  return okc;
}

TEST(AcidAudit, NoLostUpdateSingleRank) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, audit_cfg());
    const std::uint32_t pt = load_vertices(db, self, 4, 0);
    const std::uint64_t okc = run_increment_audit(db, self, /*tenants=*/4,
                                                  /*per_tenant=*/25, pt);
    // One rank thread serializes execution: nothing can conflict, and the
    // counter must hold exactly one unit per acknowledged increment.
    EXPECT_EQ(okc, 100u);
    self.barrier();
    EXPECT_EQ(read_value(db, self, 0, pt), static_cast<std::int64_t>(okc));
  });
}

TEST(AcidAudit, NoLostUpdateOnLongOneKeyStream) {
  // One key, 4,000 increments at P=1: far more updates of one holder than
  // its property region starts with room for. A write the holder could not
  // take must come back as a failure, never as a kOk that the value lacks.
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, audit_cfg());
    const std::uint32_t pt = load_vertices(db, self, 1, 0);
    const std::uint64_t okc = run_increment_audit(db, self, /*tenants=*/1,
                                                  /*per_tenant=*/4000, pt);
    EXPECT_EQ(okc, 4000u);
    self.barrier();
    EXPECT_EQ(read_value(db, self, 0, pt), static_cast<std::int64_t>(okc));
  });
}

TEST(AcidAudit, NoLostUpdateAcrossRanks) {
  rma::Runtime rt(2);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, audit_cfg());
    const std::uint32_t pt = load_vertices(db, self, 4, 0);
    // Both ranks' schedulers increment the SAME vertex (app id 0, owned by
    // rank 0): genuine cross-rank lock conflicts, bounded retries, epoch
    // commits -- the lost-update crucible.
    const std::uint64_t okc = run_increment_audit(db, self, /*tenants=*/2,
                                                  /*per_tenant=*/20, pt);
    const std::uint64_t total_ok = self.allreduce_sum(okc);
    self.barrier();
    const std::int64_t v = read_value(db, self, 0, pt);
    // Serializability: every acknowledged increment happened exactly once.
    // (Conflicted submissions that exhausted retries reported kTxnConflict
    // and must NOT have bumped the counter.)
    EXPECT_EQ(v, static_cast<std::int64_t>(total_ok));
    EXPECT_GT(total_ok, 0u);
    self.barrier();
  });
}

TEST(AcidAudit, NoDirtyOrFracturedReadAcrossRanks) {
  rma::Runtime rt(2);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, audit_cfg());
    // App ids 0 and 1 live on different ranks (round-robin ownership), so the
    // pair write spans holders and the pair read spans holders -- a fractured
    // read would show the two sides out of step.
    const std::uint32_t pt = load_vertices(db, self, 2, 0);
    constexpr std::uint64_t kWrites = 30;
    constexpr std::uint64_t kReads = 30;

    TenantScheduler* ts = db->scheduler(self);
    std::vector<Session*> ss;
    std::vector<std::thread> clients;
    if (self.id() == 0) {
      // Rank 0 hosts the writer tenant: keep v(0) == v(1) atomically.
      ss.push_back(ts->open_session());
      self.barrier();
      clients.emplace_back([&] {
        for (std::uint64_t k = 1; k <= kWrites; ++k) {
          Request r = make_req(OpKind::kWritePair, 0, pt,
                               static_cast<std::int64_t>(k), 1);
          r.client_tag = k;
          while (ss[0]->submit(r) != Status::kOk) std::this_thread::yield();
        }
        ss[0]->close();
      });
    } else {
      // Rank 1 hosts two reader tenants snapshotting the pair in one txn.
      ss.push_back(ts->open_session());
      ss.push_back(ts->open_session());
      self.barrier();
      for (int t = 0; t < 2; ++t) {
        clients.emplace_back([&, t] {
          Session* s = ss[static_cast<std::size_t>(t)];
          for (std::uint64_t k = 0; k < kReads; ++k) {
            Request r = make_req(OpKind::kReadPair, 0, pt, 0, 1);
            r.client_tag = (static_cast<std::uint64_t>(t) << 32) | k;
            while (s->submit(r) != Status::kOk) std::this_thread::yield();
          }
          s->close();
        });
      }
    }
    ts->run(db, self);
    for (auto& c : clients) c.join();

    std::uint64_t ok_reads = 0;
    for (auto* s : ss) {
      for (const auto& rep : s->take_replies()) {
        if (self.id() == 0 || rep.status != Status::kOk) continue;
        // THE audit: an acknowledged pair read saw both sides of some single
        // committed write -- never a half-applied one.
        EXPECT_EQ(rep.v0, rep.v1) << "fractured read at tag " << rep.client_tag;
        ++ok_reads;
      }
    }
    if (self.id() == 1) EXPECT_GT(ok_reads, 0u);
    self.barrier();
    // Quiesced state: both sides carry the last acknowledged write.
    EXPECT_EQ(read_value(db, self, 0, pt), read_value(db, self, 1, pt));
    self.barrier();
  });
}

}  // namespace
}  // namespace gdi
