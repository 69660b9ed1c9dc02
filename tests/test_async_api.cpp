// Tests for the async-first transaction surface (gdi/async.hpp):
// Future<T> + Transaction::batch() -> BatchScope -> execute().
//
// Invariants pinned here:
//  * a batched mixed read/write scope returns byte-for-byte what the blocking
//    calls return, and commits byte-for-byte the same state;
//  * error propagation follows GDI's critical/non-critical split: a doomed
//    operation (unknown ID) fails only its future, a transaction-critical
//    lock conflict dooms the whole transaction;
//  * execute() works inside collective transactions (every rank batching its
//    own reads);
//  * flush counts stay constant per execute (not per op) and a multi-vertex
//    commit issues one flush total (<= 1 per target rank) -- the
//    put_nb-writeback satellite.
//
// NOTE: inside Runtime::run all assertions must be EXPECT_* (non-fatal);
// a fatal ASSERT would return from one rank's lambda and deadlock the team.
#include <gtest/gtest.h>

#include <numeric>

#include "gdi/gdi.hpp"
#include "gdi/spec.hpp"

namespace gdi {
namespace {

DatabaseConfig make_cfg() {
  DatabaseConfig c;
  c.block.block_size = 512;
  c.block.blocks_per_rank = 8192;
  c.dht.entries_per_rank = 4096;
  c.dht.buckets_per_rank = 512;
  return c;
}

constexpr std::uint64_t kN = 32;

/// Collective: build a small graph -- vertices 0..kN-1 with a label, an int64
/// property, and a path of edges created on rank 0.
std::uint32_t build_graph(const std::shared_ptr<Database>& db, rma::Rank& self) {
  PropertyType pd{.name = "w", .dtype = Datatype::kInt64};
  const std::uint32_t pt = *db->create_ptype(self, pd);
  {
    Transaction w(db, self, TxnMode::kWrite, TxnScope::kCollective);
    for (std::uint64_t i = static_cast<std::uint64_t>(self.id()); i < kN;
         i += static_cast<std::uint64_t>(self.nranks())) {
      auto v = w.create_vertex(i);
      EXPECT_TRUE(v.ok());
      EXPECT_EQ(w.add_label(*v, static_cast<std::uint32_t>(i % 3) + 1), Status::kOk);
      EXPECT_EQ(w.add_property(*v, pt, PropValue{std::int64_t(i * 7)}), Status::kOk);
    }
    EXPECT_EQ(w.commit(), Status::kOk);
  }
  self.barrier();
  {
    Transaction w(db, self, TxnMode::kWrite, TxnScope::kCollective);
    if (self.id() == 0) {
      for (std::uint64_t i = 0; i + 1 < kN; ++i) {
        auto a = w.find_vertex(i);
        auto b = w.find_vertex(i + 1);
        EXPECT_TRUE(a.ok() && b.ok());
        EXPECT_TRUE(w.create_edge(*a, *b, layout::Dir::kOut).ok());
      }
    }
    EXPECT_EQ(w.commit(), Status::kOk);
  }
  self.barrier();
  return pt;
}

struct ReadDigest {
  std::vector<std::uint64_t> words;
  bool operator==(const ReadDigest&) const = default;
};

// ---------------------------------------------------------------------------
// Batched == blocking, byte for byte
// ---------------------------------------------------------------------------

TEST(AsyncApi, MixedScopeMatchesBlockingByteForByte) {
  // Two identical databases in one runtime: db_a is driven through the
  // blocking calls, db_b through one mixed BatchScope. Reads must match
  // byte-for-byte, and so must the state committed by the writes.
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db_a = Database::create(self, make_cfg());
    auto db_b = Database::create(self, make_cfg());
    const std::uint32_t pt_a = build_graph(db_a, self);
    const std::uint32_t pt_b = build_graph(db_b, self);
    EXPECT_EQ(pt_a, pt_b);
    if (self.id() == 0) {
      ReadDigest blocking, batched;
      // Blocking pass on db_a.
      {
        Transaction txn(db_a, self, TxnMode::kWrite);
        for (std::uint64_t i = 0; i < kN; ++i) {
          auto vid = txn.translate_vertex_id(i);
          EXPECT_TRUE(vid.ok());
          blocking.words.push_back(vid->raw() != 0);
          auto vh = txn.find_vertex(i);
          EXPECT_TRUE(vh.ok());
          blocking.words.push_back(*txn.peek_app_id(vh->vid));
          auto edges = txn.edges_of(*vh, DirFilter::kAll);
          for (const auto& e : *edges) blocking.words.push_back(e.neighbor.raw() != 0);
          auto props = txn.get_properties(*vh, pt_a);
          for (const auto& p : *props)
            blocking.words.push_back(static_cast<std::uint64_t>(std::get<std::int64_t>(p)));
          if (i % 4 == 0)
            EXPECT_EQ(txn.update_property(*vh, pt_a, PropValue{std::int64_t(i + 100)}),
                      Status::kOk);
        }
        EXPECT_EQ(txn.commit(), Status::kOk);
      }
      // One mixed batch on db_b.
      {
        Transaction txn(db_b, self, TxnMode::kWrite);
        BatchScope scope = txn.batch();
        std::vector<Future<DPtr>> trs;
        std::vector<Future<VertexHandle>> finds;
        for (std::uint64_t i = 0; i < kN; ++i) {
          trs.push_back(scope.translate(i));
          finds.push_back(scope.find(i));
        }
        EXPECT_EQ(scope.execute(), Status::kOk);
        BatchScope scope2 = txn.batch();
        std::vector<Future<std::uint64_t>> peeks;
        std::vector<Future<std::vector<EdgeDesc>>> edges;
        std::vector<Future<std::vector<PropValue>>> props;
        std::vector<Future<std::monostate>> writes;
        for (std::uint64_t i = 0; i < kN; ++i) {
          EXPECT_TRUE(finds[i].ok());
          peeks.push_back(scope2.peek_app_id(finds[i]->vid));
          edges.push_back(scope2.edges_of(*finds[i], DirFilter::kAll));
          props.push_back(scope2.get_properties(*finds[i], pt_b));
          if (i % 4 == 0)
            writes.push_back(
                scope2.set_property(*finds[i], pt_b, PropValue{std::int64_t(i + 100)}));
        }
        EXPECT_EQ(scope2.execute(), Status::kOk);
        for (std::uint64_t i = 0; i < kN; ++i) {
          EXPECT_TRUE(trs[i].ok());
          batched.words.push_back(trs[i]->raw() != 0);
          batched.words.push_back(*peeks[i]);
          for (const auto& e : *edges[i]) batched.words.push_back(e.neighbor.raw() != 0);
          for (const auto& p : *props[i])
            batched.words.push_back(static_cast<std::uint64_t>(std::get<std::int64_t>(p)));
        }
        for (auto& w : writes) EXPECT_TRUE(w.ok());
        EXPECT_EQ(txn.commit(), Status::kOk);
      }
      EXPECT_EQ(blocking, batched)
          << "batched reads must match the blocking path byte-for-byte";
      // Committed state matches too.
      {
        Transaction ra(db_a, self, TxnMode::kReadShared);
        Transaction rb(db_b, self, TxnMode::kReadShared);
        for (std::uint64_t i = 0; i < kN; ++i) {
          auto va = ra.find_vertex(i);
          auto vb = rb.find_vertex(i);
          EXPECT_TRUE(va.ok() && vb.ok());
          auto pa = ra.get_properties(*va, pt_a);
          auto pb = rb.get_properties(*vb, pt_b);
          EXPECT_TRUE(pa.ok() && pb.ok());
          EXPECT_EQ(pa->size(), pb->size());
          for (std::size_t k = 0; k < pa->size(); ++k)
            EXPECT_EQ(std::get<std::int64_t>((*pa)[k]), std::get<std::int64_t>((*pb)[k]));
        }
        (void)ra.commit();
        (void)rb.commit();
      }
    }
    self.barrier();
  });
}

// ---------------------------------------------------------------------------
// Error propagation
// ---------------------------------------------------------------------------

TEST(AsyncApi, SoftFailureFailsOnlyItsFuture) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg());
    (void)build_graph(db, self);
    Transaction txn(db, self, TxnMode::kRead);
    BatchScope scope = txn.batch();
    auto good = scope.find(3);
    auto missing = scope.find(kN + 999);  // unknown app id
    auto also_good = scope.translate(5);
    EXPECT_EQ(scope.execute(), Status::kOk)
        << "soft per-op failures must not fail execute()";
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(missing.status(), Status::kNotFound);
    EXPECT_TRUE(also_good.ok());
    EXPECT_FALSE(txn.failed()) << "kNotFound is not transaction-critical";
    EXPECT_EQ(txn.commit(), Status::kOk);
  });
}

TEST(AsyncApi, LockConflictDoomsTransactionAndAbortsSiblings) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg());
    (void)build_graph(db, self);
    DPtr blocked_vid;
    {
      Transaction probe(db, self, TxnMode::kReadShared);
      blocked_vid = *probe.translate_vertex_id(7);
      (void)probe.commit();
    }
    // A foreign writer holds vertex 7's lock.
    EXPECT_TRUE(db->blocks().try_write_lock(self, blocked_vid));
    {
      Transaction txn(db, self, TxnMode::kRead);
      BatchScope scope = txn.batch();
      auto conflicted = scope.find(7);
      auto sibling = scope.find(8);
      const Status s = scope.execute();
      EXPECT_EQ(s, Status::kTxnConflict) << "required lock failure dooms the txn";
      EXPECT_EQ(conflicted.status(), Status::kTxnConflict);
      EXPECT_EQ(sibling.status(), Status::kTxnAborted)
          << "sibling futures of a doomed execute abort";
      EXPECT_TRUE(txn.failed());
      EXPECT_EQ(txn.commit(), Status::kTxnConflict);
    }
    db->blocks().write_unlock(self, blocked_vid);
    // Pending futures read kStale before execute.
    {
      Transaction txn(db, self, TxnMode::kRead);
      BatchScope scope = txn.batch();
      auto f = scope.find(1);
      EXPECT_FALSE(f.ready());
      EXPECT_EQ(f.status(), Status::kStale);
      EXPECT_EQ(scope.execute(), Status::kOk);
      EXPECT_TRUE(f.ready());
      (void)txn.commit();
    }
  });
}

TEST(AsyncApi, WriteIntentInReadOnlyModeIsCritical) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg());
    const std::uint32_t pt = build_graph(db, self);
    Transaction txn(db, self, TxnMode::kReadShared);
    auto vid = txn.translate_vertex_id(2);
    auto vid2 = txn.translate_vertex_id(3);
    EXPECT_TRUE(vid.ok() && vid2.ok());
    BatchScope scope = txn.batch();
    auto w = scope.set_property(*vid, pt, PropValue{std::int64_t{1}});
    auto p = scope.peek_app_id(*vid2);  // enqueued after the doomed write
    EXPECT_EQ(scope.execute(), Status::kTxnReadOnly);
    EXPECT_EQ(w.status(), Status::kTxnReadOnly);
    EXPECT_EQ(p.status(), Status::kTxnAborted)
        << "a doomed batch aborts its unresolved peeks instead of issuing RMA";
    EXPECT_TRUE(txn.failed());
  });
}

// ---------------------------------------------------------------------------
// Collective scope
// ---------------------------------------------------------------------------

TEST(AsyncApi, CollectiveExecuteAcrossRanks) {
  rma::Runtime rt(4, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg());
    const std::uint32_t pt = build_graph(db, self);
    // Every rank batches its own shard's reads inside one collective
    // transaction; execute() is per-rank (no hidden collectives).
    Transaction txn(db, self, TxnMode::kReadShared, TxnScope::kCollective);
    BatchScope scope = txn.batch();
    std::vector<std::uint64_t> mine;
    std::vector<Future<VertexHandle>> handles;
    for (std::uint64_t i = static_cast<std::uint64_t>(self.id()); i < kN;
         i += static_cast<std::uint64_t>(self.nranks())) {
      mine.push_back(i);
      handles.push_back(scope.find(i));
    }
    EXPECT_EQ(scope.execute(), Status::kOk);
    std::uint64_t sum = 0;
    BatchScope scope2 = txn.batch();
    std::vector<Future<std::vector<PropValue>>> props;
    for (auto& h : handles) {
      EXPECT_TRUE(h.ok());
      props.push_back(scope2.get_properties(*h, pt));
    }
    EXPECT_EQ(scope2.execute(), Status::kOk);
    for (auto& p : props)
      sum += static_cast<std::uint64_t>(std::get<std::int64_t>((*p)[0]));
    const std::uint64_t global = self.allreduce_sum(sum);
    std::uint64_t want = 0;
    for (std::uint64_t i = 0; i < kN; ++i) want += i * 7;
    EXPECT_EQ(global, want);
    EXPECT_EQ(txn.commit(), Status::kOk);
  });
}

// ---------------------------------------------------------------------------
// Flush accounting (the cost-model contract)
// ---------------------------------------------------------------------------

TEST(AsyncApi, ExecuteFlushCountIsConstantPerBatchNotPerOp) {
  rma::Runtime rt(4, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg());
    (void)build_graph(db, self);
    if (self.id() == 0) {
      auto flushes_for = [&](std::uint64_t k) {
        Transaction txn(db, self, TxnMode::kRead);
        BatchScope scope = txn.batch();
        std::vector<Future<VertexHandle>> hs;
        for (std::uint64_t i = 0; i < k; ++i) hs.push_back(scope.find(i));
        self.reset_counters();
        EXPECT_EQ(scope.execute(), Status::kOk);
        const std::uint64_t f = self.counters().flushes;
        for (auto& h : hs) EXPECT_TRUE(h.ok());
        (void)txn.commit();
        return f;
      };
      const std::uint64_t f8 = flushes_for(8);
      const std::uint64_t f32 = flushes_for(32);
      EXPECT_LE(f32, 8u) << "flushes per execute must be a small constant";
      EXPECT_LE(f32, f8 + 2)
          << "flush count must not scale with the number of batched ops";
    }
    self.barrier();
  });
}

TEST(AsyncApi, MultiVertexCommitIssuesOneFlushTotal) {
  rma::Runtime rt(4, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg());
    const std::uint32_t pt = build_graph(db, self);
    if (self.id() == 0) {
      // Dirty 12 vertices spread across all 4 ranks (round-robin owners),
      // then commit: the writeback must ride put_nb and complete with one
      // flush_all -- <= 1 flush per target rank, vs one per holder before.
      Transaction txn(db, self, TxnMode::kWrite);
      BatchScope scope = txn.batch();
      std::vector<Future<VertexHandle>> hs;
      for (std::uint64_t i = 0; i < 12; ++i) hs.push_back(scope.find(i));
      EXPECT_EQ(scope.execute(), Status::kOk);
      BatchScope writes = txn.batch();
      for (std::uint64_t i = 0; i < 12; ++i)
        (void)writes.set_property(*hs[i], pt, PropValue{std::int64_t(i * 11)});
      EXPECT_EQ(writes.execute(), Status::kOk);
      self.reset_counters();
      EXPECT_EQ(txn.commit(), Status::kOk);
      const auto& c = self.counters();
      EXPECT_GE(c.nb_puts, 12u) << "every dirty block rides put_nb";
      EXPECT_EQ(c.flushes, 1u)
          << "one overlapped flush per commit (<= 1 per target rank)";
    }
    self.barrier();
    // The writes are visible to every rank afterwards.
    Transaction r(db, self, TxnMode::kReadShared, TxnScope::kCollective);
    for (std::uint64_t i = 0; i < 12; ++i) {
      auto vh = r.find_vertex(i);
      EXPECT_TRUE(vh.ok());
      auto p = r.get_properties(*vh, pt);
      EXPECT_TRUE(p.ok());
      EXPECT_EQ(std::get<std::int64_t>((*p)[0]), static_cast<std::int64_t>(i * 11));
    }
    EXPECT_EQ(r.commit(), Status::kOk);
  });
}

// ---------------------------------------------------------------------------
// Spec-style nonblocking bindings
// ---------------------------------------------------------------------------

TEST(AsyncApi, SpecNbBindingsRoundTrip) {
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    spec::GDI_Database db;
    EXPECT_EQ(spec::GDI_CreateDatabase(self, make_cfg(), &db), Status::kOk);
    const std::uint32_t pt = build_graph(db, self);
    if (self.id() == 0) {
      spec::GDI_Transaction txn;
      EXPECT_EQ(spec::GDI_StartTransaction(&txn, db, self, TxnMode::kWrite),
                Status::kOk);
      spec::GDI_Batch batch;
      EXPECT_EQ(spec::GDI_StartBatch(&batch, txn), Status::kOk);
      spec::GDI_Future<spec::GDI_VertexUid> f_vid;
      spec::GDI_Future<spec::GDI_VertexHolder> f_vh;
      EXPECT_EQ(spec::GDI_TranslateVertexIDNb(&f_vid, 4, batch), Status::kOk);
      EXPECT_EQ(spec::GDI_FindVertexNb(&f_vh, 4, batch), Status::kOk);
      EXPECT_EQ(spec::GDI_Execute(batch), Status::kOk);
      EXPECT_TRUE(f_vid.ok());
      EXPECT_TRUE(f_vh.ok());

      spec::GDI_Batch batch2;
      EXPECT_EQ(spec::GDI_StartBatch(&batch2, txn), Status::kOk);
      spec::GDI_Future<std::vector<EdgeDesc>> f_edges;
      spec::GDI_Future<std::vector<PropValue>> f_props;
      spec::GDI_Future<std::monostate> f_write;
      EXPECT_EQ(spec::GDI_GetEdgesOfVertexNb(&f_edges, spec::GDI_EDGE_ALL, *f_vh, batch2),
                Status::kOk);
      EXPECT_EQ(spec::GDI_GetPropertiesOfVertexNb(&f_props, pt, *f_vh, batch2),
                Status::kOk);
      EXPECT_EQ(spec::GDI_UpdatePropertyOfVertexNb(&f_write, PropValue{std::int64_t{55}},
                                                   pt, *f_vh, batch2),
                Status::kOk);
      EXPECT_EQ(spec::GDI_Execute(batch2), Status::kOk);
      EXPECT_TRUE(f_edges.ok());
      EXPECT_TRUE(f_props.ok());
      EXPECT_TRUE(f_write.ok());
      EXPECT_FALSE(f_edges->empty());
      EXPECT_EQ(std::get<std::int64_t>((*f_props)[0]), 4 * 7);
      EXPECT_EQ(spec::GDI_CloseTransaction(&txn), Status::kOk);
    }
    self.barrier();
  });
}

// ---------------------------------------------------------------------------
// Batched creates (write-side insert stream)
// ---------------------------------------------------------------------------

TEST(AsyncApi, BatchedCreateStreamCommitsAndPublishes) {
  rma::Runtime rt(2);
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg());
    build_graph(db, self);
    // A batch of creates: the existence checks share one DHT multi-lookup;
    // kAlreadyExists (existing id 3, and a duplicate within the batch) fails
    // only its future; commit publishes the survivors via one insert_many.
    if (self.id() == 0) {
      Transaction w(db, self, TxnMode::kWrite);
      BatchScope scope = w.batch();
      auto a = scope.create(1000);
      auto dup_existing = scope.create(3);
      auto b = scope.create(1001);
      auto dup_in_batch = scope.create(1000);
      auto c = scope.create(1002);
      EXPECT_EQ(scope.execute(), Status::kOk);
      EXPECT_TRUE(a.ok());
      EXPECT_TRUE(b.ok());
      EXPECT_TRUE(c.ok());
      EXPECT_EQ(dup_existing.status(), Status::kAlreadyExists);
      EXPECT_EQ(dup_in_batch.status(), Status::kAlreadyExists);
      // Created handles are usable before commit, like create_vertex's.
      EXPECT_EQ(w.add_label(*a, 1), Status::kOk);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    self.barrier();
    // Visible on every rank afterwards, with the blocking path.
    {
      Transaction r(db, self, TxnMode::kRead);
      for (std::uint64_t id : {1000ull, 1001ull, 1002ull}) {
        auto vh = r.find_vertex(id);
        EXPECT_TRUE(vh.ok()) << id;
      }
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    self.barrier();
    // Spec binding round trip.
    if (self.id() == 1) {
      spec::GDI_Transaction txn;
      EXPECT_EQ(spec::GDI_StartTransaction(&txn, db, self), Status::kOk);
      spec::GDI_Batch batch;
      EXPECT_EQ(spec::GDI_StartBatch(&batch, txn), Status::kOk);
      spec::GDI_Future<VertexHandle> f_new;
      EXPECT_EQ(spec::GDI_CreateVertexNb(&f_new, 2000, batch), Status::kOk);
      EXPECT_EQ(spec::GDI_Execute(batch), Status::kOk);
      EXPECT_TRUE(f_new.ok());
      EXPECT_EQ(spec::GDI_CloseTransaction(&txn), Status::kOk);
      auto check = Transaction(db, self, TxnMode::kRead).find_vertex(2000);
      EXPECT_TRUE(check.ok());
    }
    self.barrier();
  });
}

TEST(AsyncApi, BatchedCreateMatchesSerialCreateState) {
  // The same create stream through BatchScope::create and through blocking
  // create_vertex must leave identical translations behind.
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto serial_db = Database::create(self, make_cfg());
    auto batched_db = Database::create(self, make_cfg());
    {
      Transaction w(serial_db, self, TxnMode::kWrite);
      for (std::uint64_t id = 0; id < 24; ++id) EXPECT_TRUE(w.create_vertex(id).ok());
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    {
      Transaction w(batched_db, self, TxnMode::kWrite);
      BatchScope scope = w.batch();
      std::vector<Future<VertexHandle>> futs;
      for (std::uint64_t id = 0; id < 24; ++id) futs.push_back(scope.create(id));
      EXPECT_EQ(scope.execute(), Status::kOk);
      for (auto& f : futs) EXPECT_TRUE(f.ok());
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    Transaction rs(serial_db, self, TxnMode::kRead);
    Transaction rb(batched_db, self, TxnMode::kRead);
    for (std::uint64_t id = 0; id < 24; ++id) {
      auto a = rs.translate_vertex_id(id);
      auto b = rb.translate_vertex_id(id);
      EXPECT_EQ(a.ok(), b.ok()) << id;
      if (a.ok() && b.ok()) {
        // Same allocation order => same internal IDs.
        EXPECT_EQ(a->raw(), b->raw()) << id;
      }
    }
  });
}

}  // namespace
}  // namespace gdi
