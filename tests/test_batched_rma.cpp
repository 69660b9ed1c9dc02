// Tests for the nonblocking batched RMA engine, the vectored/multi-lookup
// read paths built on it, and the per-transaction block cache.
//
// Invariants pinned here:
//  * batched reads return byte-identical results to the sequential path;
//  * an overlapped batch is charged less than the serial sum of latencies;
//  * the block cache never serves stale data after a same-transaction write;
//  * the DHT free-list survives concurrent insert/erase hammering (tagged-
//    pointer ABA protection on alloc_entry/dealloc_entry).
//
// NOTE: inside Runtime::run all assertions must be EXPECT_* (non-fatal);
// a fatal ASSERT would return from one rank's lambda and deadlock the team.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "gdi/gdi.hpp"

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

// ---------------------------------------------------------------------------
// Window-level batch engine
// ---------------------------------------------------------------------------

TEST(BatchedRma, NbGetsMatchBlockingGetsAndCostLess) {
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto win = rma::Window::create(self, 1 << 16);
    constexpr int kOps = 32;
    constexpr std::size_t kBytes = 64;
    if (self.id() == 1) {
      for (int i = 0; i < kOps; ++i) {
        std::vector<std::byte> src(kBytes, static_cast<std::byte>(i + 1));
        win->put(self, src.data(), kBytes, 1, i * kBytes);
      }
    }
    self.barrier();
    if (self.id() == 0) {
      // Sequential blocking gets.
      std::vector<std::byte> seq(kOps * kBytes);
      self.reset_clock();
      for (int i = 0; i < kOps; ++i)
        win->get(self, seq.data() + i * kBytes, kBytes, 1, i * kBytes);
      const double t_seq = self.sim_time_ns();

      // Same reads as one nonblocking batch.
      std::vector<std::byte> bat(kOps * kBytes);
      self.reset_clock();
      self.reset_counters();
      for (int i = 0; i < kOps; ++i)
        (void)win->get_nb(self, bat.data() + i * kBytes, kBytes, 1, i * kBytes);
      EXPECT_EQ(self.pending_nb_ops(), static_cast<std::uint64_t>(kOps));
      const std::uint64_t completed = self.flush_all();
      const double t_bat = self.sim_time_ns();

      EXPECT_EQ(completed, static_cast<std::uint64_t>(kOps));
      EXPECT_EQ(self.pending_nb_ops(), 0u);
      EXPECT_EQ(std::memcmp(seq.data(), bat.data(), seq.size()), 0)
          << "batched reads must be byte-identical to sequential reads";
      EXPECT_LT(t_bat, t_seq / 2.0) << "overlapped batch must beat serial latency sum";
      EXPECT_EQ(self.counters().nb_gets, static_cast<std::uint64_t>(kOps));
      EXPECT_EQ(self.counters().batches, 1u);
      EXPECT_EQ(self.counters().max_batch_ops, static_cast<std::uint64_t>(kOps));
    }
    self.barrier();
  });
}

TEST(BatchedRma, QueueDepthBoundsOverlap) {
  rma::NetParams p = rma::NetParams::xc40();
  p.nic_queue_depth = 4;
  rma::Runtime rt(2, p);
  rt.run([&](rma::Rank& self) {
    auto win = rma::Window::create(self, 4096);
    if (self.id() == 0) {
      std::uint64_t v = 0;
      // 8 ops at depth 4 = 2 rounds of max-alpha.
      self.reset_clock();
      for (int i = 0; i < 8; ++i) (void)win->get_nb(self, &v, 8, 1, 0);
      (void)self.flush_all();
      const double two_rounds = self.sim_time_ns();
      self.reset_clock();
      for (int i = 0; i < 4; ++i) (void)win->get_nb(self, &v, 8, 1, 0);
      (void)self.flush_all();
      const double one_round = self.sim_time_ns();
      const double alpha = p.alpha_remote_ns;
      EXPECT_NEAR(two_rounds - one_round, alpha + 4 * 8 * p.beta_ns_per_byte, 1.0);
    }
    self.barrier();
  });
}

TEST(BatchedRma, EmptyFlushIsFree) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    self.reset_clock();
    EXPECT_EQ(self.flush_all(), 0u);
    EXPECT_EQ(self.sim_time_ns(), 0.0);
    EXPECT_EQ(self.counters().batches, 0u);
  });
}

TEST(BatchedRma, VectoredBlockReadMatchesPerBlockRead) {
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    block::BlockStore bs(2, block::BlockStoreConfig{256, 64});
    std::vector<DPtr> blks;
    for (int i = 0; i < 8; ++i) {
      const DPtr b = bs.acquire(self, static_cast<std::uint32_t>(self.id()));
      EXPECT_FALSE(b.is_null());
      std::vector<std::byte> fill(256, static_cast<std::byte>(self.id() * 100 + i));
      bs.write_block(self, b, fill.data());
      blks.push_back(b);
    }
    auto all = self.allgatherv(blks);  // everyone reads every rank's blocks
    std::vector<std::byte> seq(all.size() * 256), bat(all.size() * 256);
    self.reset_clock();
    for (std::size_t i = 0; i < all.size(); ++i)
      bs.read_block(self, all[i], seq.data() + i * 256);
    const double t_seq = self.sim_time_ns();
    std::vector<block::BlockStore::BlockReadOp> ops;
    for (std::size_t i = 0; i < all.size(); ++i)
      ops.push_back({all[i], bat.data() + i * 256});
    self.reset_clock();
    bs.read_blocks(self, ops);
    const double t_bat = self.sim_time_ns();
    EXPECT_EQ(std::memcmp(seq.data(), bat.data(), seq.size()), 0);
    EXPECT_LT(t_bat, t_seq);
    self.barrier();
  });
}

// ---------------------------------------------------------------------------
// DHT multi-lookup
// ---------------------------------------------------------------------------

TEST(BatchedRma, DhtLookupManyMatchesLookupAndCostsLess) {
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    dht::DistributedHashTable t(2, dht::DhtConfig{64, 1024, 7});
    // Rank 0 inserts even keys only; odd keys must miss.
    if (self.id() == 0)
      for (std::uint64_t k = 0; k < 64; k += 2) EXPECT_TRUE(t.insert(self, k, k * 10));
    self.barrier();
    std::vector<std::uint64_t> keys(64);
    std::iota(keys.begin(), keys.end(), 0);
    self.reset_clock();
    std::vector<std::optional<std::uint64_t>> seq;
    for (std::uint64_t k : keys) seq.push_back(t.lookup(self, k));
    const double t_seq = self.sim_time_ns();
    self.reset_clock();
    auto bat = t.lookup_many(self, keys);
    const double t_bat = self.sim_time_ns();
    EXPECT_EQ(seq.size(), bat.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
      EXPECT_EQ(seq[i], bat[i]) << "key " << keys[i];
    EXPECT_LT(t_bat, t_seq) << "multi-lookup must overlap independent chains";
    self.barrier();
  });
}

TEST(BatchedRma, DhtLookupManyEmptyAndSingleton) {
  rma::Runtime rt(1, rma::NetParams::zero());
  rt.run([&](rma::Rank& self) {
    dht::DistributedHashTable t(1, dht::DhtConfig{16, 64, 3});
    EXPECT_TRUE(t.lookup_many(self, {}).empty());
    EXPECT_TRUE(t.insert(self, 5, 50));
    auto r = t.lookup_many(self, std::vector<std::uint64_t>{5, 6});
    EXPECT_EQ(r[0], std::optional<std::uint64_t>{50});
    EXPECT_EQ(r[1], std::nullopt);
  });
}

// The tagged free-list behind alloc_entry/dealloc_entry: concurrent
// insert/erase churn recycles entries across ranks as fast as possible, the
// classic trigger for ABA on an untagged Treiber stack.
TEST(BatchedRma, DhtConcurrentInsertEraseStress) {
  rma::Runtime rt(4, rma::NetParams::zero());
  rt.run([&](rma::Rank& self) {
    // max_shards=1: the exhaustion check at the end pins the fixed-capacity
    // free-list accounting (growth has its own coverage in test_dht).
    auto t = dht::DistributedHashTable::create(self, dht::DhtConfig{32, 4096, 11, 1});
    const auto r = static_cast<std::uint64_t>(self.id());
    constexpr std::uint64_t kRounds = 300;
    // Shared keys (contended by all ranks) + private keys (this rank only).
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      const std::uint64_t shared_key = i % 7;
      const std::uint64_t private_key = 1000 + r * 1000 + (i % 13);
      EXPECT_TRUE(t->insert(self, shared_key, r * 1'000'000 + i));
      EXPECT_TRUE(t->insert(self, private_key, r));
      (void)t->erase(self, shared_key);
      EXPECT_TRUE(t->erase(self, private_key));
      // Private key fully removed: a lookup must either miss or (transiently,
      // because shared keys collide into the same buckets) never return
      // another rank's private value.
      auto v = t->lookup(self, private_key);
      if (v.has_value()) EXPECT_EQ(*v, r);
    }
    self.barrier();
    // Quiesced: drain leftover shared keys, then the table must be consistent
    // and the free list must still hold every entry we returned.
    if (self.id() == 0) {
      for (std::uint64_t k = 0; k < 7; ++k)
        while (t->erase(self, k)) {
        }
      for (std::uint64_t k = 0; k < 7; ++k) EXPECT_EQ(t->lookup(self, k), std::nullopt);
      for (int rank = 0; rank < 4; ++rank)
        EXPECT_EQ(t->live_entries(self, static_cast<std::uint32_t>(rank)), 0u)
            << "free-list leak on rank " << rank;
      // The heap is fully recycled: we can still allocate every slot.
      for (std::uint64_t i = 0; i < 4096; ++i)
        EXPECT_TRUE(t->insert(self, 77, i)) << "entry " << i << " lost to ABA";
      EXPECT_FALSE(t->insert(self, 77, 9999)) << "heap should now be exhausted";
    }
    self.barrier();
  });
}

// ---------------------------------------------------------------------------
// Transaction-level batched reads & block cache
// ---------------------------------------------------------------------------

struct TraversalDigest {
  std::vector<std::uint64_t> words;
  double sim_ns = 0;
  bool operator==(const TraversalDigest&) const = default;
};

/// Build a small labeled/propertied graph and read it all back; returns a
/// digest of everything read plus the simulated cost. `batched` reads through
/// the frontier APIs (one multi-translate, whole-frontier prefetches); the
/// sequential reference issues every read one holder per call (singleton
/// translate, associate and peek, no prefetch), the blocking shape.
TraversalDigest run_traversal(bool batched) {
  TraversalDigest d;
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg());
    PropertyType pd{.name = "w", .dtype = Datatype::kInt64};
    const std::uint32_t pt = *db->create_ptype(self, pd);
    constexpr std::uint64_t kN = 48;
    {
      Transaction w(db, self, TxnMode::kWrite, TxnScope::kCollective);
      for (std::uint64_t i = static_cast<std::uint64_t>(self.id()); i < kN; i += 2) {
        auto v = w.create_vertex(i);
        EXPECT_TRUE(v.ok());
        EXPECT_EQ(w.add_label(*v, static_cast<std::uint32_t>(i % 5) + 1), Status::kOk);
        EXPECT_EQ(w.add_property(*v, pt, PropValue{std::int64_t(i * 3)}), Status::kOk);
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
    if (self.id() == 0) {
      self.reset_clock();
      Transaction r(db, self, TxnMode::kReadShared);
      std::vector<std::uint64_t> ids(kN);
      std::iota(ids.begin(), ids.end(), 0);
      std::vector<DPtr> vids;
      if (batched) {
        auto r_vids = r.translate_vertex_ids(ids);
        EXPECT_TRUE(r_vids.ok());
        vids = *r_vids;
        r.prefetch_vertices(vids);
      } else {
        for (std::uint64_t id : ids) vids.push_back(*r.translate_vertex_id(id));
      }
      for (std::uint64_t i = 0; i < kN; ++i) {
        const DPtr vid = vids[i];
        EXPECT_FALSE(vid.is_null());
        auto vh = r.associate_vertex(vid);
        EXPECT_TRUE(vh.ok());
        d.words.push_back(*r.app_id_of(*vh));
        auto labels = r.labels_of(*vh);
        for (auto l : *labels) d.words.push_back(l);
        auto props = r.get_properties(*vh, pt);
        for (const auto& p : *props)
          d.words.push_back(static_cast<std::uint64_t>(std::get<std::int64_t>(p)));
        auto edges = r.edges_of(*vh, DirFilter::kAll);
        EXPECT_TRUE(edges.ok());
        std::vector<DPtr> nbrs;
        for (const auto& e : *edges) nbrs.push_back(e.neighbor);
        if (batched) r.prefetch_vertices(nbrs);
        for (DPtr nb : nbrs) d.words.push_back(*r.peek_app_id(nb));
      }
      (void)r.commit();
      d.sim_ns = self.sim_time_ns();
    }
    self.barrier();
  });
  return d;
}

TEST(BatchedRma, TraversalBatchedMatchesSequentialAndIsCheaper) {
  const TraversalDigest seq = run_traversal(/*batched=*/false);
  const TraversalDigest bat = run_traversal(/*batched=*/true);
  EXPECT_EQ(seq.words, bat.words)
      << "batched traversal must read exactly what the sequential path reads";
  EXPECT_LT(bat.sim_ns, seq.sim_ns / 2.0)
      << "batch engine + block cache must cut the simulated read cost >=2x";
}

TEST(BatchedRma, BlockCacheHitsAfterPrefetch) {
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg());
    if (self.id() == 0) {
      {
        Transaction w(db, self, TxnMode::kWrite);
        for (std::uint64_t i = 0; i < 8; ++i) EXPECT_TRUE(w.create_vertex(i).ok());
        EXPECT_EQ(w.commit(), Status::kOk);
      }
      Transaction r(db, self, TxnMode::kReadShared);
      std::vector<std::uint64_t> ids{0, 1, 2, 3, 4, 5, 6, 7};
      auto vids = r.translate_vertex_ids(ids);
      EXPECT_TRUE(vids.ok());
      self.reset_counters();
      r.prefetch_vertices(*vids);
      const auto gets_after_prefetch = self.counters().gets;
      EXPECT_EQ(gets_after_prefetch, 8u) << "one batched GET per holder";
      EXPECT_EQ(self.counters().batches, 1u);
      // Associate + peek are now pure cache hits: no further window GETs.
      for (DPtr vid : *vids) {
        EXPECT_TRUE(r.associate_vertex(vid).ok());
        EXPECT_TRUE(r.peek_app_id(vid).ok());
      }
      EXPECT_EQ(self.counters().gets, gets_after_prefetch);
      EXPECT_GE(self.counters().cache_hits, 8u);
      (void)r.commit();
    }
    self.barrier();
  });
}

TEST(BatchedRma, BlockCacheNeverServesStaleAfterOwnWrite) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg());
    PropertyType pd{.name = "p", .dtype = Datatype::kInt64};
    const std::uint32_t pt = *db->create_ptype(self, pd);
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto v = w.create_vertex(1);
      EXPECT_TRUE(v.ok());
      EXPECT_EQ(w.add_property(*v, pt, PropValue{std::int64_t{10}}), Status::kOk);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    // Same-transaction write-then-read: the cached pre-write block must not
    // shadow the buffered update.
    {
      Transaction w(db, self, TxnMode::kWrite);
      auto v = w.find_vertex(1);  // read path populates the block cache
      EXPECT_TRUE(v.ok());
      auto before = w.get_properties(*v, pt);
      EXPECT_EQ(std::get<std::int64_t>((*before)[0]), 10);
      EXPECT_EQ(w.update_property(*v, pt, PropValue{std::int64_t{20}}), Status::kOk);
      auto after = w.get_properties(*v, pt);
      EXPECT_EQ(std::get<std::int64_t>((*after)[0]), 20) << "stale cached read";
      EXPECT_EQ(*w.peek_app_id(v->vid), 1u);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    // And the committed value is what every later transaction observes.
    {
      Transaction r(db, self, TxnMode::kReadShared);
      auto v = r.find_vertex(1);
      EXPECT_TRUE(v.ok());
      auto props = r.get_properties(*v, pt);
      EXPECT_EQ(std::get<std::int64_t>((*props)[0]), 20);
      (void)r.commit();
    }
  });
}

// The one-holder half of the singleton rule: a call that touches a single
// one-block holder or ID issues blocking ops only -- no nonblocking op, no
// batch, no flush. (A holder with two or more uncached tail blocks reads
// them as one batch.) This is what makes one-holder-per-call reads the
// serial reference of the traversal and heavy-edge tests.
TEST(BatchedRma, SingletonCallsIssueOnlyBlockingOps) {
  rma::Runtime rt(2, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg());
    EXPECT_EQ(db->shared_cache(self), nullptr);
    if (self.id() == 0) {
      {
        Transaction w(db, self, TxnMode::kWrite);
        EXPECT_TRUE(w.create_vertex(1).ok());  // owned by rank 1: remote
        EXPECT_EQ(w.commit(), Status::kOk);
      }
      Transaction r(db, self, TxnMode::kRead);
      const auto expect_blocking = [](const rma::OpCounters& d, const char* call) {
        EXPECT_EQ(d.nb_gets, 0u) << call;
        EXPECT_EQ(d.nb_atomics, 0u) << call;
        EXPECT_EQ(d.batches, 0u) << call;
        EXPECT_EQ(d.flushes, 0u) << call;
      };
      auto c0 = self.counters().snapshot();
      auto vid = r.translate_vertex_id(1);
      EXPECT_TRUE(vid.ok());
      expect_blocking(self.counters().delta(c0), "translate_vertex_id");
      EXPECT_EQ(vid->rank(), 1u);
      c0 = self.counters().snapshot();
      EXPECT_TRUE(r.associate_vertex(*vid).ok());
      const rma::OpCounters d = self.counters().delta(c0);
      expect_blocking(d, "associate_vertex");
      EXPECT_EQ(d.gets, 1u) << "a one-block holder is one blocking GET";
      EXPECT_EQ(r.commit(), Status::kOk);
    }
    self.barrier();
  });
}

// kRead prefetch routes through the batched lock-then-validate path: read
// locks for the whole set are acquired with overlapped CAS rounds *before*
// any holder bytes are read, then the fetches ride one batch. Later
// associate_vertex calls are pure state hits.
TEST(BatchedRma, PrefetchLocksThenFetchesInKReadMode) {
  rma::Runtime rt(1, rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    auto db = Database::create(self, make_cfg());
    {
      Transaction w(db, self, TxnMode::kWrite);
      for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(w.create_vertex(i).ok());
      EXPECT_EQ(w.commit(), Status::kOk);
    }
    {
      Transaction r(db, self, TxnMode::kRead);
      std::vector<std::uint64_t> ids{0, 1, 2, 3};
      auto vids = r.translate_vertex_ids(ids);
      EXPECT_TRUE(vids.ok());
      self.reset_counters();
      r.prefetch_vertices(*vids);
      EXPECT_EQ(self.counters().gets, 4u) << "one batched GET per holder";
      EXPECT_GE(self.counters().nb_atomics, 4u) << "lock CAS rounds are batched";
      for (DPtr vid : *vids) {
        // Mask the version bits: the create-commit bumped each word's
        // version, and readers leave those bits untouched.
        const auto word = db->blocks().lock_word(self, vid);
        EXPECT_EQ(word & ~block::BlockStore::kVersionMask, 1u)
            << "read lock held after prefetch";
      }
      // Associates are now pure hits: no further window GETs.
      const auto gets_before = self.counters().gets;
      for (DPtr vid : *vids) EXPECT_TRUE(r.associate_vertex(vid).ok());
      EXPECT_EQ(self.counters().gets, gets_before);
      EXPECT_EQ(r.commit(), Status::kOk);
      // Commit released the prefetch-taken locks (version bits persist).
      for (DPtr vid : *vids)
        EXPECT_EQ(db->blocks().lock_word(self, vid) & ~block::BlockStore::kVersionMask,
                  0u);
    }
    // A prefetch hint must never doom the transaction: a concurrently held
    // write lock makes the hint skip that vertex; only a *required* access
    // (associate) would report the conflict.
    {
      Transaction r(db, self, TxnMode::kRead);
      std::vector<std::uint64_t> ids{0, 1, 2, 3};
      auto vids = r.translate_vertex_ids(ids);
      EXPECT_TRUE(vids.ok());
      EXPECT_TRUE(db->blocks().try_write_lock(self, (*vids)[0]));  // foreign writer
      r.prefetch_vertices(*vids);
      EXPECT_FALSE(r.failed()) << "hints are soft: no doom on lock conflict";
      // The unlocked vertices were prefetched and are readable.
      for (std::size_t i = 1; i < vids->size(); ++i)
        EXPECT_TRUE(r.associate_vertex((*vids)[i]).ok());
      EXPECT_EQ(r.commit(), Status::kOk);
      db->blocks().write_unlock(self, (*vids)[0]);
    }
    // kWrite ignores the hint: speculative read locks would poison upgrades.
    {
      Transaction w(db, self, TxnMode::kWrite);
      std::vector<std::uint64_t> ids{0, 1, 2, 3};
      auto vids = w.translate_vertex_ids(ids);
      EXPECT_TRUE(vids.ok());
      self.reset_counters();
      w.prefetch_vertices(*vids);
      EXPECT_EQ(self.counters().gets, 0u);
      for (DPtr vid : *vids)
        EXPECT_EQ(db->blocks().lock_word(self, vid) & ~block::BlockStore::kVersionMask,
                  0u);
      EXPECT_EQ(w.commit(), Status::kOk);
    }
  });
}

}  // namespace
}  // namespace gdi
