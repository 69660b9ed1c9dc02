// Coverage completions for small public surfaces: DPtr-addressed window
// overloads, counter aggregation, runtime reconfiguration, index diagnostics,
// and histogram rendering.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <type_traits>

#include "gdi/gdi.hpp"
#include "stats/stats.hpp"

namespace gdi {
namespace {

TEST(MiscCoverage, WindowDPtrOverloads) {
  rma::Runtime rt(2);
  rt.run([&](rma::Rank& self) {
    auto win = rma::Window::create(self, 256);
    const DPtr p(1, 64);
    if (self.id() == 0) {
      const std::uint64_t v = 0xC0FFEE;
      win->put(self, &v, 8, p);
      win->atomic_put_u64(self, p, 7);
      EXPECT_EQ(win->atomic_get_u64(self, p), 7u);
      EXPECT_EQ(win->cas_u64(self, p, 7, 9), 7u);
      EXPECT_EQ(win->faa_u64(self, p, 1), 9u);
      std::uint64_t out = 0;
      win->get(self, &out, 8, DPtr(1, 72));
      win->flush_all(self);
    }
    self.barrier();
    if (self.id() == 1) {
      std::uint64_t got = 0;
      win->get(self, &got, 8, static_cast<std::uint32_t>(self.id()), 64);
      EXPECT_EQ(got, 10u);  // 9 + 1 from the FAA
    }
    self.barrier();
  });
}

TEST(MiscCoverage, OpCountersAggregate) {
  rma::OpCounters a;
  a.puts = 1;
  a.gets = 2;
  a.atomics = 3;
  a.bytes_put = 10;
  rma::OpCounters b;
  b.puts = 4;
  b.flushes = 5;
  b.collectives = 6;
  b.remote_ops = 7;
  a += b;
  EXPECT_EQ(a.puts, 5u);
  EXPECT_EQ(a.flushes, 5u);
  EXPECT_EQ(a.total_ops(), 5u + 2u + 3u + 5u + 6u);
  EXPECT_EQ(a.remote_ops, 7u);
}

// operator+= and delta() list every field by hand, so a field one of them
// misses would report zero or cumulative values without any error. Set one
// 8-byte word at a time and check that both operations carry exactly it.
TEST(MiscCoverage, OpCountersArithmeticCoversEveryField) {
  using rma::OpCounters;
  static_assert(std::is_trivially_copyable_v<OpCounters>);
  static_assert(sizeof(OpCounters) % sizeof(std::uint64_t) == 0);
  constexpr std::size_t kWords = sizeof(OpCounters) / sizeof(std::uint64_t);
  const std::size_t high_water = offsetof(OpCounters, max_batch_ops) / sizeof(std::uint64_t);
  const auto with_word = [](std::size_t i, std::uint64_t v) {
    OpCounters c;
    std::memcpy(reinterpret_cast<std::byte*>(&c) + i * sizeof v, &v, sizeof v);
    return c;
  };
  const auto word = [](const OpCounters& c, std::size_t i) {
    std::uint64_t v = 0;
    std::memcpy(&v, reinterpret_cast<const std::byte*>(&c) + i * sizeof v, sizeof v);
    return v;
  };
  for (std::size_t i = 0; i < kWords; ++i) {
    OpCounters sum = with_word(i, 5);
    sum += with_word(i, 7);
    const OpCounters d = with_word(i, 12).delta(with_word(i, 5));
    // max_batch_ops is a high-water mark: += takes the max, delta() keeps
    // the current value.
    EXPECT_EQ(word(sum, i), i == high_water ? 7u : 12u) << "operator+= on word " << i;
    EXPECT_EQ(word(d, i), i == high_water ? 12u : 7u) << "delta() on word " << i;
    for (std::size_t j = 0; j < kWords; ++j) {
      if (j == i) continue;
      EXPECT_EQ(word(sum, j), 0u) << "operator+= leaks word " << i << " into " << j;
      EXPECT_EQ(word(d, j), 0u) << "delta() leaks word " << i << " into " << j;
    }
  }
}

TEST(MiscCoverage, RuntimeNetReconfiguration) {
  rma::Runtime rt(2, rma::NetParams::zero());
  rt.run([&](rma::Rank& self) { EXPECT_EQ(self.net().alpha_remote_ns, 0.0); });
  rt.set_net(rma::NetParams::xc40());
  rt.run([&](rma::Rank& self) {
    EXPECT_GT(self.net().alpha_remote_ns, 0.0);
    EXPECT_EQ(self.runtime().nranks(), 2);
  });
  EXPECT_EQ(rt.collective_stages(), 1);
  EXPECT_EQ(rma::Runtime(1).collective_stages(), 0);
  EXPECT_EQ(rma::Runtime(8).collective_stages(), 3);
}

TEST(MiscCoverage, IndexShardSizeAndCandidates) {
  rma::Runtime rt(2);
  rt.run([&](rma::Rank& self) {
    auto idx = self.collective_make<Index>([&] {
      return std::make_shared<Index>(self.nranks(), IndexDef{{1}, {}}, 8, 0);
    });
    if (self.id() == 0) {
      EXPECT_TRUE(idx->append(self, 1, DPtr(1, 64)));  // remote shard append
      EXPECT_TRUE(idx->append(self, 0, DPtr(0, 64)));
    }
    self.barrier();
    EXPECT_EQ(idx->shard_size(self, 0), 1u);
    EXPECT_EQ(idx->shard_size(self, 1), 1u);
    auto c = idx->candidates(self, 1);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0], DPtr(1, 64));
    self.barrier();
  });
}

TEST(MiscCoverage, HistogramRendering) {
  stats::Histogram h(100, 1e6, 4);
  h.add(500);
  h.add(500);
  h.add(2e5);
  const std::string s = h.to_string();
  EXPECT_NE(s.find("us:"), std::string::npos);
  EXPECT_NE(s.find("2"), std::string::npos);
  // percentile of an empty histogram is defined (0).
  stats::Histogram empty;
  EXPECT_EQ(empty.percentile_ns(50), 0.0);
  EXPECT_EQ(empty.mean_ns(), 0.0);

  // Percentiles use the nearest rank: p covers ceil(p% of n) samples, and
  // never fewer than one, so every answer is the bucket of a real sample.
  const auto occupied = [](const stats::Histogram& hist) {
    std::vector<double> lo;
    for (std::size_t i = 0; i < hist.bucket_count(); ++i)
      if (hist.count(i) > 0) lo.push_back(hist.bucket_lo_ns(i));
    return lo;
  };
  stats::Histogram one;
  one.add(50e3);
  ASSERT_EQ(occupied(one).size(), 1u);
  EXPECT_EQ(one.percentile_ns(50), occupied(one)[0]);
  EXPECT_EQ(one.percentile_ns(99), occupied(one)[0]);
  EXPECT_EQ(one.percentile_ns(0), occupied(one)[0]);
  stats::Histogram three;
  for (double ns : {1e3, 50e3, 900e3}) three.add(ns);
  const auto lo = occupied(three);
  ASSERT_EQ(lo.size(), 3u);
  EXPECT_EQ(three.percentile_ns(50), lo[1]) << "rank 2 of 3 is the 50 us sample";
  EXPECT_EQ(three.percentile_ns(99), lo[2]) << "rank 3 of 3 is the 900 us sample";
  EXPECT_EQ(three.percentile_ns(100), lo[2]);
  // p7 of 100 samples is rank 7 exactly, not the rank above it.
  stats::Histogram hundred;
  for (int i = 0; i < 100; ++i) hundred.add(i < 7 ? 1e3 : 900e3);
  EXPECT_EQ(hundred.percentile_ns(7), lo[0]);
  EXPECT_EQ(hundred.percentile_ns(8), lo[2]);
}

TEST(MiscCoverage, DPtrToString) {
  EXPECT_EQ(DPtr(3, 128).to_string(), "DPtr{r=3,off=128}");
}

TEST(MiscCoverage, BulkLoadStatsAndConfigAccessors) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    DatabaseConfig c;
    c.block.block_size = 256;
    c.block.blocks_per_rank = 256;
    auto db = Database::create(self, c);
    EXPECT_EQ(db->config().block.block_size, 256u);
    EXPECT_EQ(db->blocks().block_size(), 256u);
    EXPECT_EQ(db->blocks().blocks_per_rank(), 256u);
    EXPECT_EQ(db->id_index().config().buckets_per_rank, c.dht.buckets_per_rank);
    EXPECT_EQ(db->nranks(), 1);
    BulkLoader loader(db, self);
    auto stats = loader.load({BulkVertex{5, {}, {}}}, {});
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->vertices_loaded, 1u);
    EXPECT_EQ(stats->edges_loaded, 0u);
    EXPECT_EQ(stats->heavy_edges, 0u);
    EXPECT_GE(stats->blocks_used, 1u);
    Transaction r(db, self, TxnMode::kRead);
    EXPECT_TRUE(r.find_vertex(5).ok());
  });
}

TEST(MiscCoverage, TxnModeAndScopeAccessors) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    DatabaseConfig c;
    c.block.block_size = 256;
    c.block.blocks_per_rank = 64;
    auto db = Database::create(self, c);
    Transaction t(db, self, TxnMode::kReadShared, TxnScope::kCollective);
    EXPECT_EQ(t.mode(), TxnMode::kReadShared);
    EXPECT_EQ(t.scope(), TxnScope::kCollective);
    EXPECT_TRUE(t.active());
    EXPECT_FALSE(t.failed());
    EXPECT_EQ(t.commit(), Status::kOk);
    EXPECT_FALSE(t.active());
  });
}

}  // namespace
}  // namespace gdi
