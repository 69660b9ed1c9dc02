#include "common.hpp"

#include <fstream>
#include <latch>
#include <thread>

#include "gdi/bulk.hpp"

namespace perfbench {

using namespace gdi;

std::size_t write_chrome_trace(const std::string& path) {
  std::ofstream f(path);
  if (!f) return 0;
  double t0 = -1;
  for (const auto& b : Tracer::get().buffers())
    for (const auto& s : b->spans)
      if (t0 < 0 || s.start_ns < t0) t0 = s.start_ns;
  std::size_t n = 0;
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (const auto& b : Tracer::get().buffers()) {
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRec& s = b->spans[i];
      f << (n == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << b->tid
        << ",\"ts\":" << (s.start_ns - t0) / 1e3
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1e3 << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}}";
      ++n;
    }
  }
  f << "\n]}\n";
  return n;
}

std::map<std::string, LayerTime> layer_self_times() {
  std::map<std::string, LayerTime> out;
  for (const auto& b : Tracer::get().buffers()) {
    std::vector<double> child(b->spans.size(), 0.0);
    for (const auto& s : b->spans)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRec& s = b->spans[i];
      LayerTime& lt = out[s.layer];
      const double dur = s.end_ns - s.start_ns;
      lt.total_ms += dur / 1e6;
      lt.self_ms += std::max(0.0, dur - child[i]) / 1e6;
      lt.spans += 1;
    }
  }
  return out;
}

DatabaseConfig server_config(const gen::LpgConfig& g, int nranks, std::size_t block_size) {
  DatabaseConfig c;
  c.shared_cache = true;
  c.scache_policy = cache::ScachePolicy::k2Q;
  c.scache_write_through = true;
  c.commit_pipeline = true;
  c.block.block_size = block_size;
  const auto per_rank = g.num_vertices() / static_cast<std::uint64_t>(nranks) + 64;
  // Holders, their growth under edge inserts, and the property region.
  c.block.blocks_per_rank =
      per_rank * (2 + (static_cast<std::uint64_t>(g.edge_factor) * 2 * 24 + 64) / block_size) +
      8192;
  c.dht = gen::recommended_dht_config(g, nranks);
  c.index_capacity_per_rank = per_rank * 2 + 4096;
  return c;
}

LoadedGraph load_graph(rma::Rank& self, const gen::LpgConfig& g0, const DatabaseConfig& cfg) {
  LoadedGraph out;
  gen::LpgConfig g = g0;
  g.labels_per_vertex = 0;
  g.props_per_vertex = 0;
  out.db = Database::create(self, cfg);
  PropertyType pd{.name = "val", .dtype = Datatype::kInt64};
  out.pt = *out.db->create_ptype(self, pd);

  self.barrier();
  const double t0 = wall_ns();
  gen::KroneckerGenerator kg(g, {}, {});
  auto slice = kg.generate_local(self);
  for (auto& v : slice.vertices)
    v.props.emplace_back(out.pt, encode_value(PropValue{initial_value(v.app_id)}));
  self.barrier();
  const double t1 = wall_ns();
  BulkLoader loader(out.db, self);
  auto st = loader.load(slice.vertices, slice.edges);
  out.ok = !self.allreduce_or(!st.ok());
  out.edges_skipped = self.allreduce_sum(st.ok() ? st->edges_skipped : std::uint64_t{0});
  const double t2 = wall_ns();
  out.gen_s = (t1 - t0) / 1e9;
  out.load_s = (t2 - t1) / 1e9;
  return out;
}

bool read_int_prop(const std::shared_ptr<Database>& db, rma::Rank& self, std::uint32_t pt,
                   std::uint64_t k, std::int64_t* v) {
  Transaction txn(db, self, TxnMode::kRead);
  auto vh = txn.find_vertex(k);
  if (!vh.ok()) return false;
  auto p = txn.get_properties(*vh, pt);
  (void)txn.commit();
  if (!p.ok() || p->empty()) return false;
  const auto* x = std::get_if<std::int64_t>(&p->front());
  if (x == nullptr) return false;
  *v = *x;
  return true;
}

double host_probe_s(int threads) {
  constexpr std::size_t kWords = 1 << 16;  // 512 KiB per thread
  constexpr int kPasses = 100;
  Samples reps;
  for (int rep = 0; rep < 3; ++rep) {
    std::latch start(threads + 1);
    std::vector<std::uint64_t> sink(static_cast<std::size_t>(threads), 0);
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t)
      ts.emplace_back([&, t] {
        std::vector<std::uint64_t> buf(kWords, static_cast<std::uint64_t>(t) + 1);
        start.arrive_and_wait();
        std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(t);
        for (int p = 0; p < kPasses; ++p)
          for (std::size_t i = 0; i < kWords; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            buf[(i * 7919 + x) & (kWords - 1)] += x;
          }
        sink[static_cast<std::size_t>(t)] = buf[x & (kWords - 1)] + x;
      });
    start.arrive_and_wait();
    const double t0 = wall_ns();
    for (auto& th : ts) th.join();
    reps.add((wall_ns() - t0) / 1e9);
    if (sink[0] == 42) reps.add(0);  // keeps the work observable
  }
  return reps.median();
}

rma::OpCounters global_delta(rma::Rank& self, const rma::OpCounters& since) {
  const auto all = self.allgather(self.counters().delta(since));
  rma::OpCounters sum;
  for (const auto& c : all) sum += c;
  return sum;
}

}  // namespace perfbench
