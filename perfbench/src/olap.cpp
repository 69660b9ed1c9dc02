// olap-suite: the paper's analytics path. P=4 ranks over one bulk-loaded
// Kronecker graph (edge factor 16); no server, socket or WAL.
//
//  * kernel suite, repeated: collective BFS, 2-hop k_hop, PageRank (10
//    iterations), WCC and LCC. wall_kqps / model_kqps report the suite as
//    thousands of processed vertices+edges per second (Graphalytics EVPS:
//    5 kernels x (|V|+|E|) per suite) on each clock.
//  * 2-hop queries: closed-loop collective k_hop(root, 2) from seeded roots;
//    p50_us / p99_us are their model-clock latencies.
// Every kernel result and every query count is checked against the
// single-threaded reference implementations (src/workloads/reference).
#include <cstdio>

#include "common.hpp"
#include "layers.hpp"
#include "workloads/olap.hpp"
#include "workloads/reference.hpp"

namespace perfbench {

using namespace gdi;

namespace {

constexpr int kRanks = 4;
constexpr int kSetups = 7;
/// Large enough that the Kronecker supernodes' edge lists fit one holder.
constexpr std::size_t kBlockSize = 2048;

template <class T>
std::vector<T> gather(rma::Rank& self, std::uint64_t n, const std::vector<T>& shard) {
  const int P = self.nranks();
  auto flat = self.allgatherv(shard);
  std::vector<T> global(n);
  std::size_t pos = 0;
  for (int r = 0; r < P; ++r)
    for (std::uint64_t v = static_cast<std::uint64_t>(r); v < n;
         v += static_cast<std::uint64_t>(P))
      global[v] = flat[pos++];
  return global;
}

struct Reference {
  std::vector<std::uint64_t> bfs;
  std::vector<double> pagerank;
  std::vector<std::uint64_t> wcc;
  std::vector<double> lcc;
  ref::Csr undirected;
};

}  // namespace

RunResult run_olap(const Options& o) {
  RunResult res;
  gen::LpgConfig g;
  g.scale = 12;
  g.edge_factor = 16;
  g.seed = o.seed;
  const std::uint64_t n = g.num_vertices();
  const double evps_per_suite = 5.0 * static_cast<double>(n + g.num_edges());

  // Reference results on one thread, before the ranks start.
  Reference ref;
  std::uint64_t root = 0;
  {
    gen::KroneckerGenerator kg(g, {}, {});
    const auto edges = kg.all_edges();
    ref.undirected = ref::Csr::build(n, edges, true);
    const auto directed = ref::Csr::build(n, edges, false);
    Rng rng(o.seed ^ 0x01a9u);
    do root = rng.below(n); while (ref.undirected.degree(root) == 0);
    ref.bfs = ref::bfs_levels(ref.undirected, root);
    ref.pagerank = ref::pagerank(directed, 10, 0.85);
    ref.wcc = ref::wcc(ref.undirected);
    ref.lcc = ref::lcc(ref.undirected);
  }

  Samples setup_s, suite_wall_evps, suite_model_evps, q_model_us, q_wall_us, traced_evps;
  Samples k_wall[5], k_model[5], k_remote[5];
  std::uint64_t attempted = 0, wrong = 0, q_checked = 0, q_wrong = 0;
  std::uint64_t kernel_checked[5] = {0, 0, 0, 0, 0}, kernel_wrong[5] = {0, 0, 0, 0, 0};
  LayerStats ls;
  rma::OpCounters suite_counters;
  double suite_model_ns = 0;
  std::uint64_t suites = 0;
  bool load_ok = true;

  HostSpeed host;
  rma::Runtime rt(kRanks, rma::NetParams::xc50());
  rt.run([&](rma::Rank& self) {
    const bool lead = self.id() == 0;
    DatabaseConfig cfg = server_config(g, kRanks, kBlockSize);
    // Read-only workload: holders plus a little slack, not the serving
    // workloads' room for inserts (zeroing it would dominate set-up time).
    cfg.block.blocks_per_rank = 3 * (n / kRanks) + 1024;
    LoadedGraph lg;
    for (int s = 0; s < kSetups; ++s) {
      lg = LoadedGraph{};  // release the previous database first
      self.barrier();
      const double t0 = wall_ns();
      lg = load_graph(self, g, cfg);
      self.barrier();
      if (lead) {
        setup_s.add((wall_ns() - t0) / 1e9);
        ls.setup_gen_s = lg.gen_s;
        ls.setup_load_s = lg.load_s;
        load_ok = load_ok && lg.ok && lg.edges_skipped == 0;
      }
    }
    const auto& db = lg.db;

    // Half the budget to suite rounds (at least three), half to queries.
    const double t_start = wall_ns();
    const double suite_deadline = t_start + o.seconds * 0.5e9;
    for (int round = 0;; ++round) {
      const bool go = self.allreduce_or(lead && (round < 3 || wall_ns() < suite_deadline));
      if (!go) break;
      // Probe the host before every suite; the other ranks wait blocked.
      if (lead) host.probes.add(host_probe_s(kRanks));
      self.barrier();
      // The traced run alternates: odd suites record spans, even ones do not.
      const bool traced = o.trace && round % 2 == 1;
      if (lead) Tracer::get().enable(traced);
      double wall_sum = 0, model_sum = 0;
      // Times one kernel (wall on rank 0 between barriers, model from the
      // kernel's own clock reset), then checks its result outside the timing.
      const auto time_kernel = [&](int k, auto&& run, auto&& check) {
        self.barrier();
        const double w0 = wall_ns();
        double model_ns = 0;
        {
          Span sp("workloads", kKernels[k]);
          model_ns = run();
        }
        self.barrier();
        const double w = (wall_ns() - w0) / 1e6;
        const auto counters = self.allgather(self.counters());
        if (lead) {
          rma::OpCounters sum;
          for (const auto& c : counters) sum += c;
          suite_counters += sum;
          suite_model_ns += model_ns;
          k_wall[k].add(w);
          k_model[k].add(model_ns / 1e6);
          k_remote[k].add(static_cast<double>(sum.remote_ops));
          wall_sum += w;
          model_sum += model_ns / 1e6;
          ++attempted;
        }
        check();
      };
      std::uint64_t bad[5] = {0, 0, 0, 0, 0};
      work::ShardResult<std::uint64_t> ru;
      work::ShardResult<double> rd;
      time_kernel(
          0, [&] { ru = work::bfs(db, self, n, root); return ru.sim_time_ns; },
          [&] {
            auto all = gather(self, n, ru.values);
            for (std::uint64_t v = 0; v < n; ++v) bad[0] += all[v] != ref.bfs[v];
          });
      time_kernel(
          1, [&] { ru = work::k_hop(db, self, n, root, 2); return ru.sim_time_ns; },
          [&] {
            const std::uint64_t got = ru.values.empty() ? 0 : ru.values[0];
            bad[1] += got != ref::k_hop_count(ref.undirected, root, 2);
          });
      time_kernel(
          2, [&] { rd = work::pagerank(db, self, n, 10, 0.85); return rd.sim_time_ns; },
          [&] {
            auto all = gather(self, n, rd.values);
            for (std::uint64_t v = 0; v < n; ++v)
              bad[2] += std::abs(all[v] - ref.pagerank[v]) > 1e-9;
          });
      time_kernel(
          3, [&] { ru = work::wcc(db, self, n); return ru.sim_time_ns; },
          [&] {
            auto all = gather(self, n, ru.values);
            for (std::uint64_t v = 0; v < n; ++v) bad[3] += all[v] != ref.wcc[v];
          });
      time_kernel(
          4, [&] { rd = work::lcc(db, self, n); return rd.sim_time_ns; },
          [&] {
            auto all = gather(self, n, rd.values);
            for (std::uint64_t v = 0; v < n; ++v)
              bad[4] += std::abs(all[v] - ref.lcc[v]) > 1e-12;
          });
      if (lead) {
        if (o.inject_wrong && round == 0) bad[0] += 1;
        for (int k = 0; k < 5; ++k) {
          kernel_checked[k] += n;
          kernel_wrong[k] += bad[k];
          wrong += bad[k] != 0;
        }
        (traced ? traced_evps : suite_wall_evps).add(evps_per_suite / (wall_sum / 1e3) / 1e3);
        suite_model_evps.add(evps_per_suite / (model_sum / 1e3) / 1e3);
        ++suites;
      }
    }

    if (lead) Tracer::get().enable(o.trace);
    // Closed-loop 2-hop queries from seeded roots.
    Rng qrng(o.seed ^ 0x2b0bu);
    const double q_deadline = wall_ns() + o.seconds * 0.5e9;
    for (std::uint64_t q = 0;; ++q) {
      const bool go = self.allreduce_or(lead && (q < 1000 || wall_ns() < q_deadline));
      if (!go) break;
      const std::uint64_t qroot = qrng.below(n);  // same stream on every rank
      const double w0 = wall_ns();
      work::ShardResult<std::uint64_t> r;
      {
        Span sp("workloads", "khop_query", q + 1);
        r = work::k_hop(db, self, n, qroot, 2);
      }
      if (lead) {
        q_wall_us.add((wall_ns() - w0) / 1e3);
        q_model_us.add(r.sim_time_ns / 1e3);
        ++attempted;
        ++q_checked;
        const bool bad = r.values.empty() ||
                         r.values[0] != ref::k_hop_count(ref.undirected, qroot, 2);
        q_wrong += bad;
        wrong += bad;
      }
    }
    probe_dht(self, *db, n, o.seed, ls);
    if (lead) Tracer::get().enable(false);
  });

  const double suites_d = static_cast<double>(suites);
  if (o.trace) ls.trace_overhead_frac = 1.0 - ratio(traced_evps.median(), suite_wall_evps.median());
  fill_from_counters(ls, suite_counters, suites_d * 5, 0, suite_model_ns);
  for (int k = 0; k < 5; ++k) {
    ls.olap_wall_ms[k] = k_wall[k].median();
    ls.olap_model_ms[k] = k_model[k].median();
    ls.olap_remote_ops[k] = k_remote[k].median();
  }

  res.attempted = attempted;
  res.failed = wrong;
  host.report(res, setup_s, suite_wall_evps);
  res.add("model_kqps", suite_model_evps.median(), "kreq/s", "model", suite_model_evps.size());
  res.add("p50_us", q_model_us.quantile(0.5), "us", "model", q_model_us.size());
  const bool p99_ok = q_model_us.beyond(0.99) >= 10;
  res.add("p99_us", p99_ok ? q_model_us.quantile(0.99) : 0, "us", "model", q_model_us.size());
  res.add("ok_frac", 1.0 - ratio(static_cast<double>(wrong), static_cast<double>(attempted)),
          "ratio", "-", attempted);
  emit_layers(res, ls);

  res.check("graph loaded without skipped edges", 1, load_ok ? 0 : 1);
  for (int k = 0; k < 5; ++k)
    res.check(std::string("olap ") + kKernels[k] + " matches reference", kernel_checked[k],
              kernel_wrong[k]);
  res.check("2-hop query counts match reference", q_checked, q_wrong);
  res.check("p99 has >= 10 samples beyond it", 1, p99_ok ? 0 : 1);

  res.cfg("ranks", std::to_string(kRanks));
  res.cfg("net_model", "xc50");
  res.cfg("graph", "kronecker scale " + std::to_string(g.scale) + " edge_factor " +
                       std::to_string(g.edge_factor));
  res.cfg("shared_cache", "on, 2Q, write-through");
  res.cfg("commit_pipeline", "on");
  res.cfg("server/net/wal", "off");
  res.cfg("suites", std::to_string(suites));
  res.cfg("queries", std::to_string(q_model_us.size()));
  res.cfg("clock.p50_us/p99_us", "model: 2-hop query latency");
  res.cfg("clock.wall_kqps/model_kqps", "kernel suite, thousand vertices+edges per second");
  std::printf("olap-suite: %llu suites (wall kEVPS p25 %.1f p50 %.1f p75 %.1f), %zu 2-hop "
              "queries, 2-hop wall p50 %.1f us\n",
              static_cast<unsigned long long>(suites), suite_wall_evps.quantile(0.25),
              suite_wall_evps.quantile(0.5), suite_wall_evps.quantile(0.75), q_model_us.size(),
              q_wall_us.quantile(0.5));
  return res;
}

}  // namespace perfbench
