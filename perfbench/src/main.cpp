// gdibench: one binary behind the end-to-end benchmark (perfbench/run.py).
//
//   gdibench --workload wire-readmostly|txn-writeheavy-wal|olap-suite
//            --seed N --seconds S --trace 0|1 --rate-kqps R
//            [--inject-wrong] [--out-dir DIR] [--sha SHA]
//
// Prints human-readable tables, then one JSON object on the last line with
// every metric (value, unit, clock, sample count), every output check, the
// database configuration and the provenance of the build. Exits 1 when any
// output check fails or any request failed, 2 on bad arguments or when the
// workload would need more threads than the host has.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.hpp"

#ifndef GDI_BENCH_BUILD_TYPE
#define GDI_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef GDI_BENCH_CXX_FLAGS
#define GDI_BENCH_CXX_FLAGS ""
#endif

namespace {

using namespace perfbench;

std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(GDI_BENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

bool ndebug() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

std::string loadavg() {
  std::ifstream f("/proc/loadavg");
  std::string a;
  f >> a;
  return a.empty() ? "unknown" : a;
}

/// Threads a workload runs, counting the rank threads.
int workload_threads(const std::string& w) {
  if (w == "wire-readmostly") return 3;     // 2 rank threads + 1 load generator
  if (w == "txn-writeheavy-wal") return 3;  // 2 rank threads + 1 submitter
  if (w == "olap-suite") return 4;          // 4 rank threads
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--seconds") o.seconds = std::stod(next());
    else if (a == "--trace") o.trace = next() != "0";
    else if (a == "--rate-kqps") o.rate_kqps = std::stod(next());
    else if (a == "--inject-wrong") o.inject_wrong = true;
    else if (a == "--out-dir") o.out_dir = next();
    else if (a == "--sha") sha = next();
    else {
      std::cerr << "unknown argument " << a << "\n";
      return 2;
    }
  }
  const int threads = workload_threads(o.workload);
  if (threads < 0) {
    std::cerr << "unknown workload '" << o.workload << "'\n";
    return 2;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc != 0 && static_cast<unsigned>(threads) > nproc) {
    std::cerr << "refusing to run: " << o.workload << " needs " << threads
              << " threads, host has " << nproc << "\n";
    return 2;
  }
  if (o.seconds <= 0 || (o.workload != "olap-suite" && o.rate_kqps <= 0)) {
    std::cerr << "--seconds and --rate-kqps must be positive\n";
    return 2;
  }
  std::filesystem::create_directories(o.out_dir);
  const std::string load_start = loadavg();

  RunResult r;
  if (o.workload == "wire-readmostly") r = run_wire(o);
  else if (o.workload == "txn-writeheavy-wal") r = run_txn(o);
  else r = run_olap(o);

  if (o.trace) {
    const std::string path =
        o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
    const std::size_t spans = write_chrome_trace(path);
    std::uint64_t dropped = 0;
    for (const auto& b : Tracer::get().buffers()) dropped += b->dropped;
    std::printf("\ntrace: %zu spans written to %s (%llu dropped at the per-thread cap)\n",
                spans, path.c_str(), static_cast<unsigned long long>(dropped));
    std::printf("%-12s %12s %12s %10s\n", "layer", "self ms", "total ms", "spans");
    for (const auto& [layer, t] : layer_self_times())
      std::printf("%-12s %12.3f %12.3f %10llu\n", layer.c_str(), t.self_ms, t.total_ms,
                  static_cast<unsigned long long>(t.spans));
    for (const auto& m : r.metrics)
      if (m.name == "trace.overhead_frac")
        std::printf("tracing overhead: %.1f%% of untraced wall throughput\n", m.value * 100);
    r.cfg("trace_file", path);
  }

  bool correct = true;
  for (const auto& c : r.checks) correct = correct && c.failed == 0 && c.checked > 0;
  const bool comparable = (std::string(GDI_BENCH_BUILD_TYPE) == "Release" ||
                           std::string(GDI_BENCH_BUILD_TYPE) == "RelWithDebInfo") &&
                          ndebug() && !sanitized();

  // --- human-readable part --------------------------------------------------
  std::printf("\n%-28s %18s  %-8s %-6s %s\n", "metric", "value", "unit", "clock", "samples");
  for (const auto& m : r.metrics)
    std::printf("%-28s %18.6g  %-8s %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.clock.c_str(), m.samples ? std::to_string(m.samples).c_str() : "");
  std::printf("\n%-36s %10s %8s\n", "output check", "checked", "failed");
  for (const auto& c : r.checks)
    std::printf("%-36s %10llu %8llu\n", c.name.c_str(),
                static_cast<unsigned long long>(c.checked),
                static_cast<unsigned long long>(c.failed));
  if (!comparable)
    std::printf("\nWARNING: %s build (NDEBUG %s, sanitizer %s): end-to-end numbers are "
                "NOT comparable with Release measurements\n",
                GDI_BENCH_BUILD_TYPE, ndebug() ? "on" : "off", sanitized() ? "on" : "off");

  // --- machine-readable last line ------------------------------------------
  std::ostringstream js;
  js << "{\"workload\":" << jstr(o.workload) << ",\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    js << (i ? "," : "") << jstr(m.name) << ":{\"value\":" << jnum(m.value)
       << ",\"unit\":" << jstr(m.unit) << ",\"clock\":" << jstr(m.clock);
    if (m.samples) js << ",\"samples\":" << m.samples;
    js << "}";
  }
  js << "},\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i)
    js << (i ? "," : "") << "{\"name\":" << jstr(r.checks[i].name)
       << ",\"checked\":" << r.checks[i].checked << ",\"failed\":" << r.checks[i].failed << "}";
  js << "],\"config\":{";
  for (std::size_t i = 0; i < r.config.size(); ++i)
    js << (i ? "," : "") << jstr(r.config[i].first) << ":" << jstr(r.config[i].second);
  js << "},\"provenance\":{\"sha\":" << jstr(sha) << ",\"build_type\":"
     << jstr(GDI_BENCH_BUILD_TYPE) << ",\"cxx_flags\":" << jstr(GDI_BENCH_CXX_FLAGS)
     << ",\"ndebug\":" << (ndebug() ? "true" : "false")
     << ",\"sanitizer\":" << (sanitized() ? "true" : "false")
     << ",\"compiler\":" << jstr(std::string("g++ ") + __VERSION__)
     << ",\"nproc\":" << nproc << ",\"threads\":" << threads
     << ",\"loadavg_start\":" << jstr(load_start) << ",\"seed\":" << o.seed
     << ",\"seconds\":" << jnum(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"offered_rate_kqps\":" << jnum(o.rate_kqps)
     << ",\"comparable\":" << (comparable ? "true" : "false") << "}}";
  std::cout << js.str() << std::endl;
  return correct && r.failed == 0 ? 0 : 1;
}
