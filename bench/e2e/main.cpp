// nmo-e2e: one workload of the end-to-end host benchmark per process.
//
//   nmo-e2e --workload NAME [--seed N] [--seconds S] [--traced]
//           [--trace-out FILE] [--work DIR] [--smoke] [--corrupt mirror|query]
//
// Prints a human summary (metrics, and the stage table of a traced run)
// followed by one JSON line holding every metric with its unit plus the
// check tally.  Exit codes: 0 = every check passed, 1 = a check or
// operation failed, 2 = usage.  run.py drives this binary; see README.md.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using nmo::e2e::Options;
using nmo::e2e::Result;
using nmo::e2e::Tracer;

struct WorkloadEntry {
  const char* name;
  Result (*run)(const Options&, Tracer&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"capture_stream", nmo::e2e::run_capture_stream},
    {"capture_cfd", nmo::e2e::run_capture_cfd},
    {"store_query", nmo::e2e::run_store_query},
    {"fleet_sessions", nmo::e2e::run_fleet_sessions},
    {"paper_sweep", nmo::e2e::run_paper_sweep},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] [--traced] "
               "[--trace-out FILE] [--work DIR] [--smoke] [--corrupt mirror|query]\n"
               "workloads:",
               argv0);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// JSON string body for a check message (quotes and control bytes dropped).
std::string json_safe(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void print_stage_table(const Tracer& tracer, const Result& result) {
  double wall = 0.0;
  for (const auto& r : result.rounds) {
    if (r.traced) wall += r.wall_s;
  }
  if (wall <= 0.0) return;
  std::printf("\nstage table (traced rounds, wall %.3f s)\n", wall);
  std::printf("%-22s %8s %12s %12s %8s\n", "span", "count", "total_s", "self_s", "wall%");
  for (const auto& row : tracer.stage_table()) {
    std::printf("%-22s %8llu %12.6f %12.6f %7.2f%%%s\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count), row.total_s, row.self_s,
                row.total_s / wall * 100.0, row.top_level ? "" : "  (nested)");
  }
  std::printf("top-level spans cover %.2f%% of traced wall; tracing overhead %.2f%% "
              "(traced vs untraced rounds), span recording %.4f%% of traced wall\n",
              result.get("trace.reconcile_pct"), result.get("trace.overhead_pct"),
              result.get("trace.span_cost_pct"));
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Blocks of 1 MiB and more (workload arrays, trace buffers) come from
  // mmap and go back to the OS when freed.  By default glibc raises this
  // threshold after the first such free, and the arenas of the threads each
  // run_sessions call starts then keep a varying 0-45 MiB per round, so the
  // whole run's peak RSS moved 20% between runs of unchanged code.  Pinned,
  // peak_rss_mb tracks live memory; it costs 8-17% of throughput (page
  // faults on every large allocation).
  ::mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace-out" && has_value) {
      opts.trace_out = argv[++i];
    } else if (arg == "--work" && has_value) {
      opts.work_dir = argv[++i];
    } else if (arg == "--corrupt" && has_value) {
      opts.corrupt = argv[++i];
    } else if (arg == "--traced") {
      opts.traced = true;
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  const WorkloadEntry* entry = nullptr;
  for (const auto& w : kWorkloads) {
    if (opts.workload == w.name) entry = &w;
  }
  if (entry == nullptr || !(opts.seconds >= 0.0) ||
      (!opts.corrupt.empty() && opts.corrupt != "mirror" && opts.corrupt != "query")) {
    return usage(argv[0]);
  }
  if (opts.work_dir.empty()) opts.work_dir = "nmo-e2e-work-" + opts.workload;

  nmo::e2e::remove_tree(opts.work_dir);
  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);
  Tracer tracer;
  const auto t0 = nmo::e2e::Clock::now();
  Result result = entry->run(opts, tracer);
  const double wall = nmo::e2e::seconds_since(t0);
  nmo::e2e::remove_tree(opts.work_dir);

  std::printf("== %s: seed %llu, %zu rounds in %.3f s, %llu/%llu checks failed ==\n",
              entry->name, static_cast<unsigned long long>(opts.seed), result.rounds.size(), wall,
              static_cast<unsigned long long>(result.checks.failed()),
              static_cast<unsigned long long>(result.checks.attempted()));
  for (const auto& failure : result.checks.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const auto attempted = static_cast<double>(result.checks.attempted());
  result.set("error_rate",
             attempted > 0 ? static_cast<double>(result.checks.failed()) / attempted : 1.0,
             "ratio");
  for (const auto& m : result.metrics) {
    // Per-layer names carry a layer prefix ("sim.", "store.", ...); a plain
    // run measures none of them, so its summary leaves them out.
    if (!opts.traced && m.name.find('.') != std::string::npos) continue;
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (opts.traced) {
    print_stage_table(tracer, result);
    if (!opts.trace_out.empty() && !tracer.write_chrome(opts.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", opts.trace_out.c_str());
      return 1;
    }
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"rounds\": %zu, \"wall_s\": %.17g, "
              "\"attempted\": %llu, \"failed\": %llu, \"failures\": [",
              entry->name, static_cast<unsigned long long>(opts.seed), result.rounds.size(), wall,
              static_cast<unsigned long long>(result.checks.attempted()),
              static_cast<unsigned long long>(result.checks.failed()));
  for (std::size_t i = 0; i < result.checks.failures().size(); ++i) {
    std::printf("%s\"%s\"", i > 0 ? ", " : "", json_safe(result.checks.failures()[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return result.checks.failed() == 0 ? 0 : 1;
}
