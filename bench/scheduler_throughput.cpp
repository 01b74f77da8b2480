// Scheduler throughput: sessions/sec of the bounded worker pool
// (store/scheduler.hpp) at increasing worker counts.
//
// Not a paper figure: it characterizes the admission-controlled session
// runner this repo adds for fleet-scale profiled job counts.  The
// questions that matter are (a) how many profiled sessions per second the
// pool sustains at each worker count and (b) that every pool size persists
// byte-identical session traces (asserted every trial via the per-session
// fingerprints, against the first pool configuration's first trial).
//
//   ./bench_scheduler_throughput [sessions] [trials] [--json FILE]
//
// --json writes machine-readable results (one object per pool size) for
// the CI artifact trail.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "store/session_store.hpp"
#include "workloads/stream.hpp"

namespace {

namespace fs = std::filesystem;

std::vector<nmo::store::SessionJob> make_jobs(std::size_t sessions) {
  std::vector<nmo::store::SessionJob> jobs(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    jobs[i].name = "job-" + std::to_string(i);
    jobs[i].nmo.enable = true;
    jobs[i].nmo.mode = nmo::core::Mode::kSample;
    jobs[i].nmo.period = 512;
    jobs[i].engine.threads = 2;
    jobs[i].engine.machine.hierarchy.cores = 2;
    jobs[i].engine.seed = i + 1;
    jobs[i].make_workload = [] {
      nmo::wl::StreamConfig cfg;
      cfg.array_elems = 1 << 13;
      cfg.iterations = 1;
      return std::make_unique<nmo::wl::Stream>(cfg);
    };
  }
  return jobs;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct PoolResult {
  std::uint32_t workers = 0;
  double sessions_per_sec = 0.0;
  double seconds_mean = 0.0;
};

/// Per-session fingerprints in job order; the identity every pool size must
/// reproduce.  A failed session contributes its error text, so two runs
/// failing differently can never compare as identical.
std::vector<std::string> fingerprints_of(const std::vector<nmo::store::SessionResult>& results) {
  std::vector<std::string> fps;
  fps.reserve(results.size());
  for (const auto& r : results) {
    fps.push_back(r.error.empty() ? r.fingerprint : "FAILED: " + r.error);
  }
  return fps;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = 24;
  int trials = 3;
  std::string json_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (argv[i][0] != '-' && positional == 0) {
      sessions = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    } else if (argv[i][0] != '-' && positional == 1) {
      trials = std::atoi(argv[i]);
      ++positional;
    } else {
      std::fprintf(stderr, "usage: %s [sessions > 0] [trials > 0] [--json FILE]\n", argv[0]);
      return 2;
    }
  }
  if (sessions == 0 || trials <= 0) {
    std::fprintf(stderr, "usage: %s [sessions > 0] [trials > 0] [--json FILE]\n", argv[0]);
    return 2;
  }

  nmo::bench::banner("scheduler", "bounded session scheduler: sessions/sec by pool size");
  std::printf("%zu sessions per run, %d trials\n\n", sessions, trials);

  const fs::path root = fs::temp_directory_path() / "nmo_bench_scheduler";
  const auto jobs = make_jobs(sessions);

  std::vector<std::uint32_t> worker_counts = {1, 2, 4};
  const std::uint32_t hw = nmo::store::default_max_workers();
  if (hw > 4) worker_counts.push_back(hw);

  std::vector<PoolResult> pools;
  std::vector<std::string> reference_fps;
  bool identical = true;

  nmo::bench::print_row({"workers", "sessions/s", "seconds"}, 14);

  for (const std::uint32_t workers : worker_counts) {
    nmo::RunningStats secs;
    for (int t = 0; t < trials; ++t) {
      fs::remove_all(root);
      nmo::store::SessionStore store(root.string());
      nmo::store::RunOptions options;
      options.scheduler.max_workers = workers;
      options.scheduler.queue_depth = 0;
      options.scheduler.policy = nmo::store::AdmissionPolicy::kBlock;
      const auto t0 = std::chrono::steady_clock::now();
      const auto run = nmo::store::run_sessions(store, jobs, options);
      secs.add(seconds_since(t0));
      // Every trial of every pool size must reproduce the reference
      // fingerprints (trial 0 of the first pool size); this is the bench's
      // divergence gate, not just its banner.
      const auto fps = fingerprints_of(run.results);
      if (reference_fps.empty()) {
        reference_fps = fps;
      } else if (fps != reference_fps) {
        identical = false;
        std::printf("!! pool(%u) trial %d traces differ from the reference\n", workers, t);
      }
    }
    PoolResult r;
    r.workers = workers;
    r.seconds_mean = secs.mean();
    r.sessions_per_sec = static_cast<double>(sessions) / secs.mean();
    pools.push_back(r);
    char sps[32], sec[32];
    std::snprintf(sps, sizeof(sps), "%.1f", r.sessions_per_sec);
    std::snprintf(sec, sizeof(sec), "%.3f", r.seconds_mean);
    nmo::bench::print_row({std::to_string(workers), sps, sec}, 14);
  }
  fs::remove_all(root);

  std::printf("\nper-session traces %s across pool sizes\n",
              identical ? "byte-identical" : "DIFFER");

  if (!json_path.empty()) {
    std::ofstream json(json_path, std::ios::trunc);
    json << "{\n  \"sessions\": " << sessions << ",\n  \"trials\": " << trials
         << ",\n  \"traces_identical\": " << (identical ? "true" : "false")
         << ",\n  \"pools\": [\n";
    for (std::size_t i = 0; i < pools.size(); ++i) {
      const auto& p = pools[i];
      json << "    {\"workers\": " << p.workers << ", \"sessions_per_sec\": " << p.sessions_per_sec
           << ", \"seconds_mean\": " << p.seconds_mean << "}"
           << (i + 1 < pools.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";
    if (!json) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json -> %s\n", json_path.c_str());
  }
  return identical ? 0 : 1;
}
