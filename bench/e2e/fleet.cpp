// fleet_sessions: many small streamed sessions through the scheduler.
//
// One round submits the whole job list to run_sessions on host_threads()
// workers, every session teeing its trace to one loopback collector, waits
// for the collector to finalize every mirror, and merges the collected
// traces into one fleet trace.  The jobs cycle STREAM / BFS / CFD with
// per-job seeds, so the same store and network code runs as many small
// traces instead of one large one, plus per-session set-up and the merge.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "net/collector.hpp"
#include "store/region_file.hpp"
#include "store/session_store.hpp"
#include "store/trace_merger.hpp"
#include "store/trace_query.hpp"
#include "workloads.hpp"
#include "workloads/bfs.hpp"
#include "workloads/cfd.hpp"
#include "workloads/stream.hpp"

namespace nmo::e2e {

namespace {

/// When and where each job's session started (its workload factory runs
/// on the worker at session start).  One slot per job: no two workers
/// write the same slot, and run_sessions joins before the slots are read.
struct SessionStart {
  Clock::time_point at;
  std::thread::id worker;
};

std::vector<store::SessionJob> make_jobs(const Options& opts,
                                         std::vector<SessionStart>& starts) {
  const std::size_t count = opts.smoke ? 12 : 120;
  core::NmoConfig nmo;
  nmo.enable = true;
  nmo.mode = core::Mode::kAll;
  nmo.period = 1024;
  sim::EngineConfig engine;
  engine.threads = 4;
  engine.machine.hierarchy.cores = 4;

  starts.assign(count, SessionStart{});
  std::vector<store::SessionJob> jobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto& job = jobs[i];
    job.nmo = nmo;
    job.engine = engine;
    job.engine.seed = opts.seed * 1000 + i;
    const auto started = [&starts, i] {
      starts[i] = {Clock::now(), std::this_thread::get_id()};
    };
    switch (i % 3) {
      case 0: {
        wl::StreamConfig cfg;
        cfg.array_elems = opts.smoke ? std::size_t{1} << 12 : std::size_t{1} << 17;
        cfg.iterations = 1;
        job.name = "stream-" + std::to_string(i);
        job.make_workload = [cfg, started] {
          started();
          return std::make_unique<wl::Stream>(cfg);
        };
        break;
      }
      case 1: {
        wl::BfsConfig cfg;
        cfg.nodes = opts.smoke ? 1u << 10 : 1u << 15;
        cfg.seed = opts.seed + i;
        job.name = "bfs-" + std::to_string(i);
        job.make_workload = [cfg, started] {
          started();
          return std::make_unique<wl::Bfs>(cfg);
        };
        break;
      }
      default: {
        wl::CfdConfig cfg;
        cfg.num_cells = opts.smoke ? std::size_t{1} << 10 : std::size_t{1} << 15;
        cfg.iterations = 1;
        cfg.seed = opts.seed + i;
        job.name = "cfd-" + std::to_string(i);
        job.make_workload = [cfg, started] {
          started();
          return std::make_unique<wl::Cfd>(cfg);
        };
        break;
      }
    }
  }
  return jobs;
}

/// Per-session service time: from a session's start on its worker to the
/// next start on that worker (or to the end of run_sessions).
std::vector<double> service_times_ms(const std::vector<SessionStart>& starts,
                                     Clock::time_point run_end) {
  std::map<std::thread::id, std::vector<Clock::time_point>> by_worker;
  for (const auto& s : starts) by_worker[s.worker].push_back(s.at);
  std::vector<double> times;
  for (auto& [worker, points] : by_worker) {
    std::sort(points.begin(), points.end());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto end = i + 1 < points.size() ? points[i + 1] : run_end;
      times.push_back(std::chrono::duration<double, std::milli>(end - points[i]).count());
    }
  }
  return times;
}

/// The example_multi_session oracle: every local trace read back, region
/// indices remapped into the union table, canonically sorted.
core::SampleTrace expected_merge(const store::MultiSessionRun& run) {
  store::RegionUnion regions;
  std::vector<std::pair<core::SampleTrace, std::optional<std::size_t>>> traces;
  for (const auto& r : run.results) {
    auto read = store::query(r.session.trace_path).run(1);
    std::optional<std::size_t> table;
    if (auto t = store::read_region_file(store::region_path_for(r.session.trace_path))) {
      table = regions.add(std::move(*t));
    }
    traces.emplace_back(std::move(read.samples), table);
  }
  core::SampleTrace expected;
  for (const auto& [trace, table] : traces) {
    const auto remap = table ? regions.mapping(*table) : std::vector<std::int32_t>{};
    for (auto s : trace.samples()) {
      if (s.region >= 0 && static_cast<std::size_t>(s.region) < remap.size()) {
        s.region = remap[static_cast<std::size_t>(s.region)];
      }
      expected.add(s);
    }
  }
  expected.sort_canonical();
  return expected;
}

/// Everything a fleet round sets up before its first submission: the
/// collector, the local session store and the job list pointed at the
/// collector.
struct FleetRig {
  std::unique_ptr<net::Collector> collector;
  std::unique_ptr<store::SessionStore> local;
  std::vector<store::SessionJob> jobs;
  std::string error;
  bool ready = false;
};

FleetRig set_up_fleet(const std::vector<store::SessionJob>& jobs, const std::string& dir) {
  FleetRig rig;
  net::CollectorConfig cc;
  cc.root = dir + "/collected";
  cc.once = static_cast<std::uint32_t>(jobs.size());
  rig.collector = std::make_unique<net::Collector>(cc);
  rig.ready = rig.collector->start(&rig.error);
  rig.local = std::make_unique<store::SessionStore>(dir + "/local");
  rig.jobs = jobs;
  net::StreamConfig stream;
  stream.port = rig.collector->port();
  for (auto& job : rig.jobs) job.stream = stream;
  return rig;
}

}  // namespace

Result run_fleet_sessions(const Options& opts, Tracer& tracer) {
  std::vector<SessionStart> starts;
  const std::vector<store::SessionJob> jobs = make_jobs(opts, starts);
  const auto n = static_cast<double>(jobs.size());

  Result result;
  std::vector<double> items;
  std::vector<double> ops;
  std::vector<double> latencies_ms;
  std::string first_fingerprint;
  double traced_merged = 0.0;
  std::vector<double> waits_p50_pct;
  std::vector<double> waits_p90_pct;
  std::uint32_t peak_occupancy = 0;
  NetCounts net;
  std::uint64_t trace_bytes = 0;
  SpeCounts spe;  // one traced round's sessions

  const auto probe = dir_probe(opts, [&jobs](const std::string& dir, std::uint64_t) {
    return set_up_fleet(jobs, dir);
  });
  result.rounds = run_rounds(opts, tracer, RoundPlan{3.6, 2}, [&](Round& round) {
    const std::string dir = opts.work_dir + "/round-" + std::to_string(round.index());
    FleetRig rig;
    round.setup([&] { rig = set_up_fleet(jobs, dir); });
    result.checks.expect(rig.ready, "collector start: " + rig.error);
    auto& collector = rig.collector;

    store::RunOptions options;
    options.scheduler.max_workers = host_threads();
    store::MultiSessionRun run;
    Clock::time_point run_end;
    const double run_s = round.phase("store.run_sessions", [&] {
      run = store::run_sessions(*rig.local, rig.jobs, options);
      run_end = Clock::now();
    });
    bool mirrored = false;
    round.phase("net.mirror_tail", [&] { mirrored = collector->wait_done(60'000); });
    std::optional<store::MergeStats> merged;
    std::string merge_error;
    round.phase("store.merge", [&] {
      store::TraceMerger merger;
      for (const auto& path : session_traces(dir + "/collected")) merger.add_input(path);
      merged = merger.merge_to(dir + "/merged.nmot");
      merge_error = merger.error();
    });
    round.phase("teardown", [&] { collector->stop(); });
    net.protocol_errors += collector->stats().protocol_errors;
    const std::uint64_t collected_bytes = collector->stats().bytes;

    if (round.traced()) {
      std::vector<double> waits;
      spe = {};
      net.blocks_sent = 0;
      for (const auto& r : run.results) {
        waits.push_back(static_cast<double>(r.queue_wait_ns) / 1e9 / run_s * 100.0);
        spe.add(r.report);
        spe.accuracy_pct += r.report.accuracy() * 100.0 / n;
        net.blocks_sent += r.stream.stream_blocks_sent;
        net.blocks_dropped += r.stream.stream_blocks_dropped;
      }
      waits_p50_pct.push_back(quantile(waits, 0.5));
      waits_p90_pct.push_back(quantile(waits, 0.9));
      peak_occupancy = std::max(peak_occupancy, run.stats.peak_occupancy);
      net.bytes_sent = collected_bytes;
      if (merged) traced_merged += static_cast<double>(merged->samples);
    }

    round.check([&] {
      std::map<std::string, std::string> collected;  // session name -> collected trace
      for (const auto& path : session_traces(dir + "/collected")) {
        const std::string session_dir = std::filesystem::path(path).parent_path().filename();
        collected[session_dir.substr(session_dir.find('-', 8) + 1)] = path;
      }
      if (opts.corrupt == "mirror" && !collected.empty()) {
        flip_middle_byte(collected.begin()->second);
      }
      result.checks.expect(mirrored, "collector finalized every session");
      trace_bytes = 0;
      for (const auto& r : run.results) {
        result.checks.expect(r.error.empty() && r.state == core::SessionState::kDone,
                             "session " + r.session.name + ": " + r.error);
        result.checks.expect(
            r.stream.stream_state == "clean" && r.stream.stream_blocks_dropped == 0,
            "session " + r.session.name + " streamed clean");
        const auto it = collected.find(r.session.name);
        result.checks.expect(
            it != collected.end() && same_file_bytes(it->second, r.session.trace_path),
            "session " + r.session.name + " mirror byte-identical");
        trace_bytes += file_bytes(r.session.trace_path);
      }
      const core::SampleTrace expected = expected_merge(run);
      result.checks.expect(
          merged && merged->samples == expected.size() &&
              merged->fingerprint == expected.fingerprint(),
          "merged fleet trace equals the in-memory canonical merge " + merge_error);
      if (merged && first_fingerprint.empty()) first_fingerprint = merged->fingerprint;
      result.checks.expect(merged && merged->fingerprint == first_fingerprint,
                           "same seed reproduces the fleet trace");
    });
    round.phase("teardown", [&] {
      run = {};
      remove_tree(dir);
    });

    items.push_back(n);
    ops.push_back(n);
    if (round.measured()) {
      for (const double t : service_times_ms(starts, run_end)) latencies_ms.push_back(t);
    }
  }, probe);

  set_end_to_end(result, items, ops, latencies_ms);
  result.set("sessions_per_s", result.get("throughput_per_s"), "1/s");

  set_layer_defaults(result, tracer);
  const double merge_s = tracer.total_s("store.merge");
  result.set("store.run_sessions_pct", traced_share_pct(result, tracer, "store.run_sessions"), "%");
  result.set("store.sched_wait_p50_pct", median(waits_p50_pct), "%");
  result.set("store.sched_wait_p90_pct", median(waits_p90_pct), "%");
  result.set("store.sched_peak_occupancy", peak_occupancy, "count");
  result.set("store.merge_pct", traced_share_pct(result, tracer, "store.merge"), "%");
  if (merge_s > 0.0) {
    result.set("store.merge_msamples_per_s", traced_merged / merge_s / 1e6, "M/s");
  }
  set_net_layer(result, tracer, net);
  set_spe_layer(result, spe);
  if (spe.samples > 0) {
    result.set("store.bytes_per_sample",
               static_cast<double>(trace_bytes) / static_cast<double>(spe.samples), "B");
  }
  return result;
}

}  // namespace nmo::e2e
