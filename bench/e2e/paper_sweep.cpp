// paper_sweep: the statistical driver over the paper's headline grids.
//
// One round runs sim::run_with_baseline over the Fig. 8 grid (STREAM, CFD
// and BFS profiles x periods 1000..128000, 32 threads) and the Fig. 9 grid
// (STREAM with 4x the ops, period 4096, aux 4..256 pages) at one seed;
// rounds alternate between the workload's two seeds.  The exact engine,
// store and network do no work.  A traced round splits each pair into its
// two run_statistical calls (baseline, instrumented).
#include <array>
#include <cmath>

#include "analysis/accuracy.hpp"
#include "common/units.hpp"
#include "sim/profile.hpp"
#include "sim/stat_driver.hpp"
#include "workloads.hpp"

namespace nmo::e2e {

namespace {

/// The profile tables of one round: STREAM, CFD, BFS and Fig. 9's
/// paper-scale STREAM (4x the ops), with the grid indexing into them.
struct SweepRig {
  std::array<sim::WorkloadProfile, 4> profiles;
  struct Point {
    std::size_t profile = 0;
    sim::SweepConfig cfg;
  };
  std::vector<Point> grid;
};

SweepRig set_up_sweep(std::uint64_t seed, bool smoke) {
  SweepRig rig;
  rig.profiles = {sim::profiles::stream(), sim::profiles::cfd(), sim::profiles::bfs(),
                  sim::profiles::stream()};
  rig.profiles[3].scale_ops(4.0);
  std::vector<std::uint64_t> periods{1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000};
  std::vector<std::uint64_t> aux_pages{4, 8, 16, 32, 64, 256};
  if (smoke) {
    for (auto& profile : rig.profiles) profile.scale_ops(0.01);
    periods = {4000, 64000};
    aux_pages = {16, 64};
  }
  for (std::size_t profile = 0; profile < 3; ++profile) {
    for (const auto period : periods) {
      SweepRig::Point point;
      point.profile = profile;
      point.cfg.threads = 32;
      point.cfg.period = period;
      point.cfg.seed = seed;
      point.cfg.monitor_round_interval_cycles = 45'000'000;  // Fig. 8's counting-mode monitor
      rig.grid.push_back(point);
    }
  }
  for (const auto pages : aux_pages) {
    SweepRig::Point point;
    point.profile = 3;
    point.cfg.threads = 32;
    point.cfg.period = 4096;
    point.cfg.ring_pages = 9;
    point.cfg.aux_bytes = pages * kSimPageSize;
    point.cfg.seed = seed;
    rig.grid.push_back(point);
  }
  return rig;
}

bool same_result(const sim::StatResult& a, const sim::StatResult& b) {
  return a.mem_counted == b.mem_counted && a.processed_samples == b.processed_samples &&
         a.baseline_ns == b.baseline_ns && a.instrumented_ns == b.instrumented_ns &&
         a.selections == b.selections && a.collision_flags == b.collision_flags &&
         a.dropped_full == b.dropped_full && a.wakeups == b.wakeups;
}

}  // namespace

Result run_paper_sweep(const Options& opts, Tracer& tracer) {
  const std::uint64_t seeds[2] = {opts.seed * 1000, opts.seed * 1000 + 1};
  Result result;
  std::vector<double> items;
  std::vector<double> ops;
  std::vector<double> traced_run_ms;
  std::vector<sim::StatResult> first[2];  ///< First round's results per seed.

  const auto probe = [&](std::uint64_t i) {
    return time_setup([&] { return set_up_sweep(seeds[i % 2], opts.smoke); });
  };
  result.rounds = run_rounds(opts, tracer, RoundPlan{6.4, 2}, [&](Round& round) {
    // Plain runs alternate the seeds round by round.  A traced run keeps
    // each traced round and the untraced round after it on one seed, so
    // the tracing overhead compares equal work.
    const std::size_t which = (opts.traced ? (round.index() + 1) / 2 : round.index()) % 2;
    SweepRig rig;
    round.setup([&] { rig = set_up_sweep(seeds[which], opts.smoke); });
    const auto& grid = rig.grid;

    const sim::MachineConfig machine{};
    std::vector<sim::StatResult> results(grid.size());
    for (std::size_t k = 0; k < grid.size(); ++k) {
      const auto& point = grid[k];
      const auto& profile = rig.profiles[point.profile];
      round.phase("sim.stat_pair", [&] {
        if (!round.traced()) {
          results[k] = sim::run_with_baseline(profile, machine, point.cfg);
          return;
        }
        sim::SweepConfig base_cfg = point.cfg;
        base_cfg.spe_enabled = false;
        sim::StatResult base;
        traced_run_ms.push_back(1e3 * round.phase("sim.stat_run", [&] {
          base = sim::run_statistical(profile, machine, base_cfg);
        }, k));
        traced_run_ms.push_back(1e3 * round.phase("sim.stat_run", [&] {
          results[k] = sim::run_statistical(profile, machine, point.cfg);
        }, k));
        results[k].baseline_ns = base.instrumented_ns;
      }, k);
    }

    round.check([&] {
      for (const auto& r : results) {
        const double accuracy = analysis::accuracy(r);
        result.checks.expect(std::isfinite(accuracy) && accuracy > 0.0 && accuracy <= 1.0 &&
                                 std::isfinite(analysis::time_overhead(r)),
                             "accuracy and overhead finite, accuracy in (0, 1]");
      }
      if (first[which].empty()) {
        first[which] = results;
        return;
      }
      bool same = true;
      for (std::size_t k = 0; k < results.size(); ++k) {
        same = same && same_result(results[k], first[which][k]);
      }
      result.checks.expect(same, "same seed reproduces the grid");
    });
    items.push_back(static_cast<double>(grid.size()));
    ops.push_back(static_cast<double>(grid.size()));
  }, probe);

  // A request is one figure sweep (both grids at one seed).  Single grid
  // points are no steady latency: they span 17 ms to 1.1 s, and the median
  // falls between two points 20% apart.
  set_end_to_end(result, items, ops, round_latencies_ms(result.rounds));
  result.set("sweep_configs_per_s", result.get("throughput_per_s"), "1/s");

  // Modeled results over both seeds' grids (deterministic).
  SpeCounts spe;
  std::size_t points = 0;
  for (const auto& grid : first) {
    for (const auto& r : grid) {
      spe.samples += r.processed_samples;
      spe.selections += r.selections;
      spe.collisions += r.hw_collisions;
      spe.dropped_full += r.dropped_full;
      spe.wakeups += r.wakeups;
      spe.decode_stalls += r.decode_stalls;
      spe.accuracy_pct += analysis::accuracy(r) * 100.0;
      spe.overhead_pct += analysis::time_overhead(r) * 100.0;
      points += 1;
    }
  }
  if (points > 0) {
    spe.accuracy_pct /= static_cast<double>(points);
    spe.overhead_pct /= static_cast<double>(points);
  }
  result.set("accuracy_pct", spe.accuracy_pct, "%");
  result.set("overhead_pct", spe.overhead_pct, "%");
  result.set("stat_run_ms_p50", quantile(traced_run_ms, 0.5), "ms");
  result.set("stat_run_ms_p90", quantile(traced_run_ms, 0.9), "ms");

  set_layer_defaults(result, tracer);
  const double stat_s = tracer.total_s("sim.stat_run");
  result.set("sim.stat_pct", traced_share_pct(result, tracer, "sim.stat_run"), "%");
  if (stat_s > 0.0) {
    result.set("sim.stat_runs_per_s", static_cast<double>(traced_run_ms.size()) / stat_s, "1/s");
  }
  set_spe_layer(result, spe);
  return result;
}

}  // namespace nmo::e2e
