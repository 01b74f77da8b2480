// Statistical workload profiles.
//
// The sensitivity sweeps of Figures 7-11 cover up to ~10^10 operations per
// configuration; simulating them access-by-access is wasteful because the
// SPE behaviour between two sample selections depends only on aggregate
// workload statistics.  A WorkloadProfile captures those statistics per
// execution phase - operation counts, instruction mix, memory-level mix -
// and the statistical driver (stat_driver.hpp) jumps from selection to
// selection.  Profiles are plain data written by hand; the built-in ones
// for the paper's workloads live in profiles.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nmo::sim {

struct PhaseProfile {
  std::string name;
  /// Total memory operations in this phase, summed over all threads.
  std::uint64_t mem_ops = 0;
  /// Decoded non-memory operations per memory operation (instruction mix).
  double nonmem_per_mem = 2.0;
  /// Probability that an access is serviced by L1/L2/SLC/DRAM.
  std::array<double, kNumMemLevels> level_mix{0.90, 0.05, 0.03, 0.02};
  double store_frac = 0.30;
  double tlb_miss_rate = 0.001;
  /// False for serial phases that run on a single thread.
  bool parallel = true;
};

struct WorkloadProfile {
  std::string name;
  std::vector<PhaseProfile> phases;
  /// Address range sampled records draw from (region figures only).
  Addr addr_base = 0x4000'0000;
  std::uint64_t addr_span = 1ull << 30;

  [[nodiscard]] std::uint64_t total_mem_ops() const {
    std::uint64_t total = 0;
    for (const auto& p : phases) total += p.mem_ops;
    return total;
  }

  /// Uniformly scales all phase op counts (sweeps use this to trade run
  /// time for statistical resolution).
  void scale_ops(double factor) {
    for (auto& p : phases) {
      p.mem_ops = static_cast<std::uint64_t>(static_cast<double>(p.mem_ops) * factor);
    }
  }
};

/// Built-in calibrated profiles for the five paper workloads.  Op counts
/// are ~10x below the paper's testbed runs so that a full figure sweep
/// completes in seconds; every trend is preserved (the paper-shape checks
/// in tests/test_paper_properties.cpp run on these profiles).
namespace profiles {
WorkloadProfile stream();           ///< STREAM triad: bandwidth-bound.
WorkloadProfile cfd();              ///< Rodinia CFD: bandwidth-bound, irregular.
WorkloadProfile bfs();              ///< Rodinia BFS: cache-resident, high IPC.
WorkloadProfile pagerank();         ///< CloudSuite Graph Analytics (Page Rank).
WorkloadProfile inmem_analytics();  ///< CloudSuite In-memory Analytics (ALS).
}  // namespace profiles

}  // namespace nmo::sim
