// Built-in statistical profiles for the five paper workloads.
//
// Op counts are scaled ~10x below the paper's testbed runs so a full
// figure sweep completes in seconds; the paper-shape checks in
// tests/test_paper_properties.cpp hold at this scale.  Instruction mixes
// and memory-level mixes follow the access patterns of the workload
// implementations in src/workloads:
//
//  * STREAM triad streams three arrays; at 64-byte lines and 8-byte
//    elements one access in eight per array misses all caches, so the
//    DRAM fraction is ~1/8 and everything else hits L1.
//  * CFD (euler3d) streams large unstructured-mesh arrays with indirect
//    neighbour gathers: higher DRAM fraction and more non-memory FP work.
//  * BFS is frontier-based on a CSR graph that largely fits in L2+SLC:
//    cache-resident, high memory-op throughput, almost no DRAM traffic -
//    which is exactly why the paper sees high overhead but almost no
//    collisions for BFS.
//  * PageRank and In-memory Analytics (ALS) model the CloudSuite phase
//    structure: a load/ingest phase followed by iterative compute.
#include "sim/profile.hpp"

namespace nmo::sim::profiles {

WorkloadProfile stream() {
  WorkloadProfile p;
  p.name = "stream";
  p.addr_base = 0x4000'0000;
  p.addr_span = 3ull << 30;  // three 1 GiB arrays
  p.phases = {
      PhaseProfile{
          .name = "init",
          .mem_ops = 150'000'000,
          .nonmem_per_mem = 1.0,
          .level_mix = {0.875, 0.0, 0.0, 0.125},
          .store_frac = 1.0,
          .tlb_miss_rate = 0.002,
          .parallel = true,
      },
      PhaseProfile{
          .name = "triad",
          .mem_ops = 1'700'000'000,
          .nonmem_per_mem = 1.5,
          .level_mix = {0.875, 0.0, 0.0, 0.125},
          .store_frac = 1.0 / 3.0,
          .tlb_miss_rate = 0.002,
          .parallel = true,
      },
  };
  return p;
}

WorkloadProfile cfd() {
  WorkloadProfile p;
  p.name = "cfd";
  p.addr_base = 0x8000'0000;
  p.addr_span = 2ull << 30;
  p.phases = {
      PhaseProfile{
          .name = "mesh-load",
          .mem_ops = 200'000'000,
          .nonmem_per_mem = 1.5,
          .level_mix = {0.82, 0.04, 0.02, 0.12},
          .store_frac = 0.60,
          .tlb_miss_rate = 0.004,
          .parallel = false,
      },
      PhaseProfile{
          .name = "compute-loop",
          .mem_ops = 3'400'000'000,
          .nonmem_per_mem = 3.0,
          .level_mix = {0.80, 0.06, 0.02, 0.12},
          .store_frac = 0.25,
          .tlb_miss_rate = 0.004,
          .parallel = true,
      },
  };
  return p;
}

WorkloadProfile bfs() {
  WorkloadProfile p;
  p.name = "bfs";
  p.addr_base = 0xc000'0000;
  p.addr_span = 512ull << 20;
  p.phases = {
      PhaseProfile{
          .name = "graph-load",
          .mem_ops = 40'000'000,
          .nonmem_per_mem = 1.5,
          .level_mix = {0.86, 0.08, 0.04, 0.02},
          .store_frac = 0.70,
          .tlb_miss_rate = 0.002,
          .parallel = false,
      },
      PhaseProfile{
          .name = "traversal",
          .mem_ops = 360'000'000,
          .nonmem_per_mem = 2.0,
          .level_mix = {0.88, 0.09, 0.02, 0.01},
          .store_frac = 0.15,
          .tlb_miss_rate = 0.001,
          .parallel = true,
      },
  };
  return p;
}

WorkloadProfile pagerank() {
  WorkloadProfile p;
  p.name = "pagerank";
  p.addr_base = 0x10'0000'0000;
  p.addr_span = 124ull << 30;
  p.phases = {
      PhaseProfile{
          .name = "ingest",
          .mem_ops = 900'000'000,
          .nonmem_per_mem = 2.5,
          .level_mix = {0.80, 0.05, 0.03, 0.12},
          .store_frac = 0.65,
          .tlb_miss_rate = 0.01,
          .parallel = true,
      },
      PhaseProfile{
          .name = "rank-iterations",
          .mem_ops = 2'600'000'000,
          .nonmem_per_mem = 2.0,
          .level_mix = {0.78, 0.08, 0.04, 0.10},
          .store_frac = 0.20,
          .tlb_miss_rate = 0.008,
          .parallel = true,
      },
  };
  return p;
}

WorkloadProfile inmem_analytics() {
  WorkloadProfile p;
  p.name = "inmem-analytics";
  p.addr_base = 0x20'0000'0000;
  p.addr_span = 52ull << 30;
  p.phases = {
      PhaseProfile{
          .name = "ratings-load",
          .mem_ops = 500'000'000,
          .nonmem_per_mem = 2.0,
          .level_mix = {0.82, 0.05, 0.03, 0.10},
          .store_frac = 0.60,
          .tlb_miss_rate = 0.006,
          .parallel = true,
      },
      PhaseProfile{
          .name = "als-iterations",
          .mem_ops = 2'000'000'000,
          .nonmem_per_mem = 3.5,
          .level_mix = {0.84, 0.07, 0.03, 0.06},
          .store_frac = 0.25,
          .tlb_miss_rate = 0.004,
          .parallel = true,
      },
  };
  return p;
}

}  // namespace nmo::sim::profiles
