// Figure 2: memory capacity usage over time for the two CloudSuite
// workloads - In-memory Analytics (ALS, left panel) and Graph Analytics
// (PageRank, right panel).
//
// Paper findings to reproduce in shape: usage ramps during data ingest and
// saturates (52.3 GiB for In-memory Analytics, 123.8 GiB for PageRank);
// peak utilisation of the 256 GiB node is 20.4% and 48.4% respectively.
// The dataset is laptop-scale; allocation sizes are reported through a
// scale factor and the time axis is normalised to the paper's span, so the
// ramp and saturation points compare directly with the paper's plot.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "common/units.hpp"
#include "core/session.hpp"
#include "workloads/inmem_als.hpp"
#include "workloads/pagerank.hpp"

namespace {

constexpr std::uint64_t kNodeBudget = 256ull << 30;  // Table II: 256 GB.

void run_capacity(const char* title, nmo::wl::Workload& workload, double paper_span_s) {
  nmo::core::NmoConfig nmo;
  nmo.enable = true;
  nmo.mode = nmo::core::Mode::kCapacity;
  nmo.track_rss = true;

  nmo::sim::EngineConfig engine;
  engine.threads = 32;  // paper: 32 cores per CloudSuite container
  engine.machine.hierarchy.cores = 32;
  // Container share of the 16 MiB system-level cache (32 of 128 cores).
  engine.machine.hierarchy.slc.size_bytes = 4 * nmo::kMiB;
  engine.tick_interval_ns = 100'000;

  nmo::core::ProfileSession session(nmo, engine);
  session.profile(workload, /*with_baseline=*/false);

  const auto& cap = session.profiler().capacity();
  const auto& series = cap.series();
  std::printf("\n-- %s --\n", title);
  if (series.empty()) {
    std::printf("  (no samples)\n");
    return;
  }
  const double span_ns = static_cast<double>(series.back().time_ns);
  const double tscale = span_ns > 0 ? paper_span_s / (span_ns * 1e-9) : 1.0;
  nmo::bench::print_row({"time(s,scaled)", "usage(GiB)", "bar"}, 18);
  const std::size_t stride = std::max<std::size_t>(1, series.size() / 24);
  for (std::size_t i = 0; i < series.size(); i += stride) {
    char t[32], g[32];
    std::snprintf(t, sizeof(t), "%.1f",
                  static_cast<double>(series[i].time_ns) * 1e-9 * tscale);
    const double gib = static_cast<double>(series[i].live_bytes) /
                       static_cast<double>(1ull << 30);
    std::snprintf(g, sizeof(g), "%.1f", gib);
    std::string bar(static_cast<std::size_t>(std::min(gib / 3.0, 45.0)), '#');
    nmo::bench::print_row({t, g, bar}, 18);
  }
  std::printf("peak usage      : %.1f GiB\n",
              static_cast<double>(cap.peak_bytes()) / static_cast<double>(1ull << 30));
  std::printf("peak utilisation: %s of the 256 GiB node\n",
              nmo::bench::pct(cap.peak_utilization(kNodeBudget)).c_str());
}

}  // namespace

int main() {
  nmo::bench::banner("Figure 2", "temporal memory capacity usage (CloudSuite workloads)");

  nmo::wl::AlsConfig als_cfg;
  als_cfg.users = 24'000;
  als_cfg.ratings_per_user = 50;
  als_cfg.iterations = 4;
  als_cfg.report_scale = 1630;  // maps the dataset onto the paper's 52.3 GiB
  nmo::wl::InMemAnalytics als(als_cfg);
  run_capacity("In-memory Analytics (ALS)   [paper: saturates at 52.3 GiB, 20.4%]", als, 121.0);

  nmo::wl::PageRankConfig pr_cfg;
  pr_cfg.nodes_log2 = 18;
  pr_cfg.edges_per_node = 14;
  pr_cfg.iterations = 8;
  pr_cfg.report_scale = 6200;  // maps the dataset onto the paper's 123.8 GiB
  nmo::wl::PageRank pr(pr_cfg);
  run_capacity("Graph Analytics (Page Rank) [paper: saturates at 123.8 GiB, 48.4%]", pr, 25.0);
  return 0;
}
