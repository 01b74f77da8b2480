// The five workloads of the end-to-end host benchmark.  Each runs the closed
// rounds its RoundPlan derives from Options::seconds, checks its outputs,
// and fills the end-to-end metrics (from untraced rounds), the per-layer
// metrics (from traced rounds) and the workload's own detail metrics.  See
// README.md for why each workload exists and which layer metric should move
// which end-to-end metric.
#pragma once

#include "harness.hpp"

namespace nmo::e2e {

/// STREAM captures on the threaded path (2 decode shards, async drain),
/// teed to a loopback collector.
Result run_capture_stream(const Options& opts, Tracer& tracer);
/// CFD captures on the serial decode path with synchronous drain.
Result run_capture_cfd(const Options& opts, Tracer& tracer);
/// Ingest of a generated trace, then a query mix and two full scans.
Result run_store_query(const Options& opts, Tracer& tracer);
/// Many small streamed sessions through run_sessions, then a fleet merge.
Result run_fleet_sessions(const Options& opts, Tracer& tracer);
/// The statistical driver over the Fig. 8 and Fig. 9 grids.
Result run_paper_sweep(const Options& opts, Tracer& tracer);

}  // namespace nmo::e2e
