// Harness of the end-to-end host benchmark: the closed round loop, the
// in-memory span recorder, correctness checks and the result record each
// workload fills.
//
// Every workload is a closed loop from one client: a *round* is the
// workload's unit of work (one capture, one ingest + query pass, one fleet
// batch, one sweep grid), and the next round starts only when the previous
// one finished.  A round splits into three kinds of time:
//
//   setup   program set-up before the round's first timed operation
//           (reported as setup_s, never counted as work);
//   work    every timed phase, teardown included (what the rates use);
//   check   untimed correctness oracles (excluded from work time and CPU).
//
// Spans are recorded only in traced rounds, from this directory's code
// around each public call into the library; the library itself is never
// instrumented.  A traced run alternates traced and untraced rounds, so the
// difference between the two kinds is the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"

namespace nmo::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (user + system, all threads) in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of the process in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();
/// min(4, CPUs this process may run on): the cap on every host thread
/// count the benchmark configures (workers, decode threads, scan threads).
[[nodiscard]] unsigned host_threads();

/// Median and linear-interpolated quantile (q in [0, 1]) of a sample; 0 for
/// an empty one.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Nominal measured length (see RoundPlan).
  bool traced = false;    ///< Alternate traced and untraced rounds.
  bool smoke = false;     ///< Tiny sizes, every check on.
  std::string work_dir;   ///< Scratch directory for trace files and stores.
  std::string trace_out;  ///< Chrome trace-event file written by a traced run.
  /// Deliberate damage that must make the checks fail: "mirror" flips a
  /// byte of a collected trace, "query" drops a sample from a query result.
  std::string corrupt;
};

/// One recorded span: a timed call into a layer.  Times are seconds since
/// the tracer's epoch; parent is an index into the span list (-1 = top).
struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;  ///< Round, capture, query or session index.
};

/// Per-name aggregate of the recorded spans.
struct StageRow {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< Total minus the time covered by direct children.
  bool top_level = false;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span nested in the innermost open one; -1 while disabled.
  /// `name` must be a string literal (spans keep the pointer).
  std::int32_t open(const char* name, std::uint64_t request);
  void close(std::int32_t span);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total_s(const char* name) const;
  /// Sum of the durations of every top-level span.
  [[nodiscard]] double top_level_s() const;
  [[nodiscard]] std::vector<StageRow> stage_table() const;
  /// Writes the spans in Chrome trace-event format; false on I/O failure.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  [[nodiscard]] double now_s() const { return seconds_since(epoch_); }

  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Failed checks and operations against everything attempted.
class Checks {
 public:
  /// Counts one attempt; a false `ok` is a failure described by `what`.
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< First few failure messages.
};

/// What one round spent where.
struct RoundLog {
  bool warmup = false;  ///< The discarded first round (caches, heap, lazy set-up).
  bool traced = false;
  double wall_s = 0.0;
  double setup_s = 0.0;
  double check_s = 0.0;
  double cpu_s = 0.0;        ///< Process CPU over the round.
  double check_cpu_s = 0.0;  ///< ... of which spent in checks.
  double setup_cpu_s = 0.0;  ///< ... of which spent in set-up.
  /// Extra set-ups timed right after the round, outside its wall clock.
  std::vector<double> setup_probes;

  [[nodiscard]] double work_s() const { return wall_s - setup_s - check_s; }
  [[nodiscard]] double work_cpu_s() const { return cpu_s - setup_cpu_s - check_cpu_s; }
  /// Counts toward the end-to-end metrics: neither warm-up nor traced.
  [[nodiscard]] bool measured() const { return !warmup && !traced; }
};

/// The round in progress, handed to a workload's round body.
class Round {
 public:
  Round(Tracer& tracer, std::uint64_t index, RoundLog& log)
      : tracer_(tracer), index_(index), log_(log) {}

  [[nodiscard]] std::uint64_t index() const { return index_; }
  [[nodiscard]] bool traced() const { return log_.traced; }
  [[nodiscard]] bool measured() const { return log_.measured(); }

  /// Runs `fn` as a timed phase (a span while tracing); returns seconds.
  template <class Fn>
  double phase(const char* name, Fn&& fn, std::uint64_t request) {
    const std::int32_t span = tracer_.open(name, request);
    const auto t0 = Clock::now();
    std::forward<Fn>(fn)();
    const double dt = seconds_since(t0);
    tracer_.close(span);
    return dt;
  }
  template <class Fn>
  double phase(const char* name, Fn&& fn) {
    return phase(name, std::forward<Fn>(fn), index_);
  }

  /// Set-up before the round's first timed operation.
  template <class Fn>
  void setup(Fn&& fn) {
    const double cpu0 = process_cpu_s();
    log_.setup_s += phase("setup", std::forward<Fn>(fn));
    log_.setup_cpu_s += process_cpu_s() - cpu0;
  }

  /// An untimed correctness oracle.
  template <class Fn>
  void check(Fn&& fn) {
    const double cpu0 = process_cpu_s();
    log_.check_s += phase("check", std::forward<Fn>(fn));
    log_.check_cpu_s += process_cpu_s() - cpu0;
  }

 private:
  Tracer& tracer_;
  std::uint64_t index_;
  RoundLog& log_;
};

/// Set-ups timed after each round besides the round's own (setup_s is the
/// median of them all, so it rests on many samples spread over the run).
inline constexpr int kSetupProbesPerRound = 20;

/// Times one call of `set_up`; the state it returns is destroyed after the
/// clock stopped, so teardown never counts as set-up.
template <class SetUp>
double time_setup(SetUp&& set_up) {
  const auto t0 = Clock::now();
  const auto state = std::forward<SetUp>(set_up)();
  return seconds_since(t0);
}

/// How many rounds a run measures.  The count depends on Options::seconds
/// only - never on how fast rounds go - so every run of a given length does
/// the same work: as many whole nominal rounds as fit in seconds (at least
/// min_rounds, and at least 2 in a traced run), after one discarded warm-up
/// round.
struct RoundPlan {
  double nominal_round_s = 1.0;  ///< One round's wall clock on the reference host.
  std::size_t min_rounds = 1;

  [[nodiscard]] std::size_t rounds(const Options& opts) const;
};

/// Runs the warm-up round of `body`, then plan.rounds(opts) measured rounds.
/// In a traced run the measured rounds alternate traced and untraced,
/// starting traced.  After every measured round, `probe_setup(i)` (one
/// timed set-up, see time_setup) runs kSetupProbesPerRound times.
std::vector<RoundLog> run_rounds(const Options& opts, Tracer& tracer, const RoundPlan& plan,
                                 const std::function<void(Round&)>& body,
                                 const std::function<double(std::uint64_t)>& probe_setup);

/// A named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct Result {
  std::vector<Metric> metrics;
  Checks checks;
  std::vector<RoundLog> rounds;

  /// Sets (or overwrites) a metric.
  void set(const std::string& name, double value, const std::string& unit);
  /// A metric's value (0 when unset).
  [[nodiscard]] double get(const std::string& name) const;
};

/// The end-to-end metrics every workload reports, from its measured rounds:
///   setup_s          median over every set-up after the warm-up (rounds'
///                    own and probes);
///   throughput_per_s median over rounds of work items per work second;
///   latency_p50_ms   median request latency;
///   cpu_ms_per_op    median over rounds of process CPU per request;
///   peak_rss_mb      peak resident set of the whole run, every round
///                    included, so growth from round to round shows.
/// `items[i]` and `ops[i]` are round i's work items and requests.
void set_end_to_end(Result& result, const std::vector<double>& items,
                    const std::vector<double>& ops, const std::vector<double>& latencies_ms);

/// Work time of each measured round in ms: the latencies of a workload
/// whose request is a whole round.
[[nodiscard]] std::vector<double> round_latencies_ms(const std::vector<RoundLog>& rounds);

/// Per-layer bookkeeping shared by every workload: zero-fills the full
/// per-layer metric list, then sets the tracing self-checks:
///   trace.reconcile_pct   top-level spans over the traced rounds' wall;
///   trace.overhead_pct    median over traced rounds of the work time's
///                         excess over the untraced round that follows;
///   trace.span_cost_pct   spans recorded x calibrated cost per span, over
///                         the traced wall (the tracer's own share).
void set_layer_defaults(Result& result, const Tracer& tracer);

/// The spe.* per-layer metrics: counts of one capture, one fleet round or
/// one sweep grid, which repeat exactly for a seed (decode_stalls aside:
/// it counts host-timing backpressure).
struct SpeCounts {
  std::uint64_t samples = 0;
  std::uint64_t selections = 0;
  std::uint64_t collisions = 0;
  std::uint64_t dropped_full = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t decode_stalls = 0;
  double accuracy_pct = 0.0;
  double overhead_pct = 0.0;

  /// Adds one session's counts; accuracy and overhead are the caller's.
  void add(const core::SessionReport& report);
};
void set_spe_layer(Result& result, const SpeCounts& spe);

/// The net.* per-layer metrics of the streamed traces; mirror_tail_pct
/// comes from the spans.
struct NetCounts {
  std::uint64_t blocks_sent = 0;
  std::uint64_t blocks_dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t protocol_errors = 0;
};
void set_net_layer(Result& result, const Tracer& tracer, const NetCounts& net);

/// Share of the traced rounds' wall clock spent in spans called `name`.
[[nodiscard]] double traced_share_pct(const Result& result, const Tracer& tracer,
                                      const char* name);

/// Removes a directory tree (errors ignored: scratch cleanup).
void remove_tree(const std::string& dir);

/// A probe_setup for run_rounds: times `set_up(dir, i)` in a fresh scratch
/// directory under opts.work_dir, removed again afterwards.
template <class SetUp>
std::function<double(std::uint64_t)> dir_probe(const Options& opts, SetUp set_up) {
  return [&opts, set_up](std::uint64_t i) {
    const std::string dir = opts.work_dir + "/probe-" + std::to_string(i);
    const double seconds = time_setup([&] { return set_up(dir, i); });
    remove_tree(dir);
    return seconds;
  };
}

/// Whole-file comparison (mirror byte-parity checks).
[[nodiscard]] bool same_file_bytes(const std::string& a, const std::string& b);
/// Size of a file in bytes (0 when missing).
[[nodiscard]] std::uint64_t file_bytes(const std::string& path);
/// Flips one byte in the middle of `path` (the "mirror" corruption).
void flip_middle_byte(const std::string& path);
/// Every "<root>/session-*/trace.nmot" of a session store, sorted by path.
[[nodiscard]] std::vector<std::string> session_traces(const std::string& root);

}  // namespace nmo::e2e
