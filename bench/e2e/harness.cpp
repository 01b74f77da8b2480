#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>

namespace nmo::e2e {

namespace {

/// Every per-layer metric, in report order, with its unit.  A workload sets
/// the ones its layers exercise; the rest read 0 (the layer did no work).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.replay_pct", "%"},
    {"sim.replay_mops_per_s", "Mops/s"},
    {"sim.stat_pct", "%"},
    {"sim.stat_runs_per_s", "1/s"},
    {"spe.capture_pct", "%"},
    {"spe.samples", "count"},
    {"spe.selections", "count"},
    {"spe.sample_yield", "ratio"},
    {"spe.collisions", "count"},
    {"spe.dropped_full", "count"},
    {"spe.wakeups", "count"},
    {"spe.decode_stalls", "count"},
    {"spe.accuracy_pct", "%"},
    {"spe.overhead_pct", "%"},
    {"store.write_pct", "%"},
    {"store.write_msamples_per_s", "M/s"},
    {"store.bytes_per_sample", "B"},
    {"net.mirror_tail_pct", "%"},
    {"net.blocks_sent", "count"},
    {"net.blocks_dropped", "count"},
    {"net.bytes_sent", "B"},
    {"net.protocol_errors", "count"},
    {"store.index_loads_per_s", "1/s"},
    {"store.query_pct", "%"},
    {"store.query_rate.time", "1/s"},
    {"store.query_rate.time_region", "1/s"},
    {"store.query_rate.time_level", "1/s"},
    {"store.query_rate.addr", "1/s"},
    {"store.query_skip_ratio", "ratio"},
    {"store.query_p99_over_p50", "ratio"},
    {"store.scan_pct", "%"},
    {"store.scan_1t_msamples_per_s", "M/s"},
    {"store.scan_nt_msamples_per_s", "M/s"},
    {"store.run_sessions_pct", "%"},
    {"store.sched_wait_p50_pct", "%"},
    {"store.sched_wait_p90_pct", "%"},
    {"store.sched_peak_occupancy", "count"},
    {"store.merge_pct", "%"},
    {"store.merge_msamples_per_s", "M/s"},
    {"trace.reconcile_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.span_cost_pct", "%"},
};

double traced_wall_s(const std::vector<RoundLog>& rounds) {
  double wall = 0.0;
  for (const auto& r : rounds) {
    if (r.traced) wall += r.wall_s;
  }
  return wall;
}

}  // namespace

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

unsigned host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) cpus = std::max(1, CPU_COUNT(&set));
  return static_cast<unsigned>(std::min(4, cpus));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::int32_t Tracer::open(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = now_s();
  spans_.push_back(span);
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::close(std::int32_t span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_s = now_s();
  // Spans close in stack order; pop through `span` so a mismatched close
  // can never leave a stale parent behind.
  while (!open_.empty()) {
    const std::int32_t top = open_.back();
    open_.pop_back();
    if (top == span) break;
  }
}

double Tracer::total_s(const char* name) const {
  double total = 0.0;
  const std::string_view wanted(name);
  for (const auto& s : spans_) {
    if (wanted == s.name) total += s.end_s - s.start_s;
  }
  return total;
}

double Tracer::top_level_s() const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.parent < 0) total += s.end_s - s.start_s;
  }
  return total;
}

std::vector<StageRow> Tracer::stage_table() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, StageRow> rows;
  std::vector<std::string> order;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    auto [it, inserted] = rows.try_emplace(s.name);
    if (inserted) {
      it->second.name = s.name;
      order.push_back(s.name);
    }
    auto& row = it->second;
    row.count += 1;
    row.total_s += s.end_s - s.start_s;
    row.self_s += s.end_s - s.start_s - child_time[i];
    row.top_level = row.top_level || s.parent < 0;
  }
  std::vector<StageRow> table;
  for (const auto& name : order) table.push_back(rows[name]);
  return table;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    char line[384];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %d, "
                  "\"request\": %llu}}%s\n",
                  s.name, s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent,
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Checks::expect(bool ok, const std::string& what) {
  attempted_ += 1;
  if (ok) return;
  failed_ += 1;
  if (failures_.size() < 16) failures_.push_back(what);
}

std::size_t RoundPlan::rounds(const Options& opts) const {
  const auto by_time = static_cast<std::size_t>(std::floor(opts.seconds / nominal_round_s));
  return std::max({min_rounds, by_time, std::size_t{opts.traced ? 2u : 1u}});
}

std::vector<RoundLog> run_rounds(const Options& opts, Tracer& tracer, const RoundPlan& plan,
                                 const std::function<void(Round&)>& body,
                                 const std::function<double(std::uint64_t)>& probe_setup) {
  const std::size_t measured = plan.rounds(opts);
  std::vector<RoundLog> rounds;
  for (std::uint64_t i = 0; i <= measured; ++i) {
    RoundLog log;
    log.warmup = i == 0;
    log.traced = opts.traced && i % 2 == 1;
    tracer.set_enabled(log.traced);
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    Round round(tracer, i, log);
    body(round);
    log.wall_s = seconds_since(t0);
    log.cpu_s = process_cpu_s() - cpu0;
    tracer.set_enabled(false);
    if (!log.warmup) {
      for (int k = 0; k < kSetupProbesPerRound; ++k) {
        log.setup_probes.push_back(probe_setup(i * kSetupProbesPerRound + k));
      }
    }
    rounds.push_back(log);
  }
  return rounds;
}

void Result::set(const std::string& name, double value, const std::string& unit) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

double Result::get(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void set_end_to_end(Result& result, const std::vector<double>& items,
                    const std::vector<double>& ops, const std::vector<double>& latencies_ms) {
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> cpu_per_op;
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const auto& r = result.rounds[i];
    if (!r.warmup) {
      setups.push_back(r.setup_s);
      setups.insert(setups.end(), r.setup_probes.begin(), r.setup_probes.end());
    }
    if (!r.measured()) continue;
    rates.push_back(items[i] / r.work_s());
    cpu_per_op.push_back(r.work_cpu_s() * 1e3 / ops[i]);
  }
  result.set("setup_s", median(setups), "s");
  result.set("throughput_per_s", median(rates), "1/s");
  result.set("latency_p50_ms", median(latencies_ms), "ms");
  result.set("cpu_ms_per_op", median(cpu_per_op), "ms");
  result.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

std::vector<double> round_latencies_ms(const std::vector<RoundLog>& rounds) {
  std::vector<double> latencies;
  for (const auto& r : rounds) {
    if (r.measured()) latencies.push_back(r.work_s() * 1e3);
  }
  return latencies;
}

void set_layer_defaults(Result& result, const Tracer& tracer) {
  for (const auto& m : kLayerMetrics) result.set(m.name, 0.0, m.unit);
  const double wall = traced_wall_s(result.rounds);
  if (wall <= 0.0) return;
  const double reconcile = tracer.top_level_s() / wall * 100.0;
  result.set("trace.reconcile_pct", reconcile, "%");
  result.checks.expect(reconcile >= 95.0 && reconcile <= 105.0,
                       "top-level spans sum to within 5% of the traced wall clock");
  // Each traced round against the untraced round right after it: pairing
  // cancels slow drifts of the host's speed.
  std::vector<double> excess;
  for (std::size_t i = 0; i + 1 < result.rounds.size(); ++i) {
    const auto& traced = result.rounds[i];
    const auto& plain = result.rounds[i + 1];
    if (traced.traced && plain.measured()) excess.push_back(traced.work_s() / plain.work_s() - 1.0);
  }
  if (!excess.empty()) result.set("trace.overhead_pct", median(excess) * 100.0, "%");

  // The recording cost itself, calibrated: spans recorded x cost per span.
  Tracer scratch;
  scratch.set_enabled(true);
  constexpr int kCalibrationSpans = 20'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kCalibrationSpans; ++i) scratch.close(scratch.open("calibration", 0));
  const double per_span = seconds_since(t0) / kCalibrationSpans;
  result.set("trace.span_cost_pct",
             static_cast<double>(tracer.spans().size()) * per_span / wall * 100.0, "%");
}

void SpeCounts::add(const core::SessionReport& report) {
  samples += report.processed_samples;
  selections += report.selections;
  collisions += report.collisions;
  dropped_full += report.dropped_full;
  wakeups += report.wakeups;
  decode_stalls += report.decode_stalls;
}

void set_spe_layer(Result& result, const SpeCounts& spe) {
  const auto count = [&](const char* name, std::uint64_t value) {
    result.set(name, static_cast<double>(value), "count");
  };
  count("spe.samples", spe.samples);
  count("spe.selections", spe.selections);
  if (spe.selections > 0) {
    result.set("spe.sample_yield",
               static_cast<double>(spe.samples) / static_cast<double>(spe.selections), "ratio");
  }
  count("spe.collisions", spe.collisions);
  count("spe.dropped_full", spe.dropped_full);
  count("spe.wakeups", spe.wakeups);
  count("spe.decode_stalls", spe.decode_stalls);
  result.set("spe.accuracy_pct", spe.accuracy_pct, "%");
  result.set("spe.overhead_pct", spe.overhead_pct, "%");
}

void set_net_layer(Result& result, const Tracer& tracer, const NetCounts& net) {
  result.set("net.mirror_tail_pct", traced_share_pct(result, tracer, "net.mirror_tail"), "%");
  result.set("net.blocks_sent", static_cast<double>(net.blocks_sent), "count");
  result.set("net.blocks_dropped", static_cast<double>(net.blocks_dropped), "count");
  result.set("net.bytes_sent", static_cast<double>(net.bytes_sent), "B");
  result.set("net.protocol_errors", static_cast<double>(net.protocol_errors), "count");
}

double traced_share_pct(const Result& result, const Tracer& tracer, const char* name) {
  const double wall = traced_wall_s(result.rounds);
  return wall > 0.0 ? tracer.total_s(name) / wall * 100.0 : 0.0;
}

void remove_tree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

bool same_file_bytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  return std::equal(std::istreambuf_iterator<char>(fa), std::istreambuf_iterator<char>(),
                    std::istreambuf_iterator<char>(fb), std::istreambuf_iterator<char>());
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

void flip_middle_byte(const std::string& path) {
  const std::uint64_t size = file_bytes(path);
  if (size == 0) return;
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(size / 2));
  char byte = 0;
  f.get(byte);
  f.seekp(static_cast<std::streamoff>(size / 2));
  f.put(static_cast<char>(byte ^ 0x5a));
}

std::vector<std::string> session_traces(const std::string& root) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    if (entry.path().filename().string().rfind("session-", 0) != 0) continue;
    const auto trace = entry.path() / "trace.nmot";
    if (std::filesystem::exists(trace, ec)) paths.push_back(trace.string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace nmo::e2e
