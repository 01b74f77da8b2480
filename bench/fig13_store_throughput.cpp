// Trace-store throughput + density: write/read MB/s and bytes/sample of the
// binary trace format (store/trace_file.hpp), format v2 with and without
// the per-block codec, against CSV export.
//
// Not a paper figure: it characterizes the store subsystem this repo adds
// on top of the paper's per-run CSV workflow.  The numbers that matter at
// many-concurrent-sessions scale are (a) how fast a session can persist
// its trace, (b) how fast nmo-trace can stream it back (and decode it
// block-parallel off the index), and (c) how dense the cold-archival bytes
// are - ROADMAP's "trace store compression" item: the legacy v1 format
// plateaued at ~14 B/sample, and v2's self-contained blocks + LZ codec
// must land strictly below that on both workload profiles.
//
// Two sample profiles bracket the workloads the paper sweeps:
//   stream  sequential strided accesses at a steady cadence (Fig. 4's
//           STREAM regions) - highly regular deltas, the codec's best case;
//   cfd     clustered irregular accesses with level/latency spread (the
//           CFD solver of Figs. 5-6) - short sequential runs broken by
//           jumps, the codec's adversarial-but-realistic case.
//
//   ./bench_fig13_store_throughput [samples] [trials] [--json [FILE]]
//
// Exit codes: 0 ok; 1 = deterministic failure (round-trip mismatch, or
// v2+codec not strictly below the 14 B/sample v1 plateau).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/trace.hpp"
#include "store/trace_file.hpp"
#include "store/trace_query.hpp"

namespace {

namespace fs = std::filesystem;

constexpr double kV1PlateauBytesPerSample = 14.0;

/// Sequential strided sweeps (8 cores round-robin over private arrays) at a
/// near-constant sample cadence: the shape a STREAM triad leaves in SPE.
nmo::core::SampleTrace make_stream_trace(std::size_t samples) {
  nmo::core::SampleTrace trace;
  nmo::Rng rng(42, 13);
  std::uint64_t t = 1000;
  std::vector<nmo::Addr> cursor(8);
  for (std::size_t c = 0; c < cursor.size(); ++c) cursor[c] = 0x4000'0000 + c * 0x100'0000;
  for (std::size_t i = 0; i < samples; ++i) {
    nmo::core::TraceSample s;
    t += 120 + rng.uniform(8);  // steady sampling cadence, small jitter
    s.time_ns = t;
    s.core = static_cast<nmo::CoreId>(i % 8);
    cursor[s.core] += 64;  // one cache line per sample: constant stride
    s.vaddr = cursor[s.core];
    s.pc = 0x400000 + (i % 4) * 4;  // tight vectorized loop body
    s.op = (i % 4) == 3 ? nmo::MemOp::kStore : nmo::MemOp::kLoad;
    const bool dram = rng.uniform(16) == 0;
    s.level = dram ? nmo::MemLevel::kDRAM : nmo::MemLevel::kL1;
    s.latency = static_cast<std::uint16_t>(dram ? 330 : 4);
    s.region = static_cast<std::int32_t>(s.core % 3);  // a/b/c arrays
    trace.add(s);
  }
  trace.sort_canonical();
  return trace;
}

/// Clustered irregular accesses: short sequential runs inside a working-set
/// cluster, broken by jumps between clusters, with the level/latency spread
/// of a cache-straddling CFD solver.
nmo::core::SampleTrace make_cfd_trace(std::size_t samples) {
  nmo::core::SampleTrace trace;
  nmo::Rng rng(7, 5);
  std::uint64_t t = 1000;
  std::vector<nmo::Addr> cursor(8, 0x1000'0000);
  for (std::size_t i = 0; i < samples; ++i) {
    nmo::core::TraceSample s;
    t += 80 + rng.uniform(160);
    s.time_ns = t;
    s.core = static_cast<nmo::CoreId>(rng.uniform(8));
    if (rng.uniform(8) == 0) {
      // Jump to another mesh cluster.
      cursor[s.core] = 0x1000'0000 + rng.uniform(1 << 12) * 0x1'0000;
    } else {
      cursor[s.core] += 8 + 8 * rng.uniform(4);  // short run, mixed stride
    }
    s.vaddr = cursor[s.core];
    s.pc = 0x400000 + rng.uniform(64) * 4;
    s.op = rng.uniform(4) == 0 ? nmo::MemOp::kStore : nmo::MemOp::kLoad;
    const unsigned level = static_cast<unsigned>(rng.uniform(4));
    s.level = static_cast<nmo::MemLevel>(level);
    s.latency = static_cast<std::uint16_t>(level == 3 ? 280 + rng.uniform(100) : 4 + level * 9);
    s.region = rng.uniform(8) == 0 ? -1 : static_cast<std::int32_t>(rng.uniform(6));
    trace.add(s);
  }
  trace.sort_canonical();
  return trace;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

struct FormatResult {
  std::string name;
  std::uint64_t bytes = 0;
  double bytes_per_sample = 0.0;
  double write_mbps = 0.0;
  double read_mbps = 0.0;
  double read_parallel_mbps = 0.0;
  bool round_trip_ok = true;
};

FormatResult run_format(const char* name, const nmo::core::SampleTrace& trace,
                        const std::string& path, nmo::store::TraceWriter::Options options,
                        int trials) {
  FormatResult r;
  r.name = name;
  const std::string reference_md5 = trace.fingerprint();
  nmo::RunningStats write_s, read_s, par_s;
  for (int trial = 0; trial < trials; ++trial) {
    auto t0 = std::chrono::steady_clock::now();
    {
      nmo::store::TraceWriter writer(path, options);
      writer.write_all(trace);
      writer.close();
      r.round_trip_ok = r.round_trip_ok && writer.fingerprint() == reference_md5;
    }
    write_s.add(seconds_since(t0));
    r.bytes = fs::file_size(path);

    t0 = std::chrono::steady_clock::now();
    {
      nmo::store::TraceReader reader(path);
      const auto back = reader.read_all();
      r.round_trip_ok = r.round_trip_ok && reader.ok() && back.fingerprint() == reference_md5;
    }
    read_s.add(seconds_since(t0));

    t0 = std::chrono::steady_clock::now();
    const auto back = nmo::store::query(path).run(4);
    par_s.add(seconds_since(t0));
    // The parallel scan does not re-hash its blocks; hold the reassembled
    // samples to the footer digest here, outside the timed region.
    r.round_trip_ok = r.round_trip_ok && back.ok && back.info.fingerprint == reference_md5 &&
                      back.samples.fingerprint() == reference_md5;
  }
  r.bytes_per_sample = static_cast<double>(r.bytes) / static_cast<double>(trace.size());
  r.write_mbps = mib(r.bytes) / write_s.mean();
  r.read_mbps = mib(r.bytes) / read_s.mean();
  r.read_parallel_mbps = mib(r.bytes) / par_s.mean();
  return r;
}

void print_format(const FormatResult& r) {
  char bps[32], w[32], rd[32], par[32];
  std::snprintf(bps, sizeof(bps), "%.2f", r.bytes_per_sample);
  std::snprintf(w, sizeof(w), "%.1f", r.write_mbps);
  std::snprintf(rd, sizeof(rd), "%.1f", r.read_mbps);
  std::snprintf(par, sizeof(par), "%.1f", r.read_parallel_mbps);
  nmo::bench::print_row({r.name, bps, w, rd, par, r.round_trip_ok ? "ok" : "MISMATCH"}, 14);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t samples = 1 << 20;
  int trials = 3;
  std::string json_path;
  bool want_json = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      want_json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  if (!positional.empty()) samples = std::strtoull(positional[0].c_str(), nullptr, 10);
  if (positional.size() > 1) trials = std::atoi(positional[1].c_str());
  if (samples == 0 || trials <= 0 || positional.size() > 2) {
    std::fprintf(stderr, "usage: %s [samples > 0] [trials > 0] [--json [FILE]]\n", argv[0]);
    return 2;
  }
  if (want_json && json_path.empty()) json_path = "BENCH_store_v2.json";

  nmo::bench::banner("fig13", "trace store: format v2 (+codec), bytes/sample + MB/s");
  std::printf("%zu samples/profile, %d trials\n", samples, trials);

  const fs::path dir = fs::temp_directory_path() / "nmo_fig13_store";
  fs::create_directories(dir);

  struct Profile {
    const char* name;
    nmo::core::SampleTrace trace;
  };
  std::vector<Profile> profiles;
  profiles.push_back({"stream", make_stream_trace(samples)});
  profiles.push_back({"cfd", make_cfd_trace(samples)});

  using Options = nmo::store::TraceWriter::Options;
  struct Format {
    const char* name;
    Options options;
  };
  const std::vector<Format> formats = {
      {"v2-raw", Options{.compress = false}},
      {"v2-lz", Options{.compress = true}},
  };

  bool all_ok = true;
  bool gate_ok = true;
  nmo::bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("fig13_store_throughput");
  json.key("samples").value(static_cast<std::uint64_t>(samples));
  json.key("trials").value(trials);
  json.key("plateau_bytes_per_sample").value(kV1PlateauBytesPerSample);
  json.key("profiles").begin_array();

  for (const auto& profile : profiles) {
    // CSV baseline: the paper's post-processing input format.
    const std::string csv_path = (dir / (std::string(profile.name) + ".csv")).string();
    {
      std::ofstream out(csv_path);
      profile.trace.write_csv(out);
    }
    const auto csv_bytes = static_cast<std::uint64_t>(fs::file_size(csv_path));

    std::printf("\n-- profile %s (csv %.1f MiB, %.1f B/sample) --\n", profile.name,
                mib(csv_bytes),
                static_cast<double>(csv_bytes) / static_cast<double>(profile.trace.size()));
    nmo::bench::print_row({"format", "B/sample", "write MB/s", "read MB/s", "par4 MB/s", "check"},
                          14);

    json.begin_object();
    json.key("profile").value(profile.name);
    json.key("csv_bytes").value(csv_bytes);
    json.key("formats").begin_array();
    double v2lz_bps = 0.0;
    for (const auto& format : formats) {
      const std::string path =
          (dir / (std::string(profile.name) + "_" + format.name + ".nmot")).string();
      const FormatResult r = run_format(format.name, profile.trace, path, format.options, trials);
      print_format(r);
      all_ok = all_ok && r.round_trip_ok;
      if (std::strcmp(format.name, "v2-lz") == 0) v2lz_bps = r.bytes_per_sample;
      json.begin_object();
      json.key("format").value(r.name);
      json.key("bytes").value(r.bytes);
      json.key("bytes_per_sample").value(r.bytes_per_sample);
      json.key("write_mbps").value(r.write_mbps);
      json.key("read_mbps").value(r.read_mbps);
      json.key("read_parallel4_mbps").value(r.read_parallel_mbps);
      json.key("round_trip_ok").value(r.round_trip_ok);
      json.end_object();
    }
    json.end_array();
    json.key("v2_lz_below_plateau").value(v2lz_bps < kV1PlateauBytesPerSample);
    json.end_object();
    if (v2lz_bps >= kV1PlateauBytesPerSample) {
      std::printf("GATE: v2-lz %.2f B/sample is not below the %.1f B/sample v1 plateau\n",
                  v2lz_bps, kV1PlateauBytesPerSample);
      gate_ok = false;
    }
  }
  json.end_array();
  json.key("round_trips_ok").value(all_ok);
  json.key("gate_ok").value(gate_ok);
  json.end_object();
  if (want_json && !json.write_file(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }

  std::printf("\nround-trip fingerprints: %s\n", all_ok ? "all match" : "MISMATCH");
  std::printf("compression gate (v2-lz < %.1f B/sample on every profile): %s\n",
              kV1PlateauBytesPerSample, gate_ok ? "pass" : "FAIL");

  fs::remove_all(dir);
  return all_ok && gate_ok ? 0 : 1;
}
