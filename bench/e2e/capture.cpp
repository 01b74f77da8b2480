// capture_stream / capture_cfd: repeated captures of one seeded workload.
//
// One round is one capture, exactly as a user runs it: build the workload
// and the ProfileSession, start a loopback collector and connect the
// streaming tee (set-up), then profile with baseline, write the v2+LZ
// trace locally while teeing every block, and wait for the collector's
// clean mirror.  A traced round splits profile(w, true) into the baseline
// TraceEngine run plus profile(w, false), so replay and capture cost
// separate.
#include <cmath>
#include <filesystem>
#include <memory>

#include "core/session.hpp"
#include "net/block_sender.hpp"
#include "net/collector.hpp"
#include "store/trace_file.hpp"
#include "store/trace_query.hpp"
#include "workloads.hpp"
#include "workloads/cfd.hpp"
#include "workloads/stream.hpp"

namespace nmo::e2e {

namespace {

struct CaptureSpec {
  core::NmoConfig nmo;
  sim::EngineConfig engine;
  std::function<std::unique_ptr<wl::Workload>()> make;
  /// Workload output oracle: empty when the computed result is right.
  std::function<std::string(const wl::Workload&)> verify;
};

core::NmoConfig sampling_config(std::uint64_t period, std::uint64_t aux_bytes) {
  core::NmoConfig nmo;
  nmo.enable = true;
  nmo.mode = core::Mode::kAll;
  nmo.period = period;
  nmo.auxbufsize_bytes = aux_bytes;
  return nmo;
}

sim::EngineConfig eight_cores(std::uint64_t seed) {
  sim::EngineConfig engine;
  engine.threads = 8;
  engine.machine.hierarchy.cores = 8;
  engine.seed = seed;
  return engine;
}

/// The per-capture SessionReport fields that must repeat exactly for a
/// given seed (decode_stalls is host timing and is left out).
bool same_counts(const core::SessionReport& a, const core::SessionReport& b) {
  return a.mem_ops == b.mem_ops && a.processed_samples == b.processed_samples &&
         a.selections == b.selections && a.collisions == b.collisions &&
         a.dropped_full == b.dropped_full && a.wakeups == b.wakeups &&
         a.baseline_ns == b.baseline_ns && a.instrumented_ns == b.instrumented_ns;
}

/// Everything a capture sets up before its first timed operation.  Member
/// order is teardown order reversed: the session goes first, then the
/// sink (so the collector sees the disconnect), then the collector.
struct CaptureRig {
  std::unique_ptr<wl::Workload> workload;
  std::unique_ptr<net::Collector> collector;
  std::unique_ptr<net::StreamingTraceSink> sink;
  std::unique_ptr<core::ProfileSession> session;
  std::string error;
  bool ready = false;
};

CaptureRig set_up_capture(const CaptureSpec& spec, const std::string& dir, std::uint64_t nonce) {
  CaptureRig rig;
  std::filesystem::create_directories(dir);
  rig.workload = spec.make();
  net::CollectorConfig cc;
  cc.root = dir + "/collected";
  cc.once = 1;
  rig.collector = std::make_unique<net::Collector>(cc);
  const bool started = rig.collector->start(&rig.error);
  net::StreamConfig stream;
  stream.port = rig.collector->port();
  rig.sink = std::make_unique<net::StreamingTraceSink>(stream, "capture",
                                                       store::TraceWriter::Options{}, nonce);
  rig.ready = started && rig.sink->connect();
  sim::EngineConfig engine = spec.engine;
  engine.decode_progress = [tee = rig.sink.get()](std::uint64_t n) { tee->note_progress(n); };
  rig.session = std::make_unique<core::ProfileSession>(spec.nmo, engine);
  return rig;
}

Result run_capture(const CaptureSpec& spec, const RoundPlan& plan, const Options& opts,
                   Tracer& tracer) {
  Result result;
  std::vector<double> items;
  std::vector<double> ops;
  core::SessionReport first;
  std::string first_fingerprint;
  NetCounts net;
  std::uint64_t trace_bytes = 0;
  double traced_replay_ops = 0.0;
  double traced_samples = 0.0;

  const auto probe = dir_probe(opts, [&spec](const std::string& dir, std::uint64_t i) {
    return set_up_capture(spec, dir, i);
  });
  result.rounds = run_rounds(opts, tracer, plan, [&](Round& round) {
    const std::string dir = opts.work_dir + "/capture-" + std::to_string(round.index());
    const std::string local = dir + "/local.nmot";
    CaptureRig rig;
    round.setup([&] { rig = set_up_capture(spec, dir, round.index()); });
    result.checks.expect(rig.ready, "collector start + connect: " + rig.error);

    core::SessionReport report;
    if (round.traced()) {
      // profile(w, true) split in two: the baseline is the same TraceEngine
      // run ProfileSession performs, timed on its own as pure replay.
      std::uint64_t baseline_ns = 0;
      round.phase("sim.replay", [&] {
        const core::ActiveProfilerScope none(nullptr);
        sim::TraceEngine baseline(spec.engine, nullptr);
        rig.workload->run(baseline);
        baseline.finalize();
        baseline_ns = baseline.stats().instrumented_ns;
        traced_replay_ops += static_cast<double>(baseline.stats().mem_ops);
      });
      round.phase("core.profile", [&] { report = rig.session->profile(*rig.workload, false); });
      report.baseline_ns = baseline_ns;
    } else {
      round.phase("core.profile", [&] { report = rig.session->profile(*rig.workload, true); });
    }

    std::unique_ptr<store::TraceWriter> writer;
    bool written = false;
    round.phase("store.write", [&] {
      writer = std::make_unique<store::TraceWriter>(local);
      rig.sink->attach(*writer);
      rig.sink->send_regions(rig.session->profiler().regions().regions());
      writer->write_all(rig.session->profiler().trace());
      written = writer->close();
    });
    const std::uint64_t samples = writer->samples_written();
    const std::string fingerprint = writer->fingerprint();
    bool mirrored = false;
    round.phase("net.mirror_tail", [&] {
      rig.sink->finish(samples, fingerprint);
      mirrored = rig.collector->wait_done(30'000);
    });
    const auto stream_stats = rig.sink->stats();
    const bool fallback = rig.sink->fallback();
    round.phase("teardown", [&] {
      rig.sink.reset();
      writer.reset();
      rig.collector->stop();
    });
    net.protocol_errors += rig.collector->stats().protocol_errors;
    result.checks.expect(written, "local trace write");

    round.check([&] {
      trace_bytes = file_bytes(local);
      const auto collected = session_traces(dir + "/collected");
      if (opts.corrupt == "mirror" && !collected.empty()) flip_middle_byte(collected.front());
      const std::string why = spec.verify(*rig.workload);
      result.checks.expect(why.empty(), "workload output: " + why);
      result.checks.expect(mirrored && !fallback && stream_stats.blocks_dropped == 0,
                           "stream clean with zero dropped blocks");
      result.checks.expect(collected.size() == 1 && same_file_bytes(collected.front(), local),
                           "collected mirror byte-identical to the local trace");
      const auto reread = store::query(local).run(1);
      result.checks.expect(reread.ok && reread.samples.fingerprint() == fingerprint &&
                               reread.info.fingerprint == fingerprint,
                           "full re-read fingerprint equals the writer footer");
      result.checks.expect(rig.session->profiler().trace().fingerprint() == fingerprint,
                           "in-memory trace fingerprint equals the writer footer");
      if (first_fingerprint.empty()) {
        first_fingerprint = fingerprint;
        first = report;
      } else {
        result.checks.expect(fingerprint == first_fingerprint && same_counts(report, first),
                             "same seed reproduces the capture");
      }
    });

    round.phase("teardown", [&] {
      rig.session.reset();
      rig.workload.reset();
      remove_tree(dir);
    });

    items.push_back(2.0 * static_cast<double>(report.mem_ops));  // baseline + profiled replay
    ops.push_back(1.0);
    net.blocks_sent = stream_stats.blocks_sent;
    net.bytes_sent = stream_stats.bytes_sent;
    net.blocks_dropped += stream_stats.blocks_dropped;
    if (round.traced()) traced_samples += static_cast<double>(samples);
  }, probe);

  set_end_to_end(result, items, ops, round_latencies_ms(result.rounds));
  result.set("capture_mops_per_s", result.get("throughput_per_s") / 1e6, "Mops/s");
  result.set("accuracy_pct", first.accuracy() * 100.0, "%");
  result.set("overhead_pct", first.time_overhead() * 100.0, "%");

  set_layer_defaults(result, tracer);
  const double replay_s = tracer.total_s("sim.replay");
  const double write_s = tracer.total_s("store.write");
  result.set("sim.replay_pct", traced_share_pct(result, tracer, "sim.replay"), "%");
  if (replay_s > 0.0) {
    result.set("sim.replay_mops_per_s", traced_replay_ops / replay_s / 1e6, "Mops/s");
  }
  result.set("spe.capture_pct",
             traced_share_pct(result, tracer, "core.profile") -
                 traced_share_pct(result, tracer, "sim.replay"),
             "%");
  SpeCounts spe;
  spe.add(first);
  spe.accuracy_pct = first.accuracy() * 100.0;
  spe.overhead_pct = first.time_overhead() * 100.0;
  set_spe_layer(result, spe);
  result.set("store.write_pct", traced_share_pct(result, tracer, "store.write"), "%");
  if (write_s > 0.0) {
    result.set("store.write_msamples_per_s", traced_samples / write_s / 1e6, "M/s");
  }
  if (first.processed_samples > 0) {
    result.set("store.bytes_per_sample",
               static_cast<double>(trace_bytes) / static_cast<double>(first.processed_samples),
               "B");
  }
  set_net_layer(result, tracer, net);
  return result;
}

}  // namespace

Result run_capture_stream(const Options& opts, Tracer& tracer) {
  wl::StreamConfig cfg;
  cfg.array_elems = opts.smoke ? std::size_t{1} << 14 : std::size_t{1} << 19;
  cfg.iterations = opts.smoke ? 1 : 3;
  CaptureSpec spec;
  spec.nmo = sampling_config(256, 4ull << 20);
  spec.engine = eight_cores(opts.seed);
  spec.engine.decode_shards = std::min(2u, host_threads());
  spec.engine.async_drain = true;
  spec.make = [cfg] { return std::make_unique<wl::Stream>(cfg); };
  spec.verify = [cfg](const wl::Workload& w) -> std::string {
    const auto& stream = static_cast<const wl::Stream&>(w);
    const double expected = wl::Stream::expected_a(cfg.iterations, cfg.scalar);
    for (const double a : stream.a()) {
      if (std::abs(a - expected) > 1e-9 * std::abs(expected)) return "STREAM a[] != expected_a";
    }
    return stream.a().size() == cfg.array_elems ? "" : "STREAM a[] has the wrong size";
  };
  return run_capture(spec, RoundPlan{2.0, 3}, opts, tracer);
}

Result run_capture_cfd(const Options& opts, Tracer& tracer) {
  wl::CfdConfig cfg;
  cfg.num_cells = opts.smoke ? std::size_t{1} << 12 : std::size_t{1} << 16;
  cfg.iterations = opts.smoke ? 2 : 5;
  cfg.seed = opts.seed;
  CaptureSpec spec;
  spec.nmo = sampling_config(opts.smoke ? 1024 : 16384, 1ull << 20);
  spec.engine = eight_cores(opts.seed);
  spec.make = [cfg] { return std::make_unique<wl::Cfd>(cfg); };
  spec.verify = [](const wl::Workload& w) -> std::string {
    const auto& cfd = static_cast<const wl::Cfd&>(w);
    for (const double rho : cfd.density()) {
      if (!std::isfinite(rho) || rho <= 0.0) return "CFD density not finite and positive";
    }
    const double mass = cfd.total_mass();
    return std::isfinite(mass) && mass > 0.0 ? "" : "CFD mass not finite and positive";
  };
  return run_capture(spec, RoundPlan{2.25, 3}, opts, tracer);
}

}  // namespace nmo::e2e
