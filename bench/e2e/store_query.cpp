// store_query: a seeded trace through the store and network layers only.
//
// Set-up generates a trace in memory (untimed input, not a capture): the
// first half STREAM-shaped sweeps over three tagged arrays, the second half
// CFD-shaped clustered jumps over an untagged mesh.  One round ingests it
// (v2+LZ writer teeing every block to a loopback collector, until the
// collector's mirror is clean), loads the block index, runs the seeded
// query mix back to back - four classes of equal count - and decodes the
// whole file at 1 and at host_threads() threads.  sim and spe do no work.
#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>

#include "common/rng.hpp"
#include "net/block_sender.hpp"
#include "net/collector.hpp"
#include "store/trace_file.hpp"
#include "store/trace_query.hpp"
#include "workloads.hpp"

namespace nmo::e2e {

namespace {

constexpr CoreId kCores = 8;
constexpr Addr kArrayBase = 0x1000'0000;
constexpr Addr kArrayStride = 16ull << 20;  ///< Distance between the tagged arrays.
constexpr Addr kArrayBytes = 8ull << 20;
constexpr Addr kMeshBase = 0x8000'0000;
constexpr std::uint64_t kMeshClusters = 16384;  ///< 4 KiB clusters of the CFD mesh.

struct Generated {
  core::SampleTrace trace;
  std::vector<core::AddrRegion> regions;
};

std::uint16_t latency_for(MemLevel level, Rng& rng) {
  constexpr std::uint16_t kBase[] = {4, 12, 40, 120};
  return static_cast<std::uint16_t>(kBase[static_cast<std::size_t>(level)] + rng.uniform(8) +
                                    (level == MemLevel::kDRAM ? rng.uniform(64) : 0));
}

Generated generate_trace(std::uint64_t seed, std::size_t samples) {
  Generated g;
  for (int r = 0; r < 3; ++r) {
    const Addr start = kArrayBase + static_cast<Addr>(r) * kArrayStride;
    g.regions.push_back({std::string(1, static_cast<char>('a' + r)), start, start + kArrayBytes});
  }
  Rng rng(seed, 11);
  std::array<Addr, kCores> cursor{};
  std::array<std::uint64_t, kCores> cluster{};
  for (auto& c : cluster) c = rng.uniform(kMeshClusters);
  std::uint64_t time = 1'000'000;
  const Addr slice = kArrayBytes / kCores;
  for (std::size_t i = 0; i < samples; ++i) {
    core::TraceSample s;
    s.core = static_cast<CoreId>((i + rng.uniform(2)) % kCores);
    time += 1 + rng.uniform(24);
    s.time_ns = time;
    if (i < samples / 2) {
      // Triad-shaped sweep: each core walks its slice of a, b and c.
      const auto r = static_cast<std::int32_t>((i / kCores) % 3);
      const Addr offset = cursor[s.core] % slice;
      if (r == 2) cursor[s.core] += 8;
      s.vaddr = g.regions[static_cast<std::size_t>(r)].start + s.core * slice + offset;
      s.region = r;
      s.op = r == 0 ? MemOp::kStore : MemOp::kLoad;
      s.pc = 0x40'0000 + static_cast<Addr>(r) * 4;
      if (offset % 64 != 0) {
        s.level = MemLevel::kL1;
      } else {
        const std::uint64_t roll = rng.uniform(100);
        s.level = roll < 60 ? MemLevel::kDRAM : roll < 85 ? MemLevel::kSLC : MemLevel::kL2;
      }
    } else {
      // CFD-shaped gather: mostly neighbouring clusters, some far links.
      auto& c = cluster[s.core];
      c = rng.bernoulli(0.15) ? rng.uniform(kMeshClusters) : (c + rng.uniform(3)) % kMeshClusters;
      s.vaddr = kMeshBase + c * 4096 + rng.uniform(512) * 8;
      s.region = -1;
      s.op = rng.bernoulli(0.2) ? MemOp::kStore : MemOp::kLoad;
      s.pc = 0x50'0000 + rng.uniform(16) * 4;
      const std::uint64_t roll = rng.uniform(100);
      s.level = roll < 30   ? MemLevel::kDRAM
                : roll < 50 ? MemLevel::kSLC
                : roll < 70 ? MemLevel::kL2
                            : MemLevel::kL1;
    }
    s.latency = latency_for(s.level, rng);
    g.trace.add(s);
  }
  return g;
}

enum class QueryClass : std::uint8_t { kTime = 0, kTimeRegion, kTimeLevel, kAddr };
constexpr std::size_t kClasses = 4;

struct QuerySpec {
  QueryClass cls = QueryClass::kTime;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::int32_t region = -1;
  Addr lo = 0;
  Addr hi = 0;

  [[nodiscard]] store::TraceQuery build(const std::string& path) const {
    auto q = store::query(path);
    if (cls == QueryClass::kAddr) return q.address_in(lo, hi);
    q.time_between(t0, t1);
    if (cls == QueryClass::kTimeRegion) q.region(region);
    if (cls == QueryClass::kTimeLevel) q.level(MemLevel::kDRAM);
    return q;
  }

  /// Brute-force predicate, written independently of TraceQuery.
  [[nodiscard]] bool matches(const core::TraceSample& s) const {
    if (cls == QueryClass::kAddr) return s.vaddr >= lo && s.vaddr <= hi;
    if (s.time_ns < t0 || s.time_ns > t1) return false;
    if (cls == QueryClass::kTimeRegion) return s.region == region;
    if (cls == QueryClass::kTimeLevel) return s.level == MemLevel::kDRAM;
    return true;
  }
};

/// `per_class` queries of each class, shuffled: 1% windows, 5% windows +
/// region, 5% windows + DRAM, and one region's whole address range.
std::vector<QuerySpec> generate_queries(std::uint64_t seed, const Generated& g,
                                        std::size_t per_class) {
  Rng rng(seed, 12);
  const auto& samples = g.trace.samples();
  const std::uint64_t t_min = samples.front().time_ns;
  const std::uint64_t span = samples.back().time_ns - t_min;
  const auto window = [&](std::uint64_t percent, QuerySpec& q) {
    const std::uint64_t w = span * percent / 100;
    q.t0 = t_min + rng.uniform(span - w + 1);
    q.t1 = q.t0 + w;
  };
  std::vector<QuerySpec> queries;
  for (std::size_t i = 0; i < per_class; ++i) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      QuerySpec q;
      q.cls = static_cast<QueryClass>(c);
      q.region = static_cast<std::int32_t>(rng.uniform(g.regions.size()));
      if (q.cls == QueryClass::kAddr) {
        q.lo = g.regions[static_cast<std::size_t>(q.region)].start;
        q.hi = g.regions[static_cast<std::size_t>(q.region)].end - 1;
      } else {
        window(q.cls == QueryClass::kTime ? 1 : 5, q);
      }
      queries.push_back(q);
    }
  }
  for (std::size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[rng.uniform(i)]);
  }
  return queries;
}

/// Everything an ingest sets up before its first add(): the collector, the
/// connected tee and the open writer.  Member order is teardown order
/// reversed (writer, then sink, then collector).
struct IngestRig {
  std::unique_ptr<net::Collector> collector;
  std::unique_ptr<net::StreamingTraceSink> sink;
  std::unique_ptr<store::TraceWriter> writer;
  std::string error;
  bool ready = false;
};

IngestRig set_up_ingest(const Generated& input, const std::string& dir, std::uint64_t nonce) {
  IngestRig rig;
  std::filesystem::create_directories(dir);
  net::CollectorConfig cc;
  cc.root = dir + "/collected";
  cc.once = 1;
  rig.collector = std::make_unique<net::Collector>(cc);
  const bool started = rig.collector->start(&rig.error);
  net::StreamConfig stream;
  stream.port = rig.collector->port();
  rig.sink = std::make_unique<net::StreamingTraceSink>(stream, "ingest",
                                                       store::TraceWriter::Options{}, nonce);
  const bool connected = started && rig.sink->connect();
  rig.writer = std::make_unique<store::TraceWriter>(dir + "/local.nmot");
  rig.sink->attach(*rig.writer);
  rig.sink->send_regions(input.regions);
  rig.ready = connected && rig.writer->ok();
  return rig;
}

}  // namespace

Result run_store_query(const Options& opts, Tracer& tracer) {
  // 2^17 samples rather than 2^20: at 2^20 one
  // round (1000 queries at ~7 ms each) takes ~16 s, and a run with its
  // warm-up and two measured rounds would take ~50 s.
  const std::size_t n = opts.smoke ? 20'000 : std::size_t{1} << 17;
  const std::size_t per_class = opts.smoke ? 10 : 250;
  constexpr int kIndexLoads = 10;
  const Generated input = generate_trace(opts.seed, n);
  const std::vector<QuerySpec> queries = generate_queries(opts.seed, input, per_class);
  const std::string footer = input.trace.fingerprint();

  Result result;
  std::vector<double> items;
  std::vector<double> ops;
  std::vector<double> query_ms;  // untraced rounds
  std::vector<double> ingest_rates;
  std::vector<double> scan_rates;
  std::array<std::vector<double>, kClasses> traced_class_ms;
  std::vector<double> traced_query_ms;
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_skipped = 0;
  NetCounts net;
  std::uint64_t trace_bytes = 0;
  double traced_rounds = 0.0;

  const auto probe = dir_probe(opts, [&input](const std::string& dir, std::uint64_t i) {
    return set_up_ingest(input, dir, i);
  });
  result.rounds = run_rounds(opts, tracer, RoundPlan{1.9, 2}, [&](Round& round) {
    const std::string dir = opts.work_dir + "/round-" + std::to_string(round.index());
    const std::string local = dir + "/local.nmot";
    IngestRig rig;
    round.setup([&] { rig = set_up_ingest(input, dir, round.index()); });
    result.checks.expect(rig.ready, "collector start + connect + open: " + rig.error);
    auto& collector = rig.collector;
    auto& sink = rig.sink;
    auto& writer = rig.writer;

    bool written = false;
    bool mirrored = false;
    const double ingest_s = round.phase("store.ingest", [&] {
      round.phase("store.write", [&] {
        for (const auto& s : input.trace.samples()) writer->add(s);
        written = writer->close();
      });
      round.phase("net.mirror_tail", [&] {
        sink->finish(writer->samples_written(), writer->fingerprint());
        mirrored = collector->wait_done(30'000);
      });
    });
    const auto stream_stats = sink->stats();
    const bool fallback = sink->fallback();
    const std::string written_fingerprint = writer->fingerprint();

    bool index_ok = true;
    round.phase("store.index_load", [&] {
      for (int i = 0; i < kIndexLoads; ++i) {
        round.phase("index_load", [&] {
          store::TraceReader reader(local);
          index_ok = reader.load_index() && index_ok;
        }, static_cast<std::uint64_t>(i));
      }
    });

    double scanned = 0.0;
    store::TraceQuery::Result res;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const QuerySpec& spec = queries[qi];
      const double dt = round.phase("store.query", [&] { res = spec.build(local).run(1); }, qi);
      result.checks.expect(res.ok, "query " + std::to_string(qi) + ": " + res.error);
      scanned += static_cast<double>(res.stats.samples_scanned);
      if (round.measured()) query_ms.push_back(dt * 1e3);
      if (round.traced()) {
        traced_query_ms.push_back(dt * 1e3);
        traced_class_ms[static_cast<std::size_t>(spec.cls)].push_back(dt * 1e3);
        blocks_total += res.stats.blocks_total;
        blocks_skipped += res.stats.blocks_skipped;
      }
      if (qi % 10 != 0) continue;
      round.check([&] {
        if (opts.corrupt == "query" && qi == 0 && !res.samples.empty()) {
          std::vector<core::TraceSample> kept(res.samples.samples().begin() + 1,
                                              res.samples.samples().end());
          res.samples.clear();
          for (const auto& s : kept) res.samples.add(s);
        }
        core::SampleTrace expected;
        for (const auto& s : input.trace.samples()) {
          if (spec.matches(s)) expected.add(s);
        }
        result.checks.expect(res.samples.size() == expected.size() &&
                                 res.samples.fingerprint() == expected.fingerprint(),
                             "query " + std::to_string(qi) + " equals a brute-force filter");
      });
    }

    store::TraceQuery::Result scan_1t;
    store::TraceQuery::Result scan_nt;
    round.phase("store.scan_1t", [&] { scan_1t = store::query(local).run(1); });
    const double scan_s =
        round.phase("store.scan_nt", [&] { scan_nt = store::query(local).run(host_threads()); });
    round.phase("teardown", [&] {
      sink.reset();
      writer.reset();
      collector->stop();
    });
    net.protocol_errors += collector->stats().protocol_errors;

    round.check([&] {
      trace_bytes = file_bytes(local);
      const auto collected = session_traces(dir + "/collected");
      if (opts.corrupt == "mirror" && !collected.empty()) flip_middle_byte(collected.front());
      result.checks.expect(written && index_ok, "trace write + index load");
      result.checks.expect(mirrored && !fallback && stream_stats.blocks_dropped == 0,
                           "stream clean with zero dropped blocks");
      result.checks.expect(collected.size() == 1 && same_file_bytes(collected.front(), local),
                           "collected mirror byte-identical to the local trace");
      result.checks.expect(written_fingerprint == footer, "writer footer equals the input trace");
      for (const auto* scan : {&scan_1t, &scan_nt}) {
        result.checks.expect(scan->ok && scan->samples.size() == n &&
                                 scan->samples.fingerprint() == footer &&
                                 scan->info.fingerprint == footer,
                             "full re-read fingerprint equals the writer footer");
      }
    });
    round.phase("teardown", [&] {
      scan_1t = {};
      scan_nt = {};
      remove_tree(dir);
    });

    items.push_back(static_cast<double>(3 * n) + scanned);  // ingest + 2 scans + queries
    ops.push_back(static_cast<double>(queries.size() + 3));
    if (round.measured()) {
      ingest_rates.push_back(static_cast<double>(n) / ingest_s / 1e6);
      scan_rates.push_back(static_cast<double>(n) / scan_s / 1e6);
    }
    if (round.traced()) traced_rounds += 1.0;
    net.blocks_sent = stream_stats.blocks_sent;
    net.bytes_sent = stream_stats.bytes_sent;
    net.blocks_dropped += stream_stats.blocks_dropped;
  }, probe);

  set_end_to_end(result, items, ops, query_ms);
  result.set("ingest_msamples_per_s", median(ingest_rates), "M/s");
  result.set("query_p50_ms", quantile(query_ms, 0.5), "ms");
  result.set("query_p99_ms", quantile(query_ms, 0.99), "ms");
  result.set("query_count", static_cast<double>(query_ms.size()), "count");
  result.set("scan_msamples_per_s", median(scan_rates), "M/s");

  set_layer_defaults(result, tracer);
  const double samples = static_cast<double>(n);
  const auto rate = [&](double count, const char* span) {
    const double s = tracer.total_s(span);
    return s > 0.0 ? count / s : 0.0;
  };
  result.set("store.write_pct", traced_share_pct(result, tracer, "store.write"), "%");
  result.set("store.write_msamples_per_s", rate(samples * traced_rounds, "store.write") / 1e6,
             "M/s");
  result.set("store.bytes_per_sample", static_cast<double>(trace_bytes) / samples, "B");
  set_net_layer(result, tracer, net);
  result.set("store.index_loads_per_s", rate(kIndexLoads * traced_rounds, "store.index_load"),
             "1/s");
  result.set("store.query_pct", traced_share_pct(result, tracer, "store.query"), "%");
  constexpr const char* kRateNames[] = {"store.query_rate.time", "store.query_rate.time_region",
                                        "store.query_rate.time_level", "store.query_rate.addr"};
  for (std::size_t c = 0; c < kClasses; ++c) {
    const double p50 = median(traced_class_ms[c]);
    if (p50 > 0.0) result.set(kRateNames[c], 1e3 / p50, "1/s");
  }
  if (blocks_total > 0) {
    result.set("store.query_skip_ratio",
               static_cast<double>(blocks_skipped) / static_cast<double>(blocks_total), "ratio");
  }
  const double traced_p50 = quantile(traced_query_ms, 0.5);
  if (traced_p50 > 0.0) {
    result.set("store.query_p99_over_p50", quantile(traced_query_ms, 0.99) / traced_p50, "ratio");
  }
  result.set("store.scan_pct",
             traced_share_pct(result, tracer, "store.scan_1t") +
                 traced_share_pct(result, tracer, "store.scan_nt"),
             "%");
  result.set("store.scan_1t_msamples_per_s",
             rate(samples * traced_rounds, "store.scan_1t") / 1e6, "M/s");
  result.set("store.scan_nt_msamples_per_s",
             rate(samples * traced_rounds, "store.scan_nt") / 1e6, "M/s");
  return result;
}

}  // namespace nmo::e2e
