// The trace store: binary round-trip fidelity, streaming merge parity with
// sort_canonical, corruption rejection, and concurrent session isolation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "store/region_file.hpp"
#include "store/session_store.hpp"
#include "store/trace_file.hpp"
#include "store/trace_merger.hpp"
#include "store/trace_query.hpp"
#include "workloads/stream.hpp"

namespace nmo::store {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("nmo_store_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

/// A randomized trace covering every field's range, including the cases the
/// delta codec must not mangle: time going backwards between cores, region
/// -1, zero addresses, max latency.
core::SampleTrace random_trace(std::size_t n, std::uint64_t seed, bool canonical = true) {
  core::SampleTrace trace;
  Rng rng(seed, 5);
  std::uint64_t t = 50;
  for (std::size_t i = 0; i < n; ++i) {
    core::TraceSample s;
    t += rng.uniform(300);
    s.time_ns = t;
    s.core = static_cast<CoreId>(rng.uniform(16));
    s.vaddr = rng.uniform(64) == 0 ? 0 : 0x1000'0000 + rng.uniform(1 << 24);
    s.pc = 0x400000 + rng.uniform(1 << 16);
    s.op = rng.uniform(2) == 0 ? MemOp::kLoad : MemOp::kStore;
    s.level = static_cast<MemLevel>(rng.uniform(4));
    s.latency = static_cast<std::uint16_t>(rng.uniform(0x10000));
    s.region = static_cast<std::int32_t>(rng.uniform(5)) - 1;
    trace.add(s);
  }
  if (canonical) trace.sort_canonical();
  return trace;
}

std::string csv_of(const core::SampleTrace& t) {
  std::ostringstream out;
  t.write_csv(out);
  return out.str();
}

/// The checked-in v1 trace: the only v1 input now that no writer emits v1.
/// Written by the former v1 writer; 512 time-sorted samples on 4 cores.
const std::string kV1Fixture = std::string(NMO_TEST_DATA_DIR) + "/fixture_v1.nmot";
/// Its pinned decode fingerprint (fixed at fixture-generation time).
constexpr const char* kV1FixtureFingerprint = "23055a459f9b4cc87cb98dea5d84bb11";

core::SampleTrace read_v1_fixture() {
  TraceReader reader(kV1Fixture);
  auto trace = reader.read_all();
  EXPECT_TRUE(reader.ok()) << reader.error();
  return trace;
}

// ------------------------------------------------------------- round trip --

TEST_F(StoreTest, RoundTripPreservesCsvBytesAndMd5) {
  const auto trace = random_trace(5000, 1);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close()) << writer.error();
  EXPECT_EQ(writer.samples_written(), trace.size());
  EXPECT_EQ(writer.fingerprint(), trace.fingerprint());

  TraceReader reader(path("t.nmot"));
  const auto back = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(csv_of(back), csv_of(trace));
  EXPECT_EQ(back.fingerprint(), trace.fingerprint());
  EXPECT_EQ(reader.info().samples, trace.size());
  EXPECT_EQ(reader.info().fingerprint, trace.fingerprint());
  EXPECT_EQ(reader.info().version, kTraceVersion);
}

TEST_F(StoreTest, RoundTripPreservesArbitraryOrder) {
  // Not canonically sorted: the store must preserve add() order exactly.
  const auto trace = random_trace(2000, 2, /*canonical=*/false);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());

  TraceReader reader(path("t.nmot"));
  const auto back = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(csv_of(back), csv_of(trace));
}

TEST_F(StoreTest, EmptyTraceRoundTrips) {
  core::SampleTrace empty;
  TraceWriter writer(path("e.nmot"));
  writer.write_all(empty);
  ASSERT_TRUE(writer.close());
  EXPECT_EQ(writer.fingerprint(), empty.fingerprint());

  TraceReader reader(path("e.nmot"));
  const auto back = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(reader.info().samples, 0u);
}

TEST_F(StoreTest, ProbeReadsFooterWithoutScanning) {
  const auto trace = random_trace(1000, 3);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());

  const auto info = TraceReader::probe(path("t.nmot"));
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->samples, trace.size());
  EXPECT_EQ(info->fingerprint, trace.fingerprint());
}

TEST_F(StoreTest, BinaryIsSmallerThanCsv) {
  const auto trace = random_trace(10000, 4);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());
  EXPECT_LT(fs::file_size(path("t.nmot")), csv_of(trace).size());
}

// -------------------------------------------------------------- rejection --

TEST_F(StoreTest, ReaderRejectsBadMagic) {
  std::ofstream out(path("bad.nmot"), std::ios::binary);
  out << "this is not a trace file at all";
  out.close();

  TraceReader reader(path("bad.nmot"));
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("magic"), std::string::npos);
  EXPECT_FALSE(TraceReader::probe(path("bad.nmot")).has_value());
}

TEST_F(StoreTest, ReaderRejectsMissingFile) {
  TraceReader reader(path("does_not_exist.nmot"));
  EXPECT_FALSE(reader.ok());
}

TEST_F(StoreTest, ReaderRejectsTruncatedFile) {
  const auto trace = random_trace(3000, 5);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());

  // Drop the last 10 bytes (footer destroyed).
  const auto size = fs::file_size(path("t.nmot"));
  fs::resize_file(path("t.nmot"), size - 10);

  TraceReader reader(path("t.nmot"));
  core::TraceSample s;
  while (reader.next(s)) {
  }
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.read_all().empty());
}

TEST_F(StoreTest, ReaderRejectsCorruptedPayload) {
  const auto trace = random_trace(3000, 6);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());

  // Flip one byte in the middle of the sample stream: the footer MD5 (or
  // the block structure) must catch it.
  std::fstream f(path("t.nmot"), std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(fs::file_size(path("t.nmot")) / 2));
  f.put('\x7f');
  f.close();

  TraceReader reader(path("t.nmot"));
  core::TraceSample s;
  while (reader.next(s)) {
  }
  EXPECT_FALSE(reader.ok());
}

TEST_F(StoreTest, ReaderRejectsUnsupportedVersion) {
  const auto trace = random_trace(10, 7);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());

  std::fstream f(path("t.nmot"), std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(4);  // version field
  f.put('\x63');
  f.close();

  TraceReader reader(path("t.nmot"));
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("version"), std::string::npos);
}

TEST_F(StoreTest, ReaderRejectsOutOfRangeCoreId) {
  // A crafted block header with an absurd core id must be rejected, not
  // drive the predictor table into a giant allocation or OOB access.
  std::ofstream out(path("bad.nmot"), std::ios::binary);
  const unsigned char header[] = {0x4e, 0x4d, 0x4f, 0x54, 0x01, 0x00, 0x00, 0x00};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.put(static_cast<char>(kBlockMarker));
  // varint core = 0xffffffff, count = 1.
  const unsigned char block[] = {0xff, 0xff, 0xff, 0xff, 0x0f, 0x01};
  out.write(reinterpret_cast<const char*>(block), sizeof(block));
  out.close();

  TraceReader reader(path("bad.nmot"));
  core::TraceSample s;
  EXPECT_FALSE(reader.next(s));
  EXPECT_FALSE(reader.ok());
}

TEST_F(StoreTest, WriterRejectsOutOfRangeCoreId) {
  TraceWriter writer(path("t.nmot"));
  core::TraceSample s;
  s.core = kMaxCores;
  writer.add(s);
  EXPECT_FALSE(writer.ok());
  // The sticky error withholds the footer: the partial file must not
  // validate as a complete trace.
  EXPECT_FALSE(writer.close());
  TraceReader reader(path("t.nmot"));
  core::TraceSample out;
  while (reader.next(out)) {
  }
  EXPECT_FALSE(reader.ok());
}

// ------------------------------------------------------------- format v2 --

TEST_F(StoreTest, V2CompressionIsLosslessAndSmaller) {
  // A stride-regular trace (the codec's target shape): v2+lz must shrink
  // the file and still round-trip byte-exactly.
  core::SampleTrace trace;
  for (std::size_t i = 0; i < 20000; ++i) {
    core::TraceSample s;
    s.time_ns = 1000 + 120 * i;
    s.core = static_cast<CoreId>(i % 8);
    s.vaddr = 0x40000000 + 64 * i;
    s.pc = 0x400000 + 4 * (i % 4);
    s.latency = 10;
    s.region = static_cast<std::int32_t>(i % 3);
    trace.add(s);
  }
  TraceWriter raw(path("raw.nmot"), TraceWriter::Options{.compress = false});
  raw.write_all(trace);
  ASSERT_TRUE(raw.close());
  TraceWriter lz(path("lz.nmot"), TraceWriter::Options{.compress = true});
  lz.write_all(trace);
  ASSERT_TRUE(lz.close());

  EXPECT_LT(fs::file_size(path("lz.nmot")), fs::file_size(path("raw.nmot")));
  TraceReader reader(path("lz.nmot"));
  const auto back = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(csv_of(back), csv_of(trace));
  EXPECT_EQ(back.fingerprint(), trace.fingerprint());
}

TEST_F(StoreTest, V1ToV2RewriteIsLossless) {
  // The `nmo-trace compress` path at the library level: stream the v1
  // fixture into a v2 writer; CSV and fingerprint must be byte-identical,
  // in both codec modes - the format version is invisible above the decode
  // layer.
  const auto trace = read_v1_fixture();
  ASSERT_EQ(trace.fingerprint(), kV1FixtureFingerprint);

  for (const bool compress : {false, true}) {
    const std::string out = path(compress ? "v2lz.nmot" : "v2raw.nmot");
    TraceReader reader(kV1Fixture);
    TraceWriter writer(out, TraceWriter::Options{.compress = compress});
    core::TraceSample s;
    while (reader.next(s)) writer.add(s);
    ASSERT_TRUE(reader.ok()) << reader.error();
    ASSERT_TRUE(writer.close()) << writer.error();
    EXPECT_EQ(writer.fingerprint(), reader.info().fingerprint);

    TraceReader back(out);
    const auto rewritten = back.read_all();
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(back.info().version, kTraceVersion2);
    EXPECT_EQ(csv_of(rewritten), csv_of(trace));
    EXPECT_EQ(rewritten.fingerprint(), kV1FixtureFingerprint);
  }
}

TEST_F(StoreTest, LoadIndexAndSeekBlockDecodeEveryBlockIndependently) {
  const auto trace = random_trace(2000, 23);  // 16 cores -> several v2 blocks
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());

  TraceReader indexed(path("t.nmot"));
  ASSERT_TRUE(indexed.load_index()) << indexed.error();
  const auto index = indexed.block_index();
  ASSERT_GT(index.size(), 1u);
  EXPECT_EQ(indexed.info().samples, trace.size());
  EXPECT_EQ(indexed.info().fingerprint, trace.fingerprint());
  std::uint64_t total = 0;
  for (const auto& entry : index) total += entry.samples;
  EXPECT_EQ(total, trace.size());

  // Decode each block via its own seek (out of file order on purpose) and
  // reassemble: must equal the streaming read sample for sample.
  std::vector<core::TraceSample> reassembled(trace.size());
  std::vector<std::uint64_t> starts(index.size(), 0);
  for (std::size_t b = 1; b < index.size(); ++b) {
    starts[b] = starts[b - 1] + index[b - 1].samples;
  }
  for (std::size_t step = 0; step < index.size(); ++step) {
    const std::size_t b = index.size() - 1 - step;  // reverse order
    TraceReader reader(path("t.nmot"));
    ASSERT_TRUE(reader.seek_block(b)) << reader.error();
    core::TraceSample s;
    for (std::uint32_t i = 0; i < index[b].samples; ++i) {
      ASSERT_TRUE(reader.next(s)) << reader.error();
      reassembled[starts[b] + i] = s;
    }
  }
  core::SampleTrace rebuilt;
  for (const auto& s : reassembled) rebuilt.add(s);
  EXPECT_EQ(csv_of(rebuilt), csv_of(trace));
  EXPECT_EQ(rebuilt.fingerprint(), trace.fingerprint());

  // A reader that seeks and then runs off the end of the file still
  // validates the footer structurally (no count/digest: it saw a suffix).
  TraceReader tail(path("t.nmot"));
  ASSERT_TRUE(tail.seek_block(index.size() - 1));
  core::TraceSample s;
  std::uint32_t seen = 0;
  while (tail.next(s)) ++seen;
  EXPECT_TRUE(tail.ok()) << tail.error();
  EXPECT_EQ(seen, index.back().samples);
}

TEST_F(StoreTest, SeekBlockIsRefusedOnV1Traces) {
  TraceReader reader(kV1Fixture);
  EXPECT_FALSE(reader.load_index());
  EXPECT_FALSE(reader.seek_block(0));
  // Refusal is not an error: the reader still streams the file fine.
  ASSERT_TRUE(reader.ok()) << reader.error();
  const auto back = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(back.fingerprint(), kV1FixtureFingerprint);
}

TEST_F(StoreTest, ParallelFullQueryMatchesStreamingRead) {
  const auto trace = random_trace(6000, 25);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());

  for (const unsigned threads : {1u, 3u, 4u, 16u}) {
    const auto back = query(path("t.nmot")).run(threads);
    ASSERT_TRUE(back.ok) << back.error;
    EXPECT_EQ(csv_of(back.samples), csv_of(trace));
    // The reassembled samples hash to the footer digest.
    EXPECT_EQ(back.samples.fingerprint(), back.info.fingerprint);
    EXPECT_EQ(back.samples.fingerprint(), trace.fingerprint());
  }
  // v1 falls back to the streaming path instead of failing.
  const auto back = query(kV1Fixture).run(4);
  ASSERT_TRUE(back.ok) << back.error;
  EXPECT_EQ(back.samples.fingerprint(), kV1FixtureFingerprint);
}

TEST_F(StoreTest, CheckedInV1FixtureStaysReadable) {
  // The compat oracle: this fixture was written by the former v1 writer
  // and is checked into the repo, so any change that breaks byte-for-byte
  // v1 reading fails here - no matter what the current writer emits.
  TraceReader reader(kV1Fixture);
  const auto trace = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.info().version, kTraceVersion1);
  EXPECT_EQ(trace.size(), 512u);
  // Pinned at fixture-generation time: decoding to any other fingerprint
  // means the v1 decode path changed meaning, not just shape.
  EXPECT_EQ(trace.fingerprint(), kV1FixtureFingerprint);
  EXPECT_EQ(trace.fingerprint(), reader.info().fingerprint);
  const auto probed = TraceReader::probe(kV1Fixture);
  ASSERT_TRUE(probed.has_value());
  EXPECT_EQ(probed->fingerprint, reader.info().fingerprint);
}

// ------------------------------------------------------------------ merge --

TEST_F(StoreTest, MergeOfRandomShardsEqualsSortCanonicalOfConcatenation) {
  // Reference: sort_canonical over all samples in memory.
  auto all = random_trace(8000, 8, /*canonical=*/false);
  core::SampleTrace reference;
  reference.append(all);
  reference.sort_canonical();

  // Shards: randomly assign each *canonically sorted* sample to one of 5
  // files; each shard is then itself sorted (a subsequence of sorted data).
  constexpr std::size_t kShards = 5;
  all.sort_canonical();
  std::mt19937 rng(99);
  std::vector<std::unique_ptr<TraceWriter>> writers;
  TraceMerger merger;
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::string p = path("shard" + std::to_string(i) + ".nmot");
    writers.push_back(std::make_unique<TraceWriter>(p));
    merger.add_input(p);
  }
  for (const auto& s : all.samples()) {
    writers[rng() % kShards]->add(s);
  }
  for (auto& w : writers) ASSERT_TRUE(w->close());

  const auto stats = merger.merge_to(path("merged.nmot"));
  ASSERT_TRUE(stats.has_value()) << merger.error();
  EXPECT_EQ(stats->samples, reference.size());
  EXPECT_EQ(stats->inputs, kShards);
  EXPECT_EQ(stats->fingerprint, reference.fingerprint());

  TraceReader reader(path("merged.nmot"));
  const auto merged = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(csv_of(merged), csv_of(reference));
  EXPECT_EQ(merged.fingerprint(), reference.fingerprint());
}

TEST_F(StoreTest, MergeOfMixedVersionInputsIsCodecIndependent) {
  // Merged outputs match the in-memory canonical merge whatever the output
  // codec, over mixed-version inputs: the v1 fixture plus v2+codec shards.
  const auto all = random_trace(4000, 20);
  constexpr std::size_t kShards = 3;
  std::mt19937 rng(17);
  std::vector<std::unique_ptr<TraceWriter>> writers;
  for (std::size_t i = 0; i < kShards; ++i) {
    writers.push_back(std::make_unique<TraceWriter>(path("shard" + std::to_string(i) + ".nmot")));
  }
  for (const auto& s : all.samples()) writers[rng() % kShards]->add(s);
  for (auto& w : writers) ASSERT_TRUE(w->close());

  core::SampleTrace reference;
  reference.append(read_v1_fixture());
  reference.append(all);
  reference.sort_canonical();

  const auto merge_with = [&](const char* out_name,
                              TraceWriter::Options options) -> std::string {
    TraceMerger merger;
    merger.add_input(kV1Fixture);
    for (std::size_t i = 0; i < kShards; ++i) {
      merger.add_input(path("shard" + std::to_string(i) + ".nmot"));
    }
    merger.set_writer_options(options);
    const auto stats = merger.merge_to(path(out_name));
    EXPECT_TRUE(stats.has_value()) << merger.error();
    return stats ? stats->fingerprint : std::string();
  };
  const std::string raw_md5 = merge_with("raw.nmot", TraceWriter::Options{.compress = false});
  const std::string lz_md5 = merge_with("lz.nmot", TraceWriter::Options{.compress = true});
  EXPECT_FALSE(raw_md5.empty());
  EXPECT_EQ(raw_md5, lz_md5);
  EXPECT_EQ(raw_md5, reference.fingerprint());

  // And the merged file's own bytes decode back to that fingerprint.
  TraceReader reader(path("lz.nmot"));
  const auto merged = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.info().version, kTraceVersion2);
  EXPECT_EQ(merged.fingerprint(), reference.fingerprint());
}

TEST_F(StoreTest, MergeOfSingleFileIsIdentity) {
  const auto trace = random_trace(1000, 9);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());

  TraceMerger merger;
  merger.add_input(path("t.nmot"));
  const auto stats = merger.merge_to(path("m.nmot"));
  ASSERT_TRUE(stats.has_value()) << merger.error();
  EXPECT_EQ(stats->fingerprint, trace.fingerprint());
}

TEST_F(StoreTest, MergeIncludesEmptyInputs) {
  const auto trace = random_trace(500, 10);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());
  TraceWriter empty(path("e.nmot"));
  ASSERT_TRUE(empty.close());

  TraceMerger merger;
  merger.add_input(path("e.nmot"));
  merger.add_input(path("t.nmot"));
  const auto stats = merger.merge_to(path("m.nmot"));
  ASSERT_TRUE(stats.has_value()) << merger.error();
  EXPECT_EQ(stats->samples, trace.size());
  EXPECT_EQ(stats->fingerprint, trace.fingerprint());
}

TEST_F(StoreTest, MergeRejectsUnsortedInput) {
  core::SampleTrace unsorted;
  core::TraceSample s;
  s.time_ns = 100;
  unsorted.add(s);
  s.time_ns = 1;  // regression
  unsorted.add(s);
  s.time_ns = 200;
  unsorted.add(s);
  TraceWriter writer(path("u.nmot"));
  writer.write_all(unsorted);
  ASSERT_TRUE(writer.close());

  TraceMerger merger;
  merger.add_input(path("u.nmot"));
  EXPECT_FALSE(merger.merge_to(path("m.nmot")).has_value());
  EXPECT_NE(merger.error().find("canonical"), std::string::npos);
}

TEST_F(StoreTest, MergeReportsMissingInput) {
  TraceMerger merger;
  merger.add_input(path("nope.nmot"));
  EXPECT_FALSE(merger.merge_to(path("m.nmot")).has_value());
  EXPECT_FALSE(merger.error().empty());
}

TEST_F(StoreTest, MergeRefusesOutputThatIsAlsoAnInput) {
  // Truncating-then-removing an input would be data loss; the merger must
  // refuse up front and leave the input untouched.
  const auto trace = random_trace(200, 11);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());

  TraceMerger merger;
  merger.add_input(path("t.nmot"));
  EXPECT_FALSE(merger.merge_to(path("t.nmot")).has_value());
  EXPECT_NE(merger.error().find("also a merge input"), std::string::npos);

  TraceReader reader(path("t.nmot"));
  const auto back = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(back.fingerprint(), trace.fingerprint());
}

TEST_F(StoreTest, FailedMergeLeavesNoValidOutputFile) {
  // An unsorted input aborts the merge mid-stream; the partial output must
  // not survive as a file that could pass for a complete trace.
  core::SampleTrace unsorted;
  core::TraceSample s;
  s.time_ns = 100;
  unsorted.add(s);
  s.time_ns = 1;
  unsorted.add(s);
  TraceWriter writer(path("u.nmot"));
  writer.write_all(unsorted);
  ASSERT_TRUE(writer.close());

  TraceMerger merger;
  merger.add_input(path("u.nmot"));
  ASSERT_FALSE(merger.merge_to(path("m.nmot")).has_value());
  EXPECT_FALSE(fs::exists(path("m.nmot")));
}

// --------------------------------------------------------------- sessions --

TEST_F(StoreTest, SessionStoreAssignsUniqueIdsAndDirs) {
  SessionStore store(path("store"));
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&store] { store.create_session("job"); });
  }
  for (auto& t : threads) t.join();

  const auto sessions = store.sessions();
  ASSERT_EQ(sessions.size(), static_cast<std::size_t>(kThreads));
  std::set<std::uint32_t> ids;
  std::set<std::string> dirs;
  for (const auto& s : sessions) {
    ids.insert(s.id);
    dirs.insert(s.dir);
    EXPECT_TRUE(fs::is_directory(s.dir));
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(dirs.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(StoreTest, SessionIdsResumeAcrossStoreInstances) {
  // A second store (or process) on the same root must not re-issue ids
  // and truncate the earlier sessions' trace files.
  {
    SessionStore store(path("store"));
    store.create_session("a");
    store.create_session("b");
  }
  SessionStore resumed(path("store"));
  const auto s = resumed.create_session("c");
  EXPECT_EQ(s.id, 2u);
}

TEST_F(StoreTest, HomeNodeSessionsLandUnderNodeRoots) {
  SessionStore store(path("store"));
  const auto flat = store.create_session("flat");
  const auto n0 = store.create_session("local", 0);
  const auto n1 = store.create_session("remote", 1);

  EXPECT_FALSE(flat.home_node.has_value());
  EXPECT_EQ(flat.dir.find(path("store") + "/session-"), 0u);
  ASSERT_TRUE(n0.home_node.has_value());
  EXPECT_EQ(*n0.home_node, 0u);
  EXPECT_EQ(n0.dir.find(path("store") + "/node-0/session-"), 0u);
  EXPECT_EQ(n1.dir.find(path("store") + "/node-1/session-"), 0u);
  EXPECT_TRUE(fs::is_directory(n0.dir));
  EXPECT_TRUE(fs::is_directory(n1.dir));

  // One id sequence across the flat root and every node root.
  EXPECT_EQ(flat.id, 0u);
  EXPECT_EQ(n0.id, 1u);
  EXPECT_EQ(n1.id, 2u);
}

TEST_F(StoreTest, SessionIdsResumePastNodeRootSessions) {
  // The resume scan must look inside node-<k>/ roots too, or a reopened
  // store would re-issue ids claimed by node-homed sessions.
  {
    SessionStore store(path("store"));
    store.create_session("a");
    store.create_session("b", 1);
    store.create_session("c", 0);
  }
  SessionStore resumed(path("store"));
  const auto s = resumed.create_session("d", 1);
  EXPECT_EQ(s.id, 3u);
}

TEST_F(StoreTest, SessionNamesAreSanitizedToSafePathComponents) {
  SessionStore store(path("store"));
  const auto evil = store.create_session("../../escape/me");
  EXPECT_EQ(evil.name, ".._.._escape_me");
  EXPECT_EQ(evil.dir.find(path("store")), 0u);
  EXPECT_TRUE(fs::is_directory(evil.dir));
  const auto empty = store.create_session("");
  EXPECT_EQ(empty.name, "job");
}

TEST_F(StoreTest, ConcurrentSessionsWriteDistinctValidTraces) {
  core::NmoConfig nmo_cfg;
  nmo_cfg.enable = true;
  nmo_cfg.mode = core::Mode::kAll;
  nmo_cfg.period = 512;

  sim::EngineConfig engine;
  engine.threads = 4;
  engine.machine.hierarchy.cores = 4;

  std::vector<SessionJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].name = "s" + std::to_string(i);
    jobs[i].nmo = nmo_cfg;
    jobs[i].engine = engine;
    jobs[i].engine.seed = 10 + i;
    jobs[i].make_workload = [] {
      wl::StreamConfig cfg;
      cfg.array_elems = 1 << 14;
      cfg.iterations = 1;
      return std::make_unique<wl::Stream>(cfg);
    };
  }
  // One job runs an uninstrumented baseline pass concurrently with the
  // others' profiled runs: its nullptr binding must not observe (or
  // annotate) any concurrent session's profiler.
  jobs[0].with_baseline = true;

  SessionStore store(path("store"));
  const auto results = run_sessions(store, jobs).results;
  ASSERT_EQ(results.size(), jobs.size());

  core::SampleTrace reference;
  std::set<std::string> paths;
  for (const auto& r : results) {
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_GT(r.samples, 0u);
    paths.insert(r.session.trace_path);

    TraceReader reader(r.session.trace_path);
    const auto trace = reader.read_all();
    ASSERT_TRUE(reader.ok()) << r.session.trace_path << ": " << reader.error();
    EXPECT_EQ(trace.size(), r.samples);
    EXPECT_EQ(trace.fingerprint(), r.fingerprint);
    EXPECT_EQ(r.samples, r.report.processed_samples);
    reference.append(trace);
  }
  // No clobbering: three sessions, three distinct files.
  EXPECT_EQ(paths.size(), jobs.size());

  // Merging the session files equals the canonical concatenation.
  reference.sort_canonical();
  TraceMerger merger;
  for (const auto& r : results) merger.add_input(r.session.trace_path);
  const auto stats = merger.merge_to(path("merged.nmot"));
  ASSERT_TRUE(stats.has_value()) << merger.error();
  EXPECT_EQ(stats->samples, reference.size());
  EXPECT_EQ(stats->fingerprint, reference.fingerprint());
}

// ---------------------------------------------------------- region files --

TEST_F(StoreTest, RegionFileRoundTripsNamesAndEscapes) {
  std::vector<core::AddrRegion> regions;
  regions.push_back({"plain", 0x1000, 0x2000});
  regions.push_back({"with\ttab and\nnewline \\slash", 0, ~Addr{0}});
  regions.push_back({"", 0x42, 0x43});  // empty name survives too

  ASSERT_TRUE(write_region_file(path("t.nmor"), regions));
  const auto back = read_region_file(path("t.nmor"));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), regions.size());
  for (std::size_t i = 0; i < regions.size(); ++i) {
    EXPECT_EQ((*back)[i].name, regions[i].name);
    EXPECT_EQ((*back)[i].start, regions[i].start);
    EXPECT_EQ((*back)[i].end, regions[i].end);
  }
}

TEST_F(StoreTest, RegionPathSwapsTraceExtension) {
  EXPECT_EQ(region_path_for("dir/trace.nmot"), "dir/trace.nmor");
  EXPECT_EQ(region_path_for("odd.bin"), "odd.bin.nmor");
}

TEST_F(StoreTest, RegionFileRejectsGarbage) {
  std::ofstream out(path("bad.nmor"));
  out << "not a region file\n";
  out.close();
  std::string error;
  EXPECT_FALSE(read_region_file(path("bad.nmor"), &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(read_region_file(path("missing.nmor")).has_value());
}

TEST_F(StoreTest, RegionUnionDeduplicatesRemapsAndIsOrderIndependent) {
  const std::vector<core::AddrRegion> a = {{"x", 0, 100}, {"y", 100, 200}};
  const std::vector<core::AddrRegion> b = {{"y", 100, 200}, {"z", 200, 300}};
  RegionUnion u;
  const auto ha = u.add(a);
  const auto hb = u.add(b);
  EXPECT_EQ(u.mapping(ha), (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(u.mapping(hb), (std::vector<std::int32_t>{1, 2}));
  ASSERT_EQ(u.regions().size(), 3u);
  EXPECT_EQ(u.regions()[2].name, "z");
  // Same name, different range: a distinct region, not a duplicate; it
  // sorts between x(0,100) and y, shifting later union indices - which is
  // why mappings are only final once every table is added.
  const auto hc = u.add({{"x", 500, 600}});
  EXPECT_EQ(u.mapping(hc), (std::vector<std::int32_t>{1}));
  EXPECT_EQ(u.mapping(ha), (std::vector<std::int32_t>{0, 2}));

  // Order independence: the property that lets CI merge a shell glob in
  // session-id order while the example unions in job order.
  RegionUnion reversed;
  const auto rb = reversed.add(b);
  const auto ra = reversed.add(a);
  EXPECT_EQ(reversed.mapping(ra), (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(reversed.mapping(rb), (std::vector<std::int32_t>{1, 2}));
  EXPECT_EQ(reversed.regions().size(), 3u);
}

TEST_F(StoreTest, MergeUnionsSidecarsAndRemapsSampleIndices) {
  // Input A tags [x, y]; input B tags [y, z].  After the merge every
  // sample must point into the union table [x, y, z].
  const auto write_input = [&](const std::string& name,
                               const std::vector<core::AddrRegion>& regions,
                               std::uint64_t t0) {
    core::SampleTrace trace;
    for (std::int32_t r = 0; r < static_cast<std::int32_t>(regions.size()); ++r) {
      core::TraceSample s;
      s.time_ns = t0 + static_cast<std::uint64_t>(r) * 10;
      s.vaddr = regions[static_cast<std::size_t>(r)].start;
      s.region = r;
      trace.add(s);
    }
    TraceWriter writer(path(name));
    writer.write_all(trace);
    ASSERT_TRUE(writer.close());
    ASSERT_TRUE(write_region_file(region_path_for(path(name)), regions));
  };
  write_input("a.nmot", {{"x", 0, 100}, {"y", 100, 200}}, 10);
  write_input("b.nmot", {{"y", 100, 200}, {"z", 200, 300}}, 15);

  TraceMerger merger;
  merger.add_input(path("a.nmot"));
  merger.add_input(path("b.nmot"));
  const auto stats = merger.merge_to(path("m.nmot"));
  ASSERT_TRUE(stats.has_value()) << merger.error();
  EXPECT_EQ(stats->samples, 4u);
  EXPECT_EQ(stats->regions, 3u);

  const auto merged_table = read_region_file(region_path_for(path("m.nmot")));
  ASSERT_TRUE(merged_table.has_value());
  ASSERT_EQ(merged_table->size(), 3u);
  EXPECT_EQ((*merged_table)[0].name, "x");
  EXPECT_EQ((*merged_table)[1].name, "y");
  EXPECT_EQ((*merged_table)[2].name, "z");

  TraceReader reader(path("m.nmot"));
  const auto merged = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  ASSERT_EQ(merged.size(), 4u);
  // t=10: A/x -> 0; t=15: B/y -> 1; t=20: A/y -> 1; t=25: B/z -> 2.
  EXPECT_EQ(merged.samples()[0].region, 0);
  EXPECT_EQ(merged.samples()[1].region, 1);
  EXPECT_EQ(merged.samples()[2].region, 1);
  EXPECT_EQ(merged.samples()[3].region, 2);

  // Input order must not change a single output byte: the union is
  // sorted, so a shell glob and a job-ordered merge agree exactly.
  TraceMerger reversed;
  reversed.add_input(path("b.nmot"));
  reversed.add_input(path("a.nmot"));
  const auto reversed_stats = reversed.merge_to(path("m2.nmot"));
  ASSERT_TRUE(reversed_stats.has_value()) << reversed.error();
  EXPECT_EQ(reversed_stats->fingerprint, stats->fingerprint);
}

TEST_F(StoreTest, MergeWithoutSidecarsKeepsIndicesAndWritesNoUnion) {
  const auto trace = random_trace(300, 12);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());

  TraceMerger merger;
  merger.add_input(path("t.nmot"));
  const auto stats = merger.merge_to(path("m.nmot"));
  ASSERT_TRUE(stats.has_value()) << merger.error();
  EXPECT_EQ(stats->regions, 0u);
  EXPECT_EQ(stats->fingerprint, trace.fingerprint());
  EXPECT_FALSE(fs::exists(region_path_for(path("m.nmot"))));
}

TEST_F(StoreTest, MergeRejectsSampleIndexOutsideItsSidecarTable) {
  core::SampleTrace trace;
  core::TraceSample s;
  s.time_ns = 10;
  s.region = 5;  // sidecar below only declares one region
  trace.add(s);
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());
  ASSERT_TRUE(write_region_file(region_path_for(path("t.nmot")), {{"only", 0, 1}}));

  TraceMerger merger;
  merger.add_input(path("t.nmot"));
  EXPECT_FALSE(merger.merge_to(path("m.nmot")).has_value());
  EXPECT_NE(merger.error().find("out of range"), std::string::npos);
  EXPECT_FALSE(fs::exists(path("m.nmot")));
}

// ------------------------------------------------------- block metadata ----

TEST_F(StoreTest, WriterEmitsBlockMetadataMatchingAManualFold) {
  const auto trace = random_trace(1500, 77);  // 3 blocks: 512 + 512 + 476
  TraceWriter writer(path("t.nmot"));
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());

  TraceReader reader(path("t.nmot"));
  ASSERT_TRUE(reader.load_index()) << reader.error();
  ASSERT_TRUE(reader.has_block_meta());
  const auto& index = reader.block_index();
  const auto& meta = reader.block_meta();
  ASSERT_EQ(meta.size(), index.size());
  ASSERT_EQ(index.size(), 3u);

  // Fold each block's samples by hand; the writer's summaries must match.
  std::size_t at = 0;
  for (std::size_t b = 0; b < index.size(); ++b) {
    BlockMeta expected;
    for (std::uint32_t i = 0; i < index[b].samples; ++i) {
      expected.absorb(trace.samples()[at++]);
    }
    EXPECT_EQ(meta[b], expected) << "block " << b;
    EXPECT_EQ(expected.samples(), index[b].samples) << "block " << b;
  }
  EXPECT_EQ(at, trace.size());
}

TEST_F(StoreTest, IndexMetaOptOutProducesAMetaFreeV2File) {
  const auto trace = random_trace(700, 78);
  TraceWriter::Options options;
  options.index_meta = false;
  TraceWriter writer(path("t.nmot"), options);
  writer.write_all(trace);
  ASSERT_TRUE(writer.close());

  TraceReader reader(path("t.nmot"));
  ASSERT_TRUE(reader.load_index()) << reader.error();
  EXPECT_FALSE(reader.has_block_meta());
  EXPECT_EQ(reader.block_index().size(), 2u);

  TraceReader full(path("t.nmot"));
  const auto back = full.read_all();
  ASSERT_TRUE(full.ok()) << full.error();
  EXPECT_EQ(back.fingerprint(), trace.fingerprint());
}

TEST_F(StoreTest, MergedOutputMetadataEqualsAFromScratchRewrite) {
  // The merger must recompute block metadata for its re-blocked output
  // stream, never splice input summaries: the merged file's metadata has
  // to equal what a fresh writer produces from the merged samples.
  for (std::size_t i = 0; i < 3; ++i) {
    const auto trace = random_trace(600 + i * 100, 90 + i);
    TraceWriter writer(path("in" + std::to_string(i) + ".nmot"));
    writer.write_all(trace);
    ASSERT_TRUE(writer.close());
  }
  TraceMerger merger;
  for (std::size_t i = 0; i < 3; ++i) merger.add_input(path("in" + std::to_string(i) + ".nmot"));
  ASSERT_TRUE(merger.merge_to(path("m.nmot")).has_value()) << merger.error();

  // Full read also cross-checks the metadata against the decoded samples.
  TraceReader merged_reader(path("m.nmot"));
  const auto merged = merged_reader.read_all();
  ASSERT_TRUE(merged_reader.ok()) << merged_reader.error();

  TraceWriter rewriter(path("rewrite.nmot"));
  rewriter.write_all(merged);
  ASSERT_TRUE(rewriter.close());

  TraceReader a(path("m.nmot")), b(path("rewrite.nmot"));
  ASSERT_TRUE(a.load_index()) << a.error();
  ASSERT_TRUE(b.load_index()) << b.error();
  ASSERT_TRUE(a.has_block_meta());
  ASSERT_EQ(a.block_meta().size(), b.block_meta().size());
  for (std::size_t i = 0; i < a.block_meta().size(); ++i) {
    EXPECT_EQ(a.block_meta()[i], b.block_meta()[i]) << "block " << i;
  }
}

TEST_F(StoreTest, IdenticalJobsProduceIdenticalFingerprints) {
  // Concurrency must not leak between sessions: two identical jobs (same
  // seed, same workload) yield byte-identical traces.
  core::NmoConfig nmo_cfg;
  nmo_cfg.enable = true;
  nmo_cfg.mode = core::Mode::kSample;
  nmo_cfg.period = 512;

  sim::EngineConfig engine;
  engine.threads = 4;
  engine.machine.hierarchy.cores = 4;
  engine.seed = 77;

  std::vector<SessionJob> jobs(2);
  for (auto& job : jobs) {
    job.name = "twin";
    job.nmo = nmo_cfg;
    job.engine = engine;
    job.make_workload = [] {
      wl::StreamConfig cfg;
      cfg.array_elems = 1 << 14;
      cfg.iterations = 1;
      return std::make_unique<wl::Stream>(cfg);
    };
  }

  SessionStore store(path("store"));
  const auto results = run_sessions(store, jobs).results;
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].error.empty()) << results[0].error;
  ASSERT_TRUE(results[1].error.empty()) << results[1].error;
  EXPECT_EQ(results[0].fingerprint, results[1].fingerprint);
  EXPECT_NE(results[0].session.trace_path, results[1].session.trace_path);
}

// --- metadata-file parsing (session.meta / scheduler.meta) -------------------

using MetadataTest = StoreTest;

TEST_F(MetadataTest, RoundTripsWrittenKeys) {
  {
    std::ofstream out(path("session.meta"));
    out << "id=3\n"
        << "name=stream-a\n"
        << "state=done\n"
        << "samples=4096\n"
        << "fingerprint=0123456789abcdef0123456789abcdef\n"
        << "error=\n";
  }
  const auto meta = read_metadata_file(path("session.meta"));
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->size(), 6u);
  EXPECT_EQ(meta->at("id"), "3");
  EXPECT_EQ(meta->at("name"), "stream-a");
  EXPECT_EQ(meta->at("state"), "done");
  EXPECT_EQ(meta->at("samples"), "4096");
  EXPECT_EQ(meta->at("fingerprint"), "0123456789abcdef0123456789abcdef");
  EXPECT_EQ(meta->at("error"), "");
}

TEST_F(MetadataTest, MissingFileIsNullopt) {
  EXPECT_FALSE(read_metadata_file(path("nonexistent.meta")).has_value());
}

TEST_F(MetadataTest, MalformedLinesAreSkipped) {
  {
    std::ofstream out(path("odd.meta"));
    out << "no equals sign here\n"
        << "\n"
        << "good=value\n"
        << "   \n"
        << "another line without separator\n";
  }
  const auto meta = read_metadata_file(path("odd.meta"));
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->size(), 1u);
  EXPECT_EQ(meta->at("good"), "value");
}

TEST_F(MetadataTest, DuplicateKeysLastWins) {
  {
    std::ofstream out(path("dup.meta"));
    out << "state=running\n"
        << "samples=10\n"
        << "state=done\n"
        << "samples=4096\n";
  }
  const auto meta = read_metadata_file(path("dup.meta"));
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->size(), 2u);
  EXPECT_EQ(meta->at("state"), "done");
  EXPECT_EQ(meta->at("samples"), "4096");
}

TEST_F(MetadataTest, ValuesMayContainEquals) {
  // Only the FIRST '=' splits: error strings with '=' survive verbatim.
  {
    std::ofstream out(path("eq.meta"));
    out << "error=declared samples=5, got=3\n";
  }
  const auto meta = read_metadata_file(path("eq.meta"));
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->at("error"), "declared samples=5, got=3");
}

TEST_F(MetadataTest, SessionMetaWrittenByRunnerParsesBack) {
  // End-to-end: the session.meta the runner writes must round-trip
  // through read_metadata_file with its numeric fields intact.
  core::NmoConfig nmo;
  nmo.enable = true;
  nmo.mode = core::Mode::kAll;
  nmo.period = 512;
  sim::EngineConfig engine;
  engine.threads = 2;
  engine.machine.hierarchy.cores = 2;

  std::vector<SessionJob> jobs(1);
  jobs[0].name = "meta-roundtrip";
  jobs[0].nmo = nmo;
  jobs[0].engine = engine;
  jobs[0].with_baseline = false;
  jobs[0].make_workload = [] {
    wl::StreamConfig cfg;
    cfg.array_elems = 1 << 12;
    cfg.iterations = 1;
    return std::make_unique<wl::Stream>(cfg);
  };

  SessionStore store(path("store"));
  const auto results = run_sessions(store, jobs).results;
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].error.empty()) << results[0].error;

  const auto meta = read_metadata_file(results[0].session.dir + "/" +
                                       std::string(kSessionMetaFile));
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->at("state"), "done");
  EXPECT_EQ(meta->at("name"), results[0].session.name);
  EXPECT_EQ(meta->at("samples"), std::to_string(results[0].samples));
  EXPECT_EQ(meta->at("fingerprint"), results[0].fingerprint);
  // A local (non-streamed) run records no streaming keys.
  EXPECT_EQ(meta->count("streamed"), 0u);

  const auto sched = read_metadata_file(store.root() + "/" +
                                        std::string(kSchedulerMetaFile));
  ASSERT_TRUE(sched.has_value());
  EXPECT_EQ(sched->at("submitted"), "1");
  EXPECT_EQ(sched->at("completed"), "1");
}

}  // namespace
}  // namespace nmo::store
