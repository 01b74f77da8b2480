// SampleTrace edge cases (append/sort_canonical under empty traces,
// duplicate samples, already-sorted input, self-append) plus the
// corrupt-trace decode-robustness suite: every flavor of on-disk damage -
// truncation mid-block and mid-sample, overlong varints, out-of-range
// region ids, bad block markers, tampered MD5 footers, appended garbage -
// must fail the read with a message and never silently drop or invent a
// sample, for both format v1 (the checked-in fixture) and v2 files, with
// probe() agreeing with the full read on every fixture.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "core/trace.hpp"
#include "store/trace_file.hpp"

namespace nmo::core {
namespace {

TraceSample sample(std::uint64_t t, CoreId core, Addr vaddr = 0x1000) {
  TraceSample s;
  s.time_ns = t;
  s.core = core;
  s.vaddr = vaddr;
  s.pc = 0x400000 + (vaddr & 0xfff);
  s.latency = 10;
  return s;
}

std::string csv_of(const SampleTrace& t) {
  std::ostringstream out;
  t.write_csv(out);
  return out.str();
}

TEST(SampleTraceEdge, SortCanonicalOnEmptyTrace) {
  SampleTrace t;
  t.sort_canonical();  // must not crash
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.fingerprint(), "d41d8cd98f00b204e9800998ecf8427e");
}

TEST(SampleTraceEdge, AppendEmptyToEmpty) {
  SampleTrace a, b;
  a.append(b);
  EXPECT_TRUE(a.empty());
}

TEST(SampleTraceEdge, AppendEmptyLeavesTraceUnchanged) {
  SampleTrace a, empty;
  a.add(sample(1, 0));
  const std::string before = csv_of(a);
  a.append(empty);
  EXPECT_EQ(csv_of(a), before);
}

TEST(SampleTraceEdge, AppendToEmptyCopiesAll) {
  SampleTrace a, b;
  b.add(sample(2, 1));
  b.add(sample(1, 0));
  a.append(b);
  EXPECT_EQ(csv_of(a), csv_of(b));
}

TEST(SampleTraceEdge, SelfAppendDuplicatesSamples) {
  SampleTrace t;
  // Enough samples that insert-into-self would reallocate mid-copy.
  for (std::uint64_t i = 0; i < 100; ++i) t.add(sample(i, static_cast<CoreId>(i % 4)));
  const std::string before = csv_of(t);
  t.append(t);
  ASSERT_EQ(t.size(), 200u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(t.samples()[i].time_ns, t.samples()[100 + i].time_ns);
    EXPECT_EQ(t.samples()[i].core, t.samples()[100 + i].core);
  }
  // The first half is still the original trace.
  SampleTrace head;
  for (std::size_t i = 0; i < 100; ++i) head.add(t.samples()[i]);
  EXPECT_EQ(csv_of(head), before);
}

TEST(SampleTraceEdge, DuplicateSamplesSurviveCanonicalSort) {
  SampleTrace t;
  t.add(sample(5, 1));
  t.add(sample(5, 1));
  t.add(sample(1, 2));
  t.add(sample(5, 1));
  t.sort_canonical();
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t.samples()[0].time_ns, 1u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(t.samples()[i].time_ns, 5u);
    EXPECT_EQ(t.samples()[i].core, 1u);
  }
}

TEST(SampleTraceEdge, AlreadySortedInputIsUnchanged) {
  SampleTrace t;
  t.add(sample(1, 0));
  t.add(sample(1, 1));
  t.add(sample(2, 0, 0x1000));
  t.add(sample(2, 0, 0x2000));
  const std::string before = csv_of(t);
  const std::string md5_before = t.fingerprint();
  t.sort_canonical();
  EXPECT_EQ(csv_of(t), before);
  EXPECT_EQ(t.fingerprint(), md5_before);
}

TEST(SampleTraceEdge, CanonicalOrderIsPermutationInvariant) {
  std::vector<TraceSample> samples;
  for (std::uint64_t i = 0; i < 64; ++i) {
    samples.push_back(sample(i / 3, static_cast<CoreId>(i % 5), 0x1000 + 8 * (i % 7)));
  }
  SampleTrace a;
  for (const auto& s : samples) a.add(s);
  std::mt19937 rng(7);
  std::shuffle(samples.begin(), samples.end(), rng);
  SampleTrace b;
  for (const auto& s : samples) b.add(s);

  a.sort_canonical();
  b.sort_canonical();
  EXPECT_EQ(csv_of(a), csv_of(b));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(SampleTraceEdge, CanonicalLessIsStrictTotalOrder) {
  const TraceSample a = sample(1, 0);
  const TraceSample b = sample(1, 1);
  EXPECT_FALSE(canonical_less(a, a));
  EXPECT_TRUE(canonical_less(a, b));
  EXPECT_FALSE(canonical_less(b, a));
  // Ties on every field compare equal in both directions.
  const TraceSample c = a;
  EXPECT_FALSE(canonical_less(a, c));
  EXPECT_FALSE(canonical_less(c, a));
}

}  // namespace
}  // namespace nmo::core

namespace nmo::store {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------- corrupt-trace fixtures --
//
// Parameterized over the on-disk format version: every corruption must be
// rejected by the v1 and the v2 decode paths alike, and probe() must agree
// with the full read on every fixture (probe used to skip the end-of-stream
// checks read_footer makes).  No writer emits v1, so the v1 instance
// corrupts a copy of the checked-in tests/data/fixture_v1.nmot.

class CorruptTraceTest : public ::testing::TestWithParam<std::uint16_t> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("nmo_corrupt_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::uint16_t version() const { return GetParam(); }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Samples in write_fixture()'s file.
  [[nodiscard]] std::size_t fixture_samples() const {
    return version() == kTraceVersion1 ? 512 : 1200;
  }

  /// Writes a deterministic multi-block trace (several cores interleaved,
  /// enough samples for more than one block) in the parameterized version:
  /// for v1 a copy of the checked-in fixture, for v2 a fresh uncompressed
  /// file, so payload bytes sit at predictable offsets for surgical
  /// corruption.
  std::string write_fixture(const std::string& name) {
    const std::string p = path(name);
    if (version() == kTraceVersion1) {
      fs::copy_file(std::string(NMO_TEST_DATA_DIR) + "/fixture_v1.nmot", p);
      return p;
    }
    core::SampleTrace trace;
    for (std::size_t i = 0; i < fixture_samples(); ++i) {
      core::TraceSample s;
      s.time_ns = 1000 + 17 * i;
      s.core = static_cast<CoreId>(i % 4);
      s.vaddr = 0x10000000 + 64 * i;
      s.pc = 0x400000 + 4 * (i % 16);
      s.latency = static_cast<std::uint16_t>(10 + i % 50);
      s.region = static_cast<std::int32_t>(i % 3) - 1;
      trace.add(s);
    }
    TraceWriter writer(p, TraceWriter::Options{.compress = false});
    writer.write_all(trace);
    EXPECT_TRUE(writer.close()) << writer.error();
    return p;
  }

  static std::vector<char> slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  }

  static void dump(const std::string& p, const std::vector<char>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// The shared oracle: a corrupt file must fail the full read with a
  /// message, surrender no samples, and fail probe() the same way.
  static void expect_rejected(const std::string& p) {
    TraceReader reader(p);
    const auto all = reader.read_all();
    EXPECT_FALSE(reader.ok()) << p << ": corrupt file read cleanly";
    EXPECT_FALSE(reader.error().empty()) << p << ": rejection carries no message";
    EXPECT_TRUE(all.empty()) << p << ": samples from a corrupt file were not discarded";
    EXPECT_FALSE(TraceReader::probe(p).has_value())
        << p << ": probe accepts what the full read rejects";
  }

  fs::path dir_;
};

TEST_P(CorruptTraceTest, IntactFixtureReadsCleanly) {
  // Baseline: the fixture itself must be valid, or every case below would
  // pass vacuously.
  const std::string p = write_fixture("ok.nmot");
  TraceReader reader(p);
  const auto all = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(all.size(), fixture_samples());
  EXPECT_EQ(reader.info().version, version());
  const auto probed = TraceReader::probe(p);
  ASSERT_TRUE(probed.has_value());
  EXPECT_EQ(probed->samples, fixture_samples());
  EXPECT_EQ(probed->fingerprint, reader.info().fingerprint);
}

TEST_P(CorruptTraceTest, TruncatedMidBlockIsRejected) {
  const std::string p = write_fixture("t.nmot");
  // Cut deep inside the block region (well before the footer): the open
  // block can never complete.
  fs::resize_file(p, fs::file_size(p) / 2);
  expect_rejected(p);
}

TEST_P(CorruptTraceTest, TruncatedMidSampleIsRejected) {
  const std::string p = write_fixture("t.nmot");
  // A handful of bytes past the first block header lands inside the first
  // sample's varints (v1) / inside the block payload (v2).
  fs::resize_file(p, 8 + 6);
  expect_rejected(p);
}

TEST_P(CorruptTraceTest, BadBlockMarkerIsRejected) {
  const std::string p = write_fixture("t.nmot");
  auto bytes = slurp(p);
  bytes[8] = '\x00';  // first block marker follows the 8-byte header
  dump(p, bytes);
  expect_rejected(p);
}

TEST_P(CorruptTraceTest, TamperedMd5FooterIsRejected) {
  const std::string p = write_fixture("t.nmot");
  auto bytes = slurp(p);
  // Footer layout from the end: [marker][count u64][md5 16][v2: index u64]
  // [end magic u32]; flip a digest byte without touching the framing.
  const std::size_t footer = version() == kTraceVersion1 ? 29 : 37;
  const std::size_t md5_at = bytes.size() - footer + 1 + 8;
  bytes[md5_at + 3] = static_cast<char>(bytes[md5_at + 3] ^ 0x5a);
  dump(p, bytes);

  TraceReader reader(p);
  const auto all = reader.read_all();
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("fingerprint"), std::string::npos) << reader.error();
  EXPECT_TRUE(all.empty());
  // probe() is a *structural* check and does not decode samples, so a
  // digest-only tamper passes it - that asymmetry is by design and is why
  // `nmo-trace verify` exists.
  EXPECT_TRUE(TraceReader::probe(p).has_value());
}

TEST_P(CorruptTraceTest, AppendedGarbageFailsProbeAndReadAlike) {
  // The regression this suite pins down: a stale footer (or any garbage
  // whose tail looks like one) appended after a valid trace used to pass
  // probe() - which trusted the last bytes of the file - while the full
  // read rejected it.  Both must reject it now.
  const std::string p = write_fixture("t.nmot");
  auto bytes = slurp(p);
  const std::size_t footer = version() == kTraceVersion1 ? 29 : 37;
  // Append a byte-exact copy of the file's own footer: the strongest decoy.
  bytes.insert(bytes.end(), bytes.end() - static_cast<std::ptrdiff_t>(footer), bytes.end());
  dump(p, bytes);
  expect_rejected(p);
}

TEST_P(CorruptTraceTest, OverlongVarintIsRejected) {
  // Handcrafted minimal file whose first sample's time delta is a 10-byte
  // varint with payload bits above bit 63: the decoded value cannot fit,
  // so accepting it would silently alias the high bits away (the read_varint
  // bug this issue fixes).
  std::vector<unsigned char> bytes = {0x4e, 0x4d, 0x4f, 0x54,  // "NMOT"
                                      0x00, 0x00, 0x00, 0x00};
  bytes[4] = static_cast<unsigned char>(version());
  const std::vector<unsigned char> overlong = {0x80, 0x80, 0x80, 0x80, 0x80,
                                               0x80, 0x80, 0x80, 0x80, 0x7f};
  bytes.push_back(0xb7);  // block marker
  if (version() == kTraceVersion1) {
    bytes.push_back(0x00);  // core 0
    bytes.push_back(0x01);  // count 1
    bytes.insert(bytes.end(), overlong.begin(), overlong.end());  // time delta
  } else {
    bytes.push_back(0x01);                                   // count 1
    bytes.push_back(0x00);                                   // codec raw
    bytes.push_back(0x01);                                   // one core
    bytes.insert(bytes.end(), {0x00, 0x00, 0x00, 0x00});     // core 0, zero bases
    const unsigned char payload_len = 10 + 5;                // overlong time + 5 more fields
    bytes.push_back(payload_len);                            // raw_bytes
    bytes.push_back(payload_len);                            // stored_bytes
    bytes.push_back(0x00);                                   // sample: core slot 0
    bytes.insert(bytes.end(), overlong.begin(), overlong.end());  // time delta
    bytes.insert(bytes.end(), {0x00, 0x00, 0x00, 0x00});     // vaddr, pc, packed, latency
    // (region omitted: the overlong varint fails the read first)
  }
  const std::string p = path("overlong.nmot");
  std::ofstream out(p, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();

  TraceReader reader(p);
  core::TraceSample s;
  EXPECT_FALSE(reader.next(s));
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("overlong"), std::string::npos) << reader.error();
  EXPECT_FALSE(TraceReader::probe(p).has_value());
}

TEST_P(CorruptTraceTest, OutOfRangeRegionIsRejected) {
  // A region whose zigzag decodes beyond int32 (here 2^33) used to be cast
  // straight to int32_t, aliasing into a valid-looking id; the reader must
  // fail the sample instead.
  std::vector<unsigned char> bytes = {0x4e, 0x4d, 0x4f, 0x54,
                                      0x00, 0x00, 0x00, 0x00};
  bytes[4] = static_cast<unsigned char>(version());
  // varint of zigzag(2^33) = 2^34: five 0x80s then 0x01.
  const std::vector<unsigned char> big_region = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  // One sample, all-zero deltas: time/vaddr/pc 0, packed 0 (load/L1),
  // latency 0, then the oversized region.
  std::vector<unsigned char> sample = {0x00, 0x00, 0x00, 0x00, 0x00};
  sample.insert(sample.end(), big_region.begin(), big_region.end());
  bytes.push_back(0xb7);
  if (version() == kTraceVersion1) {
    bytes.push_back(0x00);  // core 0
    bytes.push_back(0x01);  // count 1
    bytes.insert(bytes.end(), sample.begin(), sample.end());
  } else {
    bytes.push_back(0x01);                                // count 1
    bytes.push_back(0x00);                                // codec raw
    bytes.push_back(0x01);                                // one core
    bytes.insert(bytes.end(), {0x00, 0x00, 0x00, 0x00});  // core 0, zero bases
    const auto payload_len = static_cast<unsigned char>(1 + sample.size());
    bytes.push_back(payload_len);  // raw_bytes
    bytes.push_back(payload_len);  // stored_bytes
    bytes.push_back(0x00);         // core slot 0
    bytes.insert(bytes.end(), sample.begin(), sample.end());
  }
  const std::string p = path("region.nmot");
  std::ofstream out(p, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();

  TraceReader reader(p);
  core::TraceSample s;
  EXPECT_FALSE(reader.next(s));
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("region"), std::string::npos) << reader.error();
}

TEST_P(CorruptTraceTest, FooterCountMismatchIsRejected) {
  const std::string p = write_fixture("t.nmot");
  auto bytes = slurp(p);
  const std::size_t footer = version() == kTraceVersion1 ? 29 : 37;
  // Bump the footer's declared sample count by one.
  bytes[bytes.size() - footer + 1] =
      static_cast<char>(static_cast<unsigned char>(bytes[bytes.size() - footer + 1]) + 1);
  dump(p, bytes);
  expect_rejected(p);
}

INSTANTIATE_TEST_SUITE_P(Formats, CorruptTraceTest,
                         ::testing::Values(kTraceVersion1, kTraceVersion2),
                         [](const ::testing::TestParamInfo<std::uint16_t>& info) {
                           return "v" + std::to_string(info.param);
                         });

// --------------------------------------------- index-metadata tampering ----
//
// The meta section sits between the index and the footer, so tampering is
// done by writing a metadata-free v2 file and splicing hand-built section
// bytes in front of the footer.  Structural damage (bad counts, level sums,
// empty bitmaps, truncation) must fail probe() and the full read alike;
// metadata that is structurally fine but *lies* about the samples can only
// be caught by decoding them, so it fails the full read while passing
// probe() - the same asymmetry as a tampered MD5 footer.

class MetaTamperTest : public CorruptTraceTest {
 protected:
  /// v2, uncompressed, `index_meta` off: a valid file with no meta section,
  /// ready for splicing.
  std::string write_meta_free_fixture(const std::string& name) {
    core::SampleTrace trace;
    for (std::size_t i = 0; i < 1200; ++i) {
      core::TraceSample s;
      s.time_ns = 1000 + 17 * i;
      s.core = static_cast<CoreId>(i % 4);
      s.vaddr = 0x10000000 + 64 * i;
      s.pc = 0x400000 + 4 * (i % 16);
      s.latency = static_cast<std::uint16_t>(10 + i % 50);
      s.region = static_cast<std::int32_t>(i % 3) - 1;
      trace.add(s);
    }
    const std::string p = path(name);
    TraceWriter writer(p, TraceWriter::Options{.compress = false, .index_meta = false});
    writer.write_all(trace);
    EXPECT_TRUE(writer.close()) << writer.error();
    return p;
  }

  /// What the writer would have recorded: fold the decoded samples block by
  /// block with the same absorb() the writer uses.
  static std::vector<BlockMeta> true_meta(const std::string& p) {
    std::vector<BlockMeta> meta;
    TraceReader index_reader(p);
    EXPECT_TRUE(index_reader.load_index()) << index_reader.error();
    TraceReader reader(p);
    const auto all = reader.read_all();
    EXPECT_TRUE(reader.ok()) << reader.error();
    std::size_t at = 0;
    for (const auto& entry : index_reader.block_index()) {
      BlockMeta m;
      for (std::uint32_t i = 0; i < entry.samples; ++i) m.absorb(all.samples()[at++]);
      meta.push_back(m);
    }
    return meta;
  }

  static void put_varint(std::vector<char>& out, std::uint64_t v) {
    while (v >= 0x80) {
      out.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out.push_back(static_cast<char>(v));
  }

  /// Encodes a meta section; `declared_count` defaults to entries.size()
  /// (pass something else to lie about it).
  static std::vector<char> encode_meta(const std::vector<BlockMeta>& entries,
                                       std::size_t declared_count = std::size_t(-1)) {
    std::vector<char> out;
    out.push_back(static_cast<char>(0xad));  // kMetaMarker
    put_varint(out, declared_count == std::size_t(-1) ? entries.size() : declared_count);
    for (const auto& m : entries) {
      put_varint(out, m.min_time);
      put_varint(out, m.max_time - m.min_time);
      put_varint(out, m.min_addr);
      put_varint(out, m.max_addr - m.min_addr);
      for (std::size_t l = 0; l < kNumMemLevels; ++l) put_varint(out, m.level_samples[l]);
      put_varint(out, m.region_bits);
    }
    return out;
  }

  /// Splices `meta` bytes between the index and the 37-byte v2 footer.
  static void splice(const std::string& p, const std::vector<char>& meta) {
    auto bytes = slurp(p);
    bytes.insert(bytes.end() - 37, meta.begin(), meta.end());
    dump(p, bytes);
  }
};

TEST_P(MetaTamperTest, SplicedTruthfulMetadataReadsCleanly) {
  // Baseline for every case below: the splicing technique itself must
  // produce a file the reader accepts and reports metadata for.
  const std::string p = write_meta_free_fixture("ok.nmot");
  splice(p, encode_meta(true_meta(p)));
  TraceReader reader(p);
  const auto all = reader.read_all();
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(all.size(), 1200u);
  TraceReader index_reader(p);
  ASSERT_TRUE(index_reader.load_index()) << index_reader.error();
  EXPECT_TRUE(index_reader.has_block_meta());
}

TEST_P(MetaTamperTest, LyingRegionBitmapFailsReadButPassesProbe) {
  const std::string p = write_meta_free_fixture("t.nmot");
  auto meta = true_meta(p);
  meta[1].region_bits ^= std::uint64_t{1} << 8;  // claim region 7 lives there
  splice(p, encode_meta(meta));

  TraceReader reader(p);
  const auto all = reader.read_all();
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("disagrees with decoded block contents"), std::string::npos)
      << reader.error();
  EXPECT_TRUE(all.empty());
  // Structurally the section is fine; only decoding exposes the lie.
  EXPECT_TRUE(TraceReader::probe(p).has_value());
}

TEST_P(MetaTamperTest, LyingLevelMixFailsReadButPassesProbe) {
  const std::string p = write_meta_free_fixture("t.nmot");
  auto meta = true_meta(p);
  // Move one sample's worth of count between levels: the per-block sum
  // still matches the index, so every structural check passes.
  ASSERT_GT(meta[0].level_samples[0], 0u);
  meta[0].level_samples[0] -= 1;
  meta[0].level_samples[1] += 1;
  splice(p, encode_meta(meta));

  TraceReader reader(p);
  const auto all = reader.read_all();
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("disagrees with decoded block contents"), std::string::npos)
      << reader.error();
  EXPECT_TRUE(all.empty());
  EXPECT_TRUE(TraceReader::probe(p).has_value());
}

TEST_P(MetaTamperTest, BlockCountMismatchIsRejectedByBoth) {
  const std::string p = write_meta_free_fixture("t.nmot");
  auto meta = true_meta(p);
  meta.pop_back();  // one entry short, count encoded to match the lie
  splice(p, encode_meta(meta));
  expect_rejected(p);
}

TEST_P(MetaTamperTest, LevelSumMismatchIsRejectedByBoth) {
  const std::string p = write_meta_free_fixture("t.nmot");
  auto meta = true_meta(p);
  meta[0].level_samples[2] += 1;  // sum no longer equals the block's samples
  splice(p, encode_meta(meta));
  expect_rejected(p);
}

TEST_P(MetaTamperTest, EmptyRegionBitmapIsRejectedByBoth) {
  const std::string p = write_meta_free_fixture("t.nmot");
  auto meta = true_meta(p);
  meta[0].region_bits = 0;  // a non-empty block always touches some region
  splice(p, encode_meta(meta));
  expect_rejected(p);
}

TEST_P(MetaTamperTest, TruncatedMetadataIsRejectedByBoth) {
  const std::string p = write_meta_free_fixture("t.nmot");
  auto meta_bytes = encode_meta(true_meta(p));
  meta_bytes.resize(meta_bytes.size() - 2);  // chop mid-entry
  splice(p, meta_bytes);
  expect_rejected(p);
}

TEST_P(MetaTamperTest, TrailingBytesAfterMetadataAreRejectedByBoth) {
  const std::string p = write_meta_free_fixture("t.nmot");
  auto meta_bytes = encode_meta(true_meta(p));
  meta_bytes.push_back('\x00');  // slack between section end and footer
  splice(p, meta_bytes);
  expect_rejected(p);
}

INSTANTIATE_TEST_SUITE_P(V2, MetaTamperTest, ::testing::Values(kTraceVersion2),
                         [](const ::testing::TestParamInfo<std::uint16_t>& info) {
                           return "v" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace nmo::store
