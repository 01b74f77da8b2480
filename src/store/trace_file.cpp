#include "store/trace_file.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>

namespace nmo::store {
namespace {

// --- little-endian fixed-width + LEB128 varint codec ------------------------

void put_bytes(std::vector<std::byte>& out, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<std::byte>(v & 0xff));
    v >>= 8;
  }
}

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Signed delta between two u64 counters (wrap-around safe).
std::uint64_t delta_of(std::uint64_t value, std::uint64_t base) {
  return zigzag(static_cast<std::int64_t>(value - base));
}

std::uint64_t apply_delta(std::uint64_t base, std::uint64_t encoded) {
  return base + static_cast<std::uint64_t>(unzigzag(encoded));
}

void write_raw(std::ofstream& out, const void* data, std::size_t n) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

bool read_raw(std::ifstream& in, void* data, std::size_t n) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(in.gcount()) == n;
}

bool read_fixed(std::ifstream& in, std::uint64_t& v, std::size_t n) {
  std::array<unsigned char, 8> buf{};
  if (!read_raw(in, buf.data(), n)) return false;
  v = 0;
  for (std::size_t i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  return true;
}

/// Why a varint read stopped.  kOverflow - a 10th byte whose payload bits do
/// not fit in the 64-bit value, or a continuation bit past the 10th byte -
/// means the bytes cannot be a value this format ever wrote: corruption, not
/// truncation, and the two must fail with different messages.
enum class VarintResult { kOk, kEof, kOverflow };

VarintResult read_varint(std::ifstream& in, std::uint64_t& v) {
  v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    const int c = in.get();
    if (c == std::ifstream::traits_type::eof()) return VarintResult::kEof;
    const auto bits = static_cast<std::uint64_t>(c & 0x7f);
    // At shift 63 only the low bit of the final byte lands inside the value;
    // anything above it would be silently shifted out.
    if (shift == 63 && bits > 1) return VarintResult::kOverflow;
    v |= bits << shift;
    if ((c & 0x80) == 0) return VarintResult::kOk;
  }
  return VarintResult::kOverflow;  // continuation bit past the 10th byte
}

VarintResult read_varint(std::span<const std::byte> buf, std::size_t& pos, std::uint64_t& v) {
  v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (pos >= buf.size()) return VarintResult::kEof;
    const auto c = std::to_integer<unsigned>(buf[pos++]);
    const auto bits = static_cast<std::uint64_t>(c & 0x7f);
    if (shift == 63 && bits > 1) return VarintResult::kOverflow;
    v |= bits << shift;
    if ((c & 0x80) == 0) return VarintResult::kOk;
  }
  return VarintResult::kOverflow;
}

/// `core` must already be validated against kMaxCores.
detail::CorePredictor& predictor_for(std::vector<detail::CorePredictor>& predictors,
                                     CoreId core) {
  if (core >= predictors.size()) predictors.resize(static_cast<std::size_t>(core) + 1);
  return predictors[core];
}

constexpr std::size_t kHeaderBytes = 4 + 2 + 2;
/// v1 footer: marker + u64 count + 16-byte MD5 + end magic.
constexpr std::size_t kFooterV1Bytes = 1 + 8 + 16 + 4;
/// v2 footer: v1 fields + u64 index offset (before the end magic).
constexpr std::size_t kFooterV2Bytes = kFooterV1Bytes + 8;
/// Worst-case encoded sample: a 2-byte core slot, three 10-byte varint
/// deltas, the packed op/level byte, a 3-byte latency and a 5-byte region.
/// Bounds a v2 block's declared raw payload so a corrupt header cannot
/// demand an absurd decode buffer.
constexpr std::size_t kMaxSampleEncodedBytes = 2 + 10 + 10 + 10 + 1 + 3 + 5;
constexpr std::uint64_t kMaxBlockRawBytes =
    TraceWriter::kMaxBlockSamples * kMaxSampleEncodedBytes;

bool same_blocks(const std::vector<BlockIndexEntry>& a, const std::vector<BlockIndexEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].offset != b[i].offset || a[i].core != b[i].core || a[i].samples != b[i].samples) {
      return false;
    }
  }
  return true;
}

/// Parses the index entries following a consumed kIndexMarker byte.
/// Validates per-entry ranges and strictly increasing offsets; contextual
/// checks (offsets inside the block region, counts summing to the footer
/// count) are the caller's.
bool parse_index_entries(std::ifstream& in, std::vector<BlockIndexEntry>& out,
                         std::string& message) {
  out.clear();
  std::uint64_t blocks = 0;
  if (read_varint(in, blocks) != VarintResult::kOk) {
    message = "truncated block index";
    return false;
  }
  // Every block holds at least one sample, so the count can never exceed
  // what a file of any plausible size could store; this bound just stops a
  // corrupt header from driving a near-infinite parse loop.
  if (blocks > (std::uint64_t{1} << 40)) {
    message = "corrupt block index: absurd block count";
    return false;
  }
  // Reserve conservatively: a corrupt header may declare a huge count that
  // must fail as "corrupt" (entries run out of file bytes), never as an
  // attempted terabyte allocation.
  out.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(blocks, 1u << 16)));
  std::uint64_t offset = 0;
  for (std::uint64_t i = 0; i < blocks; ++i) {
    std::uint64_t delta = 0, core = 0, count = 0;
    if (read_varint(in, delta) != VarintResult::kOk || read_varint(in, core) != VarintResult::kOk ||
        read_varint(in, count) != VarintResult::kOk) {
      message = "truncated block index";
      return false;
    }
    offset = i == 0 ? delta : offset + delta;
    if (i > 0 && delta == 0) {
      message = "corrupt block index: offsets not increasing";
      return false;
    }
    if (core >= kMaxCores || count == 0 || count > TraceWriter::kMaxBlockSamples) {
      message = "corrupt block index entry";
      return false;
    }
    out.push_back(BlockIndexEntry{offset, static_cast<CoreId>(core),
                                  static_cast<std::uint32_t>(count)});
  }
  return true;
}

/// Parses the metadata entries following a consumed kMetaMarker byte,
/// holding each one to the structural invariants the writer guarantees:
/// one entry per index block, per-level counts partitioning exactly the
/// block's sample count, bounds that do not overflow, a non-empty region
/// bitmap.  Whether the summaries describe the *decoded* samples is the
/// full read's cross-check, not this parser's.
bool parse_meta_entries(std::ifstream& in, const std::vector<BlockIndexEntry>& index,
                        std::vector<BlockMeta>& out, std::string& message) {
  out.clear();
  std::uint64_t blocks = 0;
  if (read_varint(in, blocks) != VarintResult::kOk) {
    message = "truncated index metadata";
    return false;
  }
  if (blocks != index.size()) {
    message = "corrupt index metadata: block count disagrees with the index";
    return false;
  }
  out.reserve(index.size());
  for (std::uint64_t i = 0; i < blocks; ++i) {
    BlockMeta m;
    std::uint64_t time_span = 0, addr_span = 0;
    if (read_varint(in, m.min_time) != VarintResult::kOk ||
        read_varint(in, time_span) != VarintResult::kOk ||
        read_varint(in, m.min_addr) != VarintResult::kOk ||
        read_varint(in, addr_span) != VarintResult::kOk) {
      message = "truncated index metadata";
      return false;
    }
    if (time_span > std::numeric_limits<std::uint64_t>::max() - m.min_time ||
        addr_span > std::numeric_limits<Addr>::max() - m.min_addr) {
      message = "corrupt index metadata: bounds overflow";
      return false;
    }
    m.max_time = m.min_time + time_span;
    m.max_addr = m.min_addr + addr_span;
    std::uint64_t total = 0;
    for (std::size_t l = 0; l < kNumMemLevels; ++l) {
      if (read_varint(in, m.level_samples[l]) != VarintResult::kOk) {
        message = "truncated index metadata";
        return false;
      }
      if (m.level_samples[l] > index[i].samples) {
        message = "corrupt index metadata: level count exceeds the block's samples";
        return false;
      }
      total += m.level_samples[l];
    }
    if (total != index[i].samples) {
      message = "corrupt index metadata: level counts do not sum to the block's samples";
      return false;
    }
    if (read_varint(in, m.region_bits) != VarintResult::kOk) {
      message = "truncated index metadata";
      return false;
    }
    // Every block holds at least one sample and every sample sets a bit.
    if (m.region_bits == 0) {
      message = "corrupt index metadata: empty region bitmap";
      return false;
    }
    out.push_back(m);
  }
  return true;
}

/// Loads a v2 trace's index + footer from the end of the file (header must
/// already be validated).  Validates the footer magic/marker, the index
/// location and every structural invariant tying the two together.  `meta`
/// is filled when the optional metadata section is present (and left empty
/// for files that predate it).
bool load_index_from_end(std::ifstream& in, TraceFileInfo& info,
                         std::vector<BlockIndexEntry>& index, std::vector<BlockMeta>& meta,
                         std::string& message) {
  in.clear();
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  // Minimum v2 file: header + empty index (marker + zero count) + footer.
  if (size < kHeaderBytes + 2 + kFooterV2Bytes) {
    message = "truncated footer";
    return false;
  }
  const std::uint64_t footer_at = size - kFooterV2Bytes;
  in.seekg(static_cast<std::streamoff>(footer_at));
  if (in.get() != kFooterMarker) {
    message = "bad footer marker";
    return false;
  }
  std::uint64_t declared = 0;
  std::array<std::uint8_t, 16> digest{};
  std::uint64_t index_offset = 0, end_magic = 0;
  if (!read_fixed(in, declared, 8) || !read_raw(in, digest.data(), digest.size()) ||
      !read_fixed(in, index_offset, 8) || !read_fixed(in, end_magic, 4)) {
    message = "truncated footer";
    return false;
  }
  if (end_magic != kTraceEndMagic) {
    message = "bad end magic";
    return false;
  }
  if (index_offset < kHeaderBytes || index_offset + 1 > footer_at) {
    message = "corrupt footer: index offset out of range";
    return false;
  }
  in.seekg(static_cast<std::streamoff>(index_offset));
  if (in.get() != kIndexMarker) {
    message = "corrupt footer: index offset does not point at a block index";
    return false;
  }
  if (!parse_index_entries(in, index, message)) return false;
  meta.clear();
  if (static_cast<std::uint64_t>(in.tellg()) != footer_at) {
    // Only the optional metadata section may sit between index and footer.
    if (in.get() != kMetaMarker) {
      message = "corrupt block index: index does not end at the footer";
      return false;
    }
    if (!parse_meta_entries(in, index, meta, message)) return false;
    if (static_cast<std::uint64_t>(in.tellg()) != footer_at) {
      message = "corrupt index metadata: section does not end at the footer";
      return false;
    }
  }
  std::uint64_t total = 0;
  for (const auto& entry : index) {
    if (entry.offset < kHeaderBytes || entry.offset >= index_offset) {
      message = "corrupt block index: block offset out of range";
      return false;
    }
    // Each indexed offset must land on an actual block marker - a one-byte
    // read per block keeps the check O(blocks) while catching blocks whose
    // framing was stomped (the full read rejects those too, and probe and
    // read must agree).
    in.seekg(static_cast<std::streamoff>(entry.offset));
    if (in.get() != kBlockMarker) {
      message = "corrupt block index: entry does not point at a block marker";
      return false;
    }
    total += entry.samples;
  }
  if (total != declared) {
    message = "corrupt block index: sample counts disagree with the footer";
    return false;
  }
  info.samples = declared;
  info.fingerprint = Md5::to_hex(digest);
  return true;
}

/// Walks a v1 file's blocks structurally - varint well-formedness and block
/// framing only, no delta/digest work - and validates the footer the walk
/// lands on, including the trailing-bytes check a full read performs.  This
/// is O(file): v1 blocks carry no length, which is exactly why v2 exists.
std::optional<TraceFileInfo> probe_v1(std::ifstream& in) {
  std::uint64_t total = 0;
  for (;;) {
    const int marker = in.get();
    if (marker == std::ifstream::traits_type::eof()) return std::nullopt;
    if (marker == kFooterMarker) break;
    if (marker != kBlockMarker) return std::nullopt;
    std::uint64_t core = 0, count = 0;
    if (read_varint(in, core) != VarintResult::kOk ||
        read_varint(in, count) != VarintResult::kOk) {
      return std::nullopt;
    }
    if (core >= kMaxCores || count == 0 || count > TraceWriter::kMaxBlockSamples) {
      return std::nullopt;
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t skip = 0;
      if (read_varint(in, skip) != VarintResult::kOk ||
          read_varint(in, skip) != VarintResult::kOk ||
          read_varint(in, skip) != VarintResult::kOk) {
        return std::nullopt;
      }
      if (in.get() == std::ifstream::traits_type::eof()) return std::nullopt;  // op/level
      if (read_varint(in, skip) != VarintResult::kOk ||
          read_varint(in, skip) != VarintResult::kOk) {
        return std::nullopt;
      }
    }
    total += count;
  }
  TraceFileInfo info;
  info.version = kTraceVersion1;
  std::array<std::uint8_t, 16> digest{};
  std::uint64_t end_magic = 0;
  if (!read_fixed(in, info.samples, 8) || !read_raw(in, digest.data(), digest.size()) ||
      !read_fixed(in, end_magic, 4) || end_magic != kTraceEndMagic) {
    return std::nullopt;
  }
  // The same end-of-stream checks read_footer makes: the footer the block
  // walk found must be the last bytes of the file, and its count must match
  // the blocks - appended garbage or a stale duplicated footer fails the
  // probe exactly as it fails a full read.
  if (in.peek() != std::ifstream::traits_type::eof()) return std::nullopt;
  if (info.samples != total) return std::nullopt;
  info.fingerprint = Md5::to_hex(digest);
  return info;
}

}  // namespace

// --- TraceWriter ------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path) : TraceWriter(path, Options()) {}

TraceWriter::TraceWriter(const std::string& path, Options options)
    : out_(path, std::ios::binary | std::ios::trunc), options_(options) {
  if (!out_) {
    error_ = "cannot open " + path + " for writing";
    closed_ = true;
    return;
  }
  std::vector<std::byte> header;
  put_bytes(header, kTraceMagic, 4);
  put_bytes(header, kTraceVersion, 2);
  put_bytes(header, 0, 2);  // reserved
  write_raw(out_, header.data(), header.size());
  write_offset_ = header.size();
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::add(const core::TraceSample& s) {
  if (closed_) {
    // Make misuse loud: without an error the caller's ok()/close() signals
    // would still report success while samples silently vanish.
    if (error_.empty()) error_ = "add after close";
    return;
  }
  if (!ok()) return;
  if (s.core >= kMaxCores) {
    error_ = "core id " + std::to_string(s.core) + " exceeds the format limit";
    return;
  }
  if (s.region < -1) {
    // The reader enforces region >= -1; accepting such a sample here would
    // produce a file our own reader rejects as corrupt.
    error_ = "region id " + std::to_string(s.region) + " is below the format's -1 floor";
    return;
  }
  // Blocks interleave cores freely; only fullness closes one.
  if (block_count_ >= kMaxBlockSamples) flush_block();
  std::size_t slot = 0;
  while (slot < block_cores_.size() && block_cores_[slot].core != s.core) ++slot;
  if (slot == block_cores_.size()) {
    // First appearance in this block: snapshot the core's predictor as its
    // delta base, written into the block header so the block decodes alone.
    block_cores_.push_back(detail::BlockCoreBase{s.core, predictor_for(predictors_, s.core)});
  }
  put_varint(block_, slot);

  auto& pred = predictor_for(predictors_, s.core);
  put_varint(block_, delta_of(s.time_ns, pred.time_ns));
  put_varint(block_, delta_of(s.vaddr, pred.vaddr));
  put_varint(block_, delta_of(s.pc, pred.pc));
  block_.push_back(static_cast<std::byte>((static_cast<unsigned>(s.op) << 4) |
                                          static_cast<unsigned>(s.level)));
  put_varint(block_, s.latency);
  put_varint(block_, zigzag(s.region));
  pred.time_ns = s.time_ns;
  pred.vaddr = s.vaddr;
  pred.pc = s.pc;

  core::fingerprint_update(md5_, s);
  block_meta_.absorb(s);
  ++count_;
  ++block_count_;
}

void TraceWriter::write_all(const core::SampleTrace& trace) {
  for (const auto& s : trace.samples()) add(s);
}

void TraceWriter::flush_block() {
  if (block_count_ == 0) return;
  std::vector<std::byte> head;
  head.push_back(static_cast<std::byte>(kBlockMarker));
  const std::byte* payload = block_.data();
  std::size_t payload_size = block_.size();
  std::vector<std::byte> packed;
  auto codec = BlockCodec::kRaw;
  if (options_.compress) {
    packed = lz_compress(block_.data(), block_.size());
    // Store compressed only when it actually shrinks the block, so the
    // codec can never grow a file (incompressible payloads stay raw).
    if (packed.size() < block_.size()) {
      codec = BlockCodec::kLz;
      payload = packed.data();
      payload_size = packed.size();
    }
  }
  put_varint(head, block_count_);
  head.push_back(static_cast<std::byte>(codec));
  put_varint(head, block_cores_.size());
  for (const auto& entry : block_cores_) {
    put_varint(head, entry.core);
    put_varint(head, entry.base.time_ns);
    put_varint(head, entry.base.vaddr);
    put_varint(head, entry.base.pc);
  }
  put_varint(head, block_.size());
  put_varint(head, payload_size);
  index_.push_back(BlockIndexEntry{write_offset_, block_cores_.front().core, block_count_});
  meta_.push_back(block_meta_);
  block_meta_ = BlockMeta{};
  if (observer_) {
    // The tee must see the very bytes the file gets: one contiguous span of
    // marker + header + payload, written to disk from the same buffer so
    // the two can never diverge.
    observed_.clear();
    observed_.insert(observed_.end(), head.begin(), head.end());
    observed_.insert(observed_.end(), payload, payload + payload_size);
    write_raw(out_, observed_.data(), observed_.size());
    observer_(std::span<const std::byte>(observed_.data(), observed_.size()), block_count_,
              block_cores_.front().core);
  } else {
    write_raw(out_, head.data(), head.size());
    write_raw(out_, payload, payload_size);
  }
  write_offset_ += head.size() + payload_size;
  block_.clear();
  block_cores_.clear();
  block_count_ = 0;
}

bool TraceWriter::close() {
  if (closed_) return ok();
  if (!ok()) {
    // A sticky add() error means samples were dropped; withholding the
    // footer keeps the partial file rejectable instead of letting it
    // validate as a complete (but silently truncated) trace.
    abandon();
    return false;
  }
  closed_ = true;
  flush_block();

  const std::uint64_t index_offset = write_offset_;
  std::vector<std::byte> section;
  section.push_back(static_cast<std::byte>(kIndexMarker));
  put_varint(section, index_.size());
  std::uint64_t prev = 0;
  for (const auto& entry : index_) {
    // Offsets are strictly increasing; deltas keep the entries tiny.
    put_varint(section, entry.offset - prev);
    prev = entry.offset;
    put_varint(section, entry.core);
    put_varint(section, entry.samples);
  }
  write_raw(out_, section.data(), section.size());
  write_offset_ += section.size();

  if (options_.index_meta) {
    // The metadata section rides between the index and the footer; the
    // footer's index offset still names the index marker, so readers that
    // predate the section never see it and the footer layout is untouched.
    std::vector<std::byte> meta;
    meta.push_back(static_cast<std::byte>(kMetaMarker));
    put_varint(meta, meta_.size());
    for (const auto& m : meta_) {
      put_varint(meta, m.min_time);
      put_varint(meta, m.max_time - m.min_time);
      put_varint(meta, m.min_addr);
      put_varint(meta, m.max_addr - m.min_addr);
      for (std::size_t l = 0; l < kNumMemLevels; ++l) put_varint(meta, m.level_samples[l]);
      put_varint(meta, m.region_bits);
    }
    write_raw(out_, meta.data(), meta.size());
    write_offset_ += meta.size();
  }

  const auto digest = md5_.digest();
  fingerprint_ = Md5::to_hex(digest);
  std::vector<std::byte> footer;
  footer.push_back(static_cast<std::byte>(kFooterMarker));
  put_bytes(footer, count_, 8);
  for (const std::uint8_t b : digest) footer.push_back(static_cast<std::byte>(b));
  put_bytes(footer, index_offset, 8);
  put_bytes(footer, kTraceEndMagic, 4);
  write_raw(out_, footer.data(), footer.size());
  out_.flush();
  if (!out_) error_ = "write failed";
  out_.close();
  return ok();
}

void TraceWriter::abandon() {
  if (closed_) return;
  closed_ = true;
  out_.close();
  if (error_.empty()) error_ = "abandoned before close";
}

// --- TraceReader ------------------------------------------------------------

TraceReader::TraceReader(const std::string& path) : in_(path, std::ios::binary) {
  if (!in_) {
    fail("cannot open " + path);
    return;
  }
  std::uint64_t magic = 0, version = 0, reserved = 0;
  if (!read_fixed(in_, magic, 4) || !read_fixed(in_, version, 2) ||
      !read_fixed(in_, reserved, 2)) {
    fail("truncated header");
    return;
  }
  if (magic != kTraceMagic) {
    fail("bad magic: not an nmo trace file");
    return;
  }
  if (version != kTraceVersion1 && version != kTraceVersion2) {
    fail("unsupported trace version " + std::to_string(version));
    return;
  }
  info_.version = static_cast<std::uint16_t>(version);
}

void TraceReader::fail(std::string message) {
  error_ = std::move(message);
  done_ = true;
}

bool TraceReader::read_footer(std::uint64_t index_offset_seen) {
  std::uint64_t declared = 0;
  if (!read_fixed(in_, declared, 8)) {
    fail("truncated footer");
    return false;
  }
  std::array<std::uint8_t, 16> stored{};
  if (!read_raw(in_, stored.data(), stored.size())) {
    fail("truncated footer");
    return false;
  }
  if (info_.version == kTraceVersion2) {
    std::uint64_t index_offset = 0;
    if (!read_fixed(in_, index_offset, 8)) {
      fail("truncated footer");
      return false;
    }
    if (index_offset != index_offset_seen) {
      fail("corrupt footer: index offset does not match the index position");
      return false;
    }
  }
  std::uint64_t end_magic = 0;
  if (!read_fixed(in_, end_magic, 4) || end_magic != kTraceEndMagic) {
    fail("bad end magic");
    return false;
  }
  if (in_.peek() != std::ifstream::traits_type::eof()) {
    fail("trailing bytes after footer");
    return false;
  }
  // In random-access mode (after seek_block) the stream decoded only a
  // suffix of the samples, so the whole-file count and digest cannot apply.
  if (!seeked_) {
    if (declared != count_) {
      fail("sample count mismatch: footer declares " + std::to_string(declared) + ", decoded " +
           std::to_string(count_));
      return false;
    }
    const auto digest = md5_.digest();
    if (digest != stored) {
      fail("fingerprint mismatch: trace is corrupt");
      return false;
    }
  }
  info_.samples = declared;
  info_.fingerprint = Md5::to_hex(stored);
  done_ = true;
  return true;
}

bool TraceReader::read_index_and_footer() {
  // The index marker byte is already consumed; its offset is one behind.
  const auto index_offset = static_cast<std::uint64_t>(in_.tellg()) - 1;
  std::vector<BlockIndexEntry> parsed;
  std::string message;
  if (!parse_index_entries(in_, parsed, message)) {
    fail(std::move(message));
    return false;
  }
  // The index must describe exactly the blocks the stream walked past - a
  // mismatch means either the blocks or the index were tampered with.  A
  // seeked reader only saw a suffix, so the check cannot apply.
  if (!seeked_ && !same_blocks(parsed, seen_blocks_)) {
    fail("block index mismatch: index does not describe the blocks on disk");
    return false;
  }
  index_ = std::move(parsed);
  index_loaded_ = true;
  int marker = in_.get();
  if (marker == kMetaMarker) {
    std::vector<BlockMeta> parsed_meta;
    if (!parse_meta_entries(in_, index_, parsed_meta, message)) {
      fail(std::move(message));
      return false;
    }
    // The summaries must describe the very samples the stream decoded - the
    // writer and this reader fold samples through the same absorb(), so any
    // disagreement means the metadata (or a block) was tampered with.  A
    // seeked reader decoded only a suffix and cannot make the comparison.
    if (!seeked_ && parsed_meta != seen_meta_) {
      fail("block index metadata disagrees with decoded block contents");
      return false;
    }
    meta_ = std::move(parsed_meta);
    marker = in_.get();
  }
  if (marker == std::ifstream::traits_type::eof()) {
    fail("truncated footer");
    return false;
  }
  if (marker != kFooterMarker) {
    fail("bad footer marker after block index");
    return false;
  }
  return read_footer(index_offset);
}

bool TraceReader::open_block(std::uint64_t marker_offset) {
  const auto header_varint = [&](std::uint64_t& v) {
    switch (read_varint(in_, v)) {
      case VarintResult::kOk:
        return true;
      case VarintResult::kEof:
        fail("truncated block header");
        return false;
      case VarintResult::kOverflow:
        fail("overlong varint in block header: value overflows 64 bits");
        return false;
    }
    return false;
  };

  if (info_.version == kTraceVersion1) {
    std::uint64_t core = 0, count = 0;
    if (!header_varint(core) || !header_varint(count)) return false;
    if (count == 0 || count > TraceWriter::kMaxBlockSamples || core >= kMaxCores) {
      fail("corrupt block header");
      return false;
    }
    block_core_ = static_cast<CoreId>(core);
    block_remaining_ = static_cast<std::uint32_t>(count);
    return true;
  }

  std::uint64_t count = 0;
  if (!header_varint(count)) return false;
  if (count == 0 || count > TraceWriter::kMaxBlockSamples) {
    fail("corrupt block header");
    return false;
  }
  const int codec_byte = in_.get();
  if (codec_byte == std::ifstream::traits_type::eof()) {
    fail("truncated block header");
    return false;
  }
  if (!is_known_codec(static_cast<std::uint8_t>(codec_byte))) {
    fail("unknown block codec " + std::to_string(codec_byte));
    return false;
  }
  const auto codec = static_cast<BlockCodec>(codec_byte);
  std::uint64_t cores = 0;
  if (!header_varint(cores)) return false;
  // Every listed core appears in the block at least once, so the table can
  // never be larger than the sample count.
  if (cores == 0 || cores > count) {
    fail("corrupt block header: core table size");
    return false;
  }
  block_cores_.clear();
  block_cores_.reserve(static_cast<std::size_t>(cores));
  for (std::uint64_t i = 0; i < cores; ++i) {
    std::uint64_t core = 0, base_time = 0, base_vaddr = 0, base_pc = 0;
    if (!header_varint(core) || !header_varint(base_time) || !header_varint(base_vaddr) ||
        !header_varint(base_pc)) {
      return false;
    }
    if (core >= kMaxCores) {
      fail("corrupt block header: core id out of range");
      return false;
    }
    detail::BlockCoreBase entry;
    entry.core = static_cast<CoreId>(core);
    entry.base.time_ns = base_time;
    entry.base.vaddr = base_vaddr;
    entry.base.pc = base_pc;
    block_cores_.push_back(entry);
  }
  std::uint64_t raw_bytes = 0, stored_bytes = 0;
  if (!header_varint(raw_bytes) || !header_varint(stored_bytes)) return false;
  if (raw_bytes == 0 || raw_bytes > kMaxBlockRawBytes) {
    fail("corrupt block header: implausible payload size");
    return false;
  }
  // A raw block stores its payload verbatim; a compressed one must shrink
  // (the writer falls back to raw otherwise), so anything else is corrupt.
  if (codec == BlockCodec::kRaw ? stored_bytes != raw_bytes : stored_bytes >= raw_bytes) {
    fail("corrupt block header: stored size inconsistent with codec");
    return false;
  }

  std::vector<std::byte> stored(static_cast<std::size_t>(stored_bytes));
  if (!read_raw(in_, stored.data(), stored.size())) {
    fail("truncated block payload");
    return false;
  }
  if (codec == BlockCodec::kLz) {
    block_buf_.resize(static_cast<std::size_t>(raw_bytes));
    if (!lz_decompress(stored.data(), stored.size(), block_buf_.data(), block_buf_.size())) {
      fail("corrupt block payload: decompression failed");
      return false;
    }
  } else {
    block_buf_ = std::move(stored);
  }
  block_pos_ = 0;
  block_remaining_ = static_cast<std::uint32_t>(count);
  seen_blocks_.push_back(BlockIndexEntry{marker_offset, block_cores_.front().core,
                                         static_cast<std::uint32_t>(count)});
  if (!seeked_) seen_meta_.push_back(BlockMeta{});
  return true;
}

bool TraceReader::decode_sample(core::TraceSample& out) {
  const bool v1 = info_.version == kTraceVersion1;
  const auto take_varint = [&](std::uint64_t& v) {
    const auto r = v1 ? read_varint(in_, v) : read_varint(block_buf_, block_pos_, v);
    switch (r) {
      case VarintResult::kOk:
        return true;
      case VarintResult::kEof:
        fail("truncated sample");
        return false;
      case VarintResult::kOverflow:
        fail("overlong varint in sample: value overflows 64 bits");
        return false;
    }
    return false;
  };
  const auto take_byte = [&](std::uint64_t& v) {
    if (v1) {
      const int c = in_.get();
      if (c == std::ifstream::traits_type::eof()) {
        fail("truncated sample");
        return false;
      }
      v = static_cast<std::uint64_t>(c);
      return true;
    }
    if (block_pos_ >= block_buf_.size()) {
      fail("truncated sample");
      return false;
    }
    v = std::to_integer<std::uint64_t>(block_buf_[block_pos_++]);
    return true;
  };

  std::size_t slot = 0;
  if (!v1) {
    std::uint64_t slot_value = 0;
    if (!take_varint(slot_value)) return false;
    if (slot_value >= block_cores_.size()) {
      fail("corrupt sample encoding: core slot out of range");
      return false;
    }
    slot = static_cast<std::size_t>(slot_value);
  }
  std::uint64_t dt = 0, dvaddr = 0, dpc = 0, packed = 0, latency = 0, region = 0;
  if (!take_varint(dt) || !take_varint(dvaddr) || !take_varint(dpc) || !take_byte(packed) ||
      !take_varint(latency) || !take_varint(region)) {
    return false;
  }
  const unsigned op = static_cast<unsigned>(packed) >> 4;
  const unsigned level = static_cast<unsigned>(packed) & 0xf;
  if (op > 1 || level >= kNumMemLevels || latency > 0xffff) {
    fail("corrupt sample encoding");
    return false;
  }
  // The region index is an int32 (-1 = untagged); a wider decoded value
  // would alias into a valid-looking id through the cast.
  const std::int64_t region_value = unzigzag(region);
  if (region_value < -1 || region_value > std::numeric_limits<std::int32_t>::max()) {
    fail("corrupt sample encoding: region " + std::to_string(region_value) + " out of range");
    return false;
  }

  detail::CorePredictor& pred =
      v1 ? predictor_for(predictors_, block_core_) : block_cores_[slot].base;
  out.time_ns = apply_delta(pred.time_ns, dt);
  out.vaddr = apply_delta(pred.vaddr, dvaddr);
  out.pc = apply_delta(pred.pc, dpc);
  out.op = static_cast<MemOp>(op);
  out.level = static_cast<MemLevel>(level);
  out.latency = static_cast<std::uint16_t>(latency);
  out.core = v1 ? block_core_ : block_cores_[slot].core;
  out.region = static_cast<std::int32_t>(region_value);
  pred.time_ns = out.time_ns;
  pred.vaddr = out.vaddr;
  pred.pc = out.pc;

  // In random-access mode the footer digest is never checked (the stream
  // saw only a suffix), so hashing would just tax every parallel-decode
  // worker for bytes the reassembly step re-hashes anyway.  The same goes
  // for the rebuilt per-block summaries the metadata cross-check consumes.
  if (!seeked_) {
    core::fingerprint_update(md5_, out);
    if (info_.version == kTraceVersion2) seen_meta_.back().absorb(out);
  }
  ++count_;
  --block_remaining_;
  if (info_.version == kTraceVersion2 && block_remaining_ == 0 &&
      block_pos_ != block_buf_.size()) {
    fail("corrupt block: payload bytes left after the last sample");
    return false;
  }
  return true;
}

bool TraceReader::next(core::TraceSample& out) {
  if (done_ || !ok()) return false;
  if (block_remaining_ == 0) {
    const auto marker_offset = static_cast<std::uint64_t>(in_.tellg());
    const int marker = in_.get();
    if (marker == std::ifstream::traits_type::eof()) {
      fail("truncated: missing footer");
      return false;
    }
    if (marker == kFooterMarker) {
      if (info_.version == kTraceVersion2) {
        // v2 always carries an index between the blocks and the footer.
        fail("missing block index before footer");
        return false;
      }
      read_footer(0);
      return false;
    }
    if (marker == kIndexMarker && info_.version == kTraceVersion2) {
      read_index_and_footer();
      return false;
    }
    if (marker != kBlockMarker) {
      fail("corrupt block marker");
      return false;
    }
    if (!open_block(marker_offset)) return false;
  }
  return decode_sample(out);
}

core::SampleTrace TraceReader::read_all() {
  core::SampleTrace trace;
  core::TraceSample s;
  while (next(s)) trace.add(s);
  if (!ok()) trace.clear();
  return trace;
}

bool TraceReader::load_index() {
  if (!ok()) return false;
  if (info_.version != kTraceVersion2) return false;  // v1 has no index
  if (index_loaded_) return true;
  const auto resume_at = in_.tellg();
  std::string message;
  if (!load_index_from_end(in_, info_, index_, meta_, message)) {
    fail(std::move(message));
    return false;
  }
  index_loaded_ = true;
  in_.clear();
  in_.seekg(resume_at);
  return true;
}

bool TraceReader::seek_block(std::size_t block) {
  if (!ok()) return false;
  if (info_.version != kTraceVersion2) return false;  // v1 blocks are not self-contained
  if (!index_loaded_ && !load_index()) return false;
  if (block >= index_.size()) return false;
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(index_[block].offset));
  done_ = false;
  seeked_ = true;
  block_remaining_ = 0;
  block_buf_.clear();
  block_pos_ = 0;
  block_cores_.clear();
  seen_blocks_.clear();
  seen_meta_.clear();
  return true;
}

std::optional<TraceFileInfo> TraceReader::probe(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::uint64_t magic = 0, version = 0, reserved = 0;
  if (!read_fixed(in, magic, 4) || !read_fixed(in, version, 2) || !read_fixed(in, reserved, 2) ||
      magic != kTraceMagic) {
    return std::nullopt;
  }
  if (version == kTraceVersion1) return probe_v1(in);
  if (version != kTraceVersion2) return std::nullopt;
  TraceFileInfo info;
  info.version = static_cast<std::uint16_t>(version);
  std::vector<BlockIndexEntry> index;
  std::vector<BlockMeta> meta;
  std::string message;
  if (!load_index_from_end(in, info, index, meta, message)) return std::nullopt;
  return info;
}

bool decode_v2_block(std::span<const std::byte> block, std::vector<core::TraceSample>& out,
                     std::string* error) {
  const auto fail = [&](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  std::size_t pos = 0;
  const auto take_varint = [&](std::uint64_t& v, const char* where) {
    switch (read_varint(block, pos, v)) {
      case VarintResult::kOk:
        return true;
      case VarintResult::kEof:
        fail(std::string("truncated ") + where);
        return false;
      case VarintResult::kOverflow:
        fail(std::string("overlong varint in ") + where + ": value overflows 64 bits");
        return false;
    }
    return false;
  };

  if (block.empty() || std::to_integer<std::uint8_t>(block[0]) != kBlockMarker) {
    return fail("corrupt block marker");
  }
  pos = 1;
  std::uint64_t count = 0;
  if (!take_varint(count, "block header")) return false;
  if (count == 0 || count > TraceWriter::kMaxBlockSamples) return fail("corrupt block header");
  if (pos >= block.size()) return fail("truncated block header");
  const auto codec_byte = std::to_integer<std::uint8_t>(block[pos++]);
  if (!is_known_codec(codec_byte)) {
    return fail("unknown block codec " + std::to_string(codec_byte));
  }
  const auto codec = static_cast<BlockCodec>(codec_byte);
  std::uint64_t cores = 0;
  if (!take_varint(cores, "block header")) return false;
  if (cores == 0 || cores > count) return fail("corrupt block header: core table size");
  std::vector<detail::BlockCoreBase> bases;
  bases.reserve(static_cast<std::size_t>(cores));
  for (std::uint64_t i = 0; i < cores; ++i) {
    std::uint64_t core = 0, base_time = 0, base_vaddr = 0, base_pc = 0;
    if (!take_varint(core, "block header") || !take_varint(base_time, "block header") ||
        !take_varint(base_vaddr, "block header") || !take_varint(base_pc, "block header")) {
      return false;
    }
    if (core >= kMaxCores) return fail("corrupt block header: core id out of range");
    detail::BlockCoreBase entry;
    entry.core = static_cast<CoreId>(core);
    entry.base.time_ns = base_time;
    entry.base.vaddr = base_vaddr;
    entry.base.pc = base_pc;
    bases.push_back(entry);
  }
  std::uint64_t raw_bytes = 0, stored_bytes = 0;
  if (!take_varint(raw_bytes, "block header") || !take_varint(stored_bytes, "block header")) {
    return false;
  }
  if (raw_bytes == 0 || raw_bytes > kMaxBlockRawBytes) {
    return fail("corrupt block header: implausible payload size");
  }
  if (codec == BlockCodec::kRaw ? stored_bytes != raw_bytes : stored_bytes >= raw_bytes) {
    return fail("corrupt block header: stored size inconsistent with codec");
  }
  if (stored_bytes > block.size() - pos) return fail("truncated block payload");
  const std::span<const std::byte> stored = block.subspan(pos, stored_bytes);
  pos += stored_bytes;
  if (pos != block.size()) return fail("corrupt block: trailing bytes after the payload");

  std::vector<std::byte> unpacked;
  std::span<const std::byte> payload = stored;
  if (codec == BlockCodec::kLz) {
    unpacked.resize(static_cast<std::size_t>(raw_bytes));
    if (!lz_decompress(stored.data(), stored.size(), unpacked.data(), unpacked.size())) {
      return fail("corrupt block payload: decompression failed");
    }
    payload = unpacked;
  }

  std::vector<core::TraceSample> decoded;
  decoded.reserve(static_cast<std::size_t>(count));
  std::size_t sample_pos = 0;
  const auto sample_varint = [&](std::uint64_t& v) {
    switch (read_varint(payload, sample_pos, v)) {
      case VarintResult::kOk:
        return true;
      case VarintResult::kEof:
        fail("truncated sample");
        return false;
      case VarintResult::kOverflow:
        fail("overlong varint in sample: value overflows 64 bits");
        return false;
    }
    return false;
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t slot = 0;
    if (!sample_varint(slot)) return false;
    if (slot >= bases.size()) return fail("corrupt sample encoding: core slot out of range");
    std::uint64_t dt = 0, dvaddr = 0, dpc = 0, latency = 0, region = 0;
    if (!sample_varint(dt) || !sample_varint(dvaddr) || !sample_varint(dpc)) return false;
    if (sample_pos >= payload.size()) return fail("truncated sample");
    const auto packed = std::to_integer<std::uint64_t>(payload[sample_pos++]);
    if (!sample_varint(latency) || !sample_varint(region)) return false;
    const unsigned op = static_cast<unsigned>(packed) >> 4;
    const unsigned level = static_cast<unsigned>(packed) & 0xf;
    if (op > 1 || level >= kNumMemLevels || latency > 0xffff) {
      return fail("corrupt sample encoding");
    }
    const std::int64_t region_value = unzigzag(region);
    if (region_value < -1 || region_value > std::numeric_limits<std::int32_t>::max()) {
      return fail("corrupt sample encoding: region " + std::to_string(region_value) +
                  " out of range");
    }
    detail::CorePredictor& pred = bases[slot].base;
    core::TraceSample s;
    s.time_ns = apply_delta(pred.time_ns, dt);
    s.vaddr = apply_delta(pred.vaddr, dvaddr);
    s.pc = apply_delta(pred.pc, dpc);
    s.op = static_cast<MemOp>(op);
    s.level = static_cast<MemLevel>(level);
    s.latency = static_cast<std::uint16_t>(latency);
    s.core = bases[slot].core;
    s.region = static_cast<std::int32_t>(region_value);
    pred.time_ns = s.time_ns;
    pred.vaddr = s.vaddr;
    pred.pc = s.pc;
    decoded.push_back(s);
  }
  if (sample_pos != payload.size()) {
    return fail("corrupt block: payload bytes left after the last sample");
  }
  out.insert(out.end(), decoded.begin(), decoded.end());
  return true;
}

}  // namespace nmo::store
