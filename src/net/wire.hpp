// Streaming-capture wire protocol: a framed stream of v2 trace blocks.
//
// The ROADMAP's continuous-profiling daemon needs live data flowing off
// the host while capture runs; the v2 trace block (store/trace_file.hpp)
// is already the perfect wire unit - self-contained (per-block core table
// with delta bases), compressed, strictly bounded - so the protocol is
// framing + control around blocks shipped *verbatim*.  A sender
// (net/block_sender.hpp) opens a TCP connection to the collector
// (net/collector.hpp), sends one handshake frame, then streams:
//
//   frame    u8 type | u32 length (LE) | u32 crc32(payload) | payload
//
//   kHello      magic "NMOW" | u16 protocol | u16 trace version
//               | u8 flags (bit0 compress, bit1 index_meta)
//               | u8 kind (0 session stream, 1 control/meta-only)
//               | u64 nonce | u16 name length | name bytes
//   kBlock      one v2 block, byte-for-byte as TraceWriter flushed it
//               (marker 0xB7 through the last payload byte)
//   kRegions    region-table delta: varint first index | varint count
//               | per region: varint start | varint end-start
//               | varint name length | name bytes
//   kSchedMeta  scheduler.meta snapshot, verbatim key=value text
//   kEnd        u64 sample count | 16-byte MD5 | u8 clean
//   kHeartbeat  u64 decode progress (samples decoded so far, live)
//
// The protocol is one-way (collector never writes back), so a sender is a
// pure producer and the collector a pure consumer - gator's daemon split.
// Every frame is strictly bounds-checked on decode, reusing the
// corrupt-input discipline the v2 reader established: lengths are capped,
// CRCs verified before a payload is interpreted, varints reject overflow,
// string lengths are validated against the remaining payload, and a
// malformed frame is a terminal parse error, never UB.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/regions.hpp"

namespace nmo::net {

/// First payload field of a kHello frame ("NMOW" little-endian): rejects
/// non-protocol peers before anything else is interpreted.
inline constexpr std::uint32_t kWireMagic = 0x574F4D4E;
/// Breaking-change counter of this frame layout.
inline constexpr std::uint16_t kProtocolVersion = 1;
/// type + length + crc.
inline constexpr std::size_t kFrameHeaderBytes = 1 + 4 + 4;
/// Hard payload bound: the largest legitimate frame is a v2 block (< 64
/// KiB by construction); 16 MiB leaves room for absurdly large region
/// tables while keeping a corrupt length from demanding a silly buffer.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;
/// Longest session name a hello may carry (matches the store's sanitized
/// path-component discipline; anything longer is a protocol error).
inline constexpr std::size_t kMaxSessionName = 256;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kBlock = 2,
  kRegions = 3,
  kSchedMeta = 4,
  kEnd = 5,
  kHeartbeat = 6,
};

/// What a kHello declares about the stream that follows.
struct Hello {
  std::uint16_t protocol = kProtocolVersion;
  /// The trace format and TraceWriter::Options the sender writes with -
  /// the collector ingests with the same options so the collected artifact
  /// is byte-identical to the sender's local capture.  Writers emit v2
  /// only; the collector rejects any other trace_version.
  std::uint16_t trace_version = 2;
  bool compress = true;
  bool index_meta = true;
  /// 0 = session stream (blocks follow), 1 = control (meta frames only).
  std::uint8_t kind = 0;
  /// Sender-chosen id tying collector logs to the sender's session.
  std::uint64_t nonce = 0;
  std::string name = "job";
};

inline constexpr std::uint8_t kHelloKindSession = 0;
inline constexpr std::uint8_t kHelloKindControl = 1;

/// A region-table delta: entries [first, first + regions.size()) of the
/// sender's table.  Senders send each entry exactly once, in index order;
/// the collector appends (a gap or overlap is a protocol error).
struct RegionDelta {
  std::uint32_t first = 0;
  std::vector<core::AddrRegion> regions;
};

/// The stream's final frame: what the sender's TraceWriter footer declared.
struct SessionEnd {
  std::uint64_t samples = 0;
  std::array<std::uint8_t, 16> digest{};
  /// False when the sender is ending early (error path) and the declared
  /// count/digest cover only what was actually streamed.
  bool clean = true;
};

/// IEEE CRC-32 (reflected, poly 0xEDB88320) over `n` bytes - the per-frame
/// payload checksum.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n) noexcept;

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::vector<std::byte> payload;
};

/// Appends a complete frame (header + payload) to `out`.
void append_frame(std::vector<std::byte>& out, FrameType type,
                  std::span<const std::byte> payload);

/// Incremental frame decoder: feed() arbitrary byte chunks as they arrive,
/// then drain next() until it reports kNeedMore.  Any malformation (bad
/// type, oversized length, CRC mismatch) is terminal: error() is set and
/// every later call reports kError.
class FrameParser {
 public:
  enum class Result { kFrame, kNeedMore, kError };

  void feed(const std::byte* data, std::size_t n);
  Result next(Frame& out);

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;  ///< Consumed prefix of buf_ (compacted lazily).
  std::string error_;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
};

// --- control-frame payload codecs -------------------------------------------
// encode_* produce the frame payload (not the frame header); parse_* apply
// the full bounds discipline and return false with a message on anything a
// conforming sender could not have produced.

[[nodiscard]] std::vector<std::byte> encode_hello(const Hello& hello);
bool parse_hello(std::span<const std::byte> payload, Hello& out, std::string& error);

[[nodiscard]] std::vector<std::byte> encode_region_delta(const RegionDelta& delta);
bool parse_region_delta(std::span<const std::byte> payload, RegionDelta& out,
                        std::string& error);

[[nodiscard]] std::vector<std::byte> encode_session_end(const SessionEnd& end);
bool parse_session_end(std::span<const std::byte> payload, SessionEnd& out,
                       std::string& error);

[[nodiscard]] std::vector<std::byte> encode_heartbeat(std::uint64_t progress);
bool parse_heartbeat(std::span<const std::byte> payload, std::uint64_t& progress,
                     std::string& error);

/// Lowercase MD5 hex of a SessionEnd digest (what session.meta records).
[[nodiscard]] std::string fingerprint_hex(const std::array<std::uint8_t, 16>& digest);

/// Inverse of fingerprint_hex: parses the 32-hex-char fingerprint a
/// TraceWriter reports into the raw digest a SessionEnd frame carries.
/// False when `hex` is not exactly 32 hex digits.
bool fingerprint_digest(std::string_view hex, std::array<std::uint8_t, 16>& out);

}  // namespace nmo::net
