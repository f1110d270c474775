#ifndef BBF_APPS_NET_WIRE_H_
#define BBF_APPS_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/key.h"

namespace bbf::net {

/// The filter-as-a-service wire protocol (DESIGN.md §14): framed binary
/// request/response pairs carrying batched filter operations. The frame
/// discipline is the snapshot layer's (§8) applied to a socket: a fixed
/// self-describing header with capped length fields, a payload checksum,
/// and loaders that parse into locals and validate everything before a
/// single byte drives an allocation or a filter probe. Network input is
/// *more* hostile than a snapshot file — every field arrives from an
/// untrusted, possibly adversarial peer, one byte at a time.
///
/// Frame layout (little-endian, 40-byte header):
///
///   magic        u64   "BBFWIRE1"
///   version      u8    kWireVersion (currently 1)
///   opcode       u8    Opcode below
///   status       u8    FrameStatus; 0 (kOk) in requests
///   flags        u8    reserved, must be 0
///   count        u32   items in the payload (keys, strings, statuses)
///   seq          u64   request sequence number, echoed in the response
///   payload_len  u64   <= kMaxWirePayloadBytes
///   checksum     u64   HashBytes(payload, kWireChecksumSeed)
///   payload      bytes
///
/// The checksum covers the payload only; header corruption is caught by
/// the magic/version/cap checks or by the payload no longer matching —
/// the same implicit-protection argument as the §8 frame.
inline constexpr uint64_t kWireMagic = 0x3145524957464242ULL;  // "BBFWIRE1"
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kWireHeaderBytes = 40;
inline constexpr uint64_t kWireChecksumSeed = 0x57495245C0DE5EEDULL;

/// Hard ceiling on one frame's payload. A length field above it is
/// rejected before any buffering, so a hostile peer cannot make the
/// server hold more than this per connection while mid-frame.
inline constexpr uint64_t kMaxWirePayloadBytes = uint64_t{1} << 20;

/// Ceiling on the per-frame item count (64Ki keys = 512 KiB of payload).
inline constexpr uint32_t kMaxWireBatchCount = 64 * 1024;

/// Ceiling on one length-prefixed string item (URLs, not documents).
inline constexpr uint32_t kMaxWireStringBytes = 64 * 1024;

/// Header field offsets, exported so the fault-corpus generator
/// (tests/fault_injection.h FrameSpec) can truncate at every boundary
/// and bomb every length field without duplicating the layout.
inline constexpr size_t kWireMagicOffset = 0;
inline constexpr size_t kWireVersionOffset = 8;
inline constexpr size_t kWireOpcodeOffset = 9;
inline constexpr size_t kWireStatusOffset = 10;
inline constexpr size_t kWireFlagsOffset = 11;
inline constexpr size_t kWireCountOffset = 12;
inline constexpr size_t kWireSeqOffset = 16;
inline constexpr size_t kWireLenOffset = 24;
inline constexpr size_t kWireChecksumOffset = 32;
inline constexpr size_t kWireFieldBoundaries[] = {0,  8,  9,  10, 11,
                                                  12, 16, 24, 32, 40};

enum class Opcode : uint8_t {
  kPing = 1,              // Liveness probe; empty payload both ways.
  kLookup = 2,            // count u64 keys -> count bytes (kKey*).
  kInsert = 3,            // count u64 keys -> count bytes (kInsert*).
  kErase = 4,             // count u64 keys -> count bytes (kErase*).
  kMetrics = 5,           // empty -> Prometheus text payload.
  kBlockCheck = 6,        // count strings -> count bytes (0/1 blocked).
  kReportFalseBlock = 7,  // count strings -> count bytes (0/1 adapted).
  kTunerCtl = 8,          // 1 command byte -> tuner status/decision text.
};

/// kTunerCtl command bytes (the single-byte request payload).
inline constexpr uint8_t kTunerCmdStatus = 0;  // Status + decision history.
inline constexpr uint8_t kTunerCmdPoll = 1;    // Manual poll-once trigger.

/// Frame-level status in responses. Per-key outcomes ride in the payload;
/// these describe the fate of the frame itself.
enum class FrameStatus : uint8_t {
  kOk = 0,
  /// Backpressure NACK: the connection or server in-flight byte budget is
  /// exhausted. The request was NOT processed; retry after draining reads.
  kBusy = 1,
  /// The frame failed validation. The server closes the connection after
  /// sending this (framing is unrecoverable once desynchronized).
  kMalformed = 2,
  /// The server is draining; the request was not processed.
  kDraining = 3,
  /// Opcode valid but no backend mounted (e.g. kBlockCheck without a
  /// blocklist).
  kUnsupported = 4,
  /// Client-side only, never on the wire: the transport failed
  /// (disconnect, short read, garbage header).
  kTransportError = 250,
};

/// Per-key payload bytes in responses.
inline constexpr uint8_t kKeyAbsent = 0;
inline constexpr uint8_t kKeyPresent = 1;
inline constexpr uint8_t kInsertAccepted = 0;   // Stored below threshold.
inline constexpr uint8_t kInsertExpanded = 1;   // Stored by expansion.
inline constexpr uint8_t kInsertNacked = 2;     // NOT stored (kReject).
inline constexpr uint8_t kEraseMiss = 0;
inline constexpr uint8_t kEraseDone = 1;

/// One decoded header, exactly as read — validation is a separate step so
/// tests can exercise hostile values.
struct FrameHeader {
  uint64_t magic = 0;
  uint8_t version = 0;
  uint8_t opcode = 0;
  uint8_t status = 0;
  uint8_t flags = 0;
  uint32_t count = 0;
  uint64_t seq = 0;
  uint64_t payload_len = 0;
  uint64_t checksum = 0;
};

/// Why a header was rejected; kOk means structurally admissible (the
/// payload checksum is still pending).
enum class HeaderCheck : uint8_t {
  kOk = 0,
  kBadMagic,
  kBadVersion,
  kBadFlags,
  kBadOpcode,
  kHostileLength,  // payload_len or count above the caps.
};

/// Appends one complete frame (header + payload) to `out`.
void AppendFrame(std::string* out, Opcode opcode, FrameStatus status,
                 uint32_t count, uint64_t seq, std::string_view payload);

/// Writes the header of a frame whose payload is already in place:
/// `frame` holds kWireHeaderBytes of header space followed by
/// `payload_len` payload bytes, which the checksum covers. AppendFrame
/// seals a copied payload this way; a sender that encodes its payload
/// straight into its frame buffer (SyncClient) calls it directly.
void SealFrame(char* frame, size_t payload_len, Opcode opcode,
               FrameStatus status, uint32_t count, uint64_t seq);

/// AppendFrame into a fresh string.
std::string EncodeFrame(Opcode opcode, FrameStatus status, uint32_t count,
                        uint64_t seq, std::string_view payload);

/// Decodes the fixed header from `buf` (requires
/// buf.size() >= kWireHeaderBytes). Pure read, no validation.
FrameHeader PeekHeader(std::string_view buf);

/// Structural validation of a decoded header (magic, version, flags,
/// opcode range, length caps). Checked BEFORE any payload buffering, so
/// hostile length fields cannot make the receiver allocate.
HeaderCheck CheckHeader(const FrameHeader& h);

/// Result of attempting to cut one frame off the front of a buffer.
enum class CutResult : uint8_t {
  kNeedMore,   // Prefix of a (so far) valid frame; read more bytes.
  kFrame,      // One whole valid frame; *consumed bytes were used.
  kMalformed,  // The buffer can never become a valid frame.
};

/// Incremental framing shared by the server loop, the client, and the
/// fuzz harness: validates the header as soon as 40 bytes exist, waits
/// for the payload, verifies the checksum, and only then exposes the
/// payload view (into `buf`, valid while `buf` is).
CutResult CutFrame(std::string_view buf, FrameHeader* header,
                   std::string_view* payload, size_t* consumed);

// --- Payload codecs ---------------------------------------------------------

/// count x u64 little-endian keys, one whole word per key.
std::string EncodeKeysPayload(std::span<const uint64_t> keys);

/// The same words written to `dst`, which holds 8 * keys.size() bytes.
void EncodeKeysInto(std::span<const uint64_t> keys, char* dst);

/// Strict inverse: requires payload_len == 8 * count with count within
/// the batch cap. False on any mismatch; `keys` untouched on failure.
/// Decodes into `keys`' own storage, so a reused vector stops allocating.
bool DecodeKeysPayload(const FrameHeader& h, std::string_view payload,
                       std::vector<uint64_t>* keys);

/// The same decode, mixing each key into its HashedKey as it is read:
/// the server's hash-once boundary (core/key.h) in the decode pass
/// itself, with no intermediate vector of raw keys.
bool DecodeKeysPayload(const FrameHeader& h, std::string_view payload,
                       std::vector<HashedKey>* keys);

/// count x (u32 length, bytes) strings.
std::string EncodeStringsPayload(const std::vector<std::string>& items);

/// Strict inverse; items are views into `payload`. False on count/length
/// mismatch, a string above kMaxWireStringBytes, or trailing bytes.
bool DecodeStringsPayload(const FrameHeader& h, std::string_view payload,
                          std::vector<std::string_view>* items);

}  // namespace bbf::net

#endif  // BBF_APPS_NET_WIRE_H_
