#ifndef BBF_UTIL_SERIALIZE_H_
#define BBF_UTIL_SERIALIZE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "util/hash.h"

namespace bbf {

/// Little binary I/O helpers shared by every Save/Load implementation.
/// All encodings are little-endian fixed-width; Load functions return
/// false on truncated or malformed input instead of throwing.
///
/// Snapshot streams are untrusted input (a torn write or a flipped disk
/// bit must never crash the loader), so every reader here is defensive:
/// length fields are range-checked before they drive an allocation, and
/// bulk reads grow their buffers incrementally so a hostile length field
/// can at most make us allocate what the stream actually contains.

/// Hard ceiling on any single snapshot payload. Nothing in this library
/// produces frames anywhere near this; a length field above it is
/// corruption by definition.
inline constexpr uint64_t kMaxSnapshotPayloadBytes = uint64_t{1} << 31;

/// Ceiling on element counts read from snapshots (bits, slots, entries).
/// 2^38 bits = 32 GiB of bit-vector — beyond any filter this library
/// builds, but below the point where a corrupt count wedges the loader.
inline constexpr uint64_t kMaxSnapshotElements = uint64_t{1} << 38;

inline void WriteU64(std::ostream& os, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  os.write(buf, 8);
}

inline bool ReadU64(std::istream& is, uint64_t* v) {
  char buf[8];
  if (!is.read(buf, 8)) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(buf[i])) << (8 * i);
  }
  *v = out;
  return true;
}

/// Reads a u64 and rejects values above `cap` — the guard every count or
/// length field in a Load path goes through, so a corrupt field cannot
/// drive a multi-GiB allocation or an effectively-infinite loop.
inline bool ReadU64Capped(std::istream& is, uint64_t* v, uint64_t cap) {
  uint64_t tmp;
  if (!ReadU64(is, &tmp) || tmp > cap) return false;
  *v = tmp;
  return true;
}

inline void WriteI32(std::ostream& os, int32_t v) {
  WriteU64(os, static_cast<uint64_t>(static_cast<uint32_t>(v)));
}

inline bool ReadI32(std::istream& is, int32_t* v) {
  uint64_t tmp;
  if (!ReadU64(is, &tmp)) return false;
  *v = static_cast<int32_t>(static_cast<uint32_t>(tmp));
  return true;
}

/// IEEE-754 doubles as their bit pattern (portable across the platforms
/// this library targets).
inline void WriteDouble(std::ostream& os, double v) {
  WriteU64(os, std::bit_cast<uint64_t>(v));
}

inline bool ReadDouble(std::istream& is, double* v) {
  uint64_t bits;
  if (!ReadU64(is, &bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

/// Reads exactly `len` bytes into `out`. The buffer grows chunk by chunk
/// while the stream keeps delivering, so a hostile length field makes the
/// read fail at end-of-stream instead of pre-allocating `len` bytes.
inline bool ReadBytes(std::istream& is, std::string* out, uint64_t len) {
  if (len > kMaxSnapshotPayloadBytes) return false;
  constexpr uint64_t kChunk = 64 * 1024;
  out->clear();
  while (out->size() < len) {
    const uint64_t want = std::min<uint64_t>(kChunk, len - out->size());
    const size_t old = out->size();
    out->resize(old + want);
    if (!is.read(out->data() + old, static_cast<std::streamsize>(want))) {
      out->clear();
      return false;
    }
  }
  return true;
}

// --- Snapshot framing --------------------------------------------------------
//
// Every persistent filter snapshot is wrapped in a self-describing frame
// (DESIGN.md §8):
//
//   magic    u64   "BBFSNAP1" (little-endian bytes)
//   version  u64   format version, currently 1
//   tag_len  u64   length of the filter-class tag (<= 64)
//   tag      bytes the filter's Name() — dispatch key for filter_io
//   len      u64   payload length in bytes (<= kMaxSnapshotPayloadBytes)
//   checksum u64   HashBytes(payload, kSnapshotChecksumSeed)
//   payload  bytes class-specific member serialization
//
// The checksum is over the raw payload only; header fields are protected
// implicitly (corrupt them and either the magic/caps reject the frame or
// the payload no longer matches the checksum).

inline constexpr uint64_t kSnapshotMagic = 0x3150414E53464242ULL;  // BBFSNAP1
inline constexpr uint64_t kSnapshotVersion = 1;
inline constexpr uint64_t kSnapshotChecksumSeed = 0xC0DEC0DE5EED5EEDULL;
inline constexpr uint64_t kMaxSnapshotTagBytes = 64;

inline bool WriteSnapshotFrame(std::ostream& os, std::string_view tag,
                               std::string_view payload) {
  if (tag.size() > kMaxSnapshotTagBytes ||
      payload.size() > kMaxSnapshotPayloadBytes) {
    return false;
  }
  WriteU64(os, kSnapshotMagic);
  WriteU64(os, kSnapshotVersion);
  WriteU64(os, tag.size());
  os.write(tag.data(), static_cast<std::streamsize>(tag.size()));
  WriteU64(os, payload.size());
  WriteU64(os, HashBytes(payload.data(), payload.size(),
                         kSnapshotChecksumSeed));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return os.good();
}

/// Reads and verifies one frame. On success fills `tag` and `payload` and
/// leaves the stream positioned right after the frame. On any defect —
/// bad magic, unknown version, oversized fields, truncation, checksum
/// mismatch — returns false.
inline bool ReadSnapshotFrame(std::istream& is, std::string* tag,
                              std::string* payload) {
  uint64_t magic, version, tag_len, payload_len, checksum;
  if (!ReadU64(is, &magic) || magic != kSnapshotMagic) return false;
  if (!ReadU64(is, &version) || version != kSnapshotVersion) return false;
  if (!ReadU64Capped(is, &tag_len, kMaxSnapshotTagBytes)) return false;
  if (!ReadBytes(is, tag, tag_len)) return false;
  if (!ReadU64Capped(is, &payload_len, kMaxSnapshotPayloadBytes)) {
    return false;
  }
  if (!ReadU64(is, &checksum)) return false;
  if (!ReadBytes(is, payload, payload_len)) return false;
  return HashBytes(payload->data(), payload->size(),
                   kSnapshotChecksumSeed) == checksum;
}

/// The one framed save: buffers what `save_payload(std::ostream&)` writes
/// so the frame can carry its exact length and checksum — the two fields
/// the loader uses to detect torn writes — then frames it under `tag`.
template <typename SavePayload>
bool SaveFramed(std::ostream& os, std::string_view tag,
                SavePayload&& save_payload) {
  std::ostringstream payload;
  if (!save_payload(payload) || !payload.good()) return false;
  return WriteSnapshotFrame(os, tag, std::move(payload).str());
}

/// The one framed load: reads and verifies one frame, requires its tag to
/// be `tag`, and hands the payload to `load_payload(std::istream&)`.
template <typename LoadPayload>
bool LoadFramed(std::istream& is, std::string_view tag,
                LoadPayload&& load_payload) {
  std::string got_tag;
  std::string payload;
  if (!ReadSnapshotFrame(is, &got_tag, &payload) || got_tag != tag) {
    return false;
  }
  std::istringstream ps(std::move(payload));
  return load_payload(ps);
}

/// The one commit every loader ends in (DESIGN.md §8 rule 1): `fresh`
/// holds what a payload parsed to and replaces `target` only when
/// `fresh.CheckInvariants()` holds. A filter keeps the metrics sink it
/// had, since ShardedFilter attaches one to a generation before loading
/// it.
template <typename T>
bool CommitLoaded(T& target, T&& fresh) {
  if (!fresh.CheckInvariants()) return false;
  if constexpr (requires { target.metrics_sink(); }) {
    fresh.AttachMetricsSink(target.metrics_sink());
  }
  target = std::move(fresh);
  return true;
}

}  // namespace bbf

#endif  // BBF_UTIL_SERIALIZE_H_
