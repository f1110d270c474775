#include "apps/net/wire.h"

#include <bit>
#include <cstring>

#include "util/hash.h"

namespace bbf::net {
namespace {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "wire integers need a little- or big-endian host");

// The wire's byte order is little-endian on every host: a big-endian
// host swaps each word as it moves it. The conversion is its own inverse.
template <typename T>
T LittleEndian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 8) return __builtin_bswap64(v);
    if constexpr (sizeof(T) == 4) return __builtin_bswap32(v);
  }
  return v;
}

// One whole word per integer: a memcpy of the converted value, which
// compiles to a single unaligned load or store.
template <typename T>
void StoreLe(char* p, T v) {
  v = LittleEndian(v);
  std::memcpy(p, &v, sizeof(v));
}

template <typename T>
T LoadLe(const char* p) {
  T v{};
  std::memcpy(&v, p, sizeof(v));
  return LittleEndian(v);
}

template <typename T>
void PutLe(std::string* out, T v) {
  char bytes[sizeof(T)];
  StoreLe(bytes, v);
  out->append(bytes, sizeof(T));
}

void PutU32(std::string* out, uint32_t v) { PutLe(out, v); }
uint64_t GetU64(const char* p) { return LoadLe<uint64_t>(p); }
uint32_t GetU32(const char* p) { return LoadLe<uint32_t>(p); }

// Both DecodeKeysPayload forms: checks payload_len == 8 * count with
// count within the batch cap, then builds each Key from its word.
template <typename Key>
bool DecodeKeys(const FrameHeader& h, std::string_view payload,
                std::vector<Key>* keys) {
  if (h.count > kMaxWireBatchCount ||
      payload.size() != static_cast<size_t>(h.count) * 8) {
    return false;
  }
  keys->resize(h.count);
  for (size_t i = 0; i < h.count; ++i) {
    (*keys)[i] = Key(GetU64(payload.data() + i * 8));
  }
  return true;
}

}  // namespace

void AppendFrame(std::string* out, Opcode opcode, FrameStatus status,
                 uint32_t count, uint64_t seq, std::string_view payload) {
  const size_t at = out->size();
  out->reserve(at + kWireHeaderBytes + payload.size());
  out->resize(at + kWireHeaderBytes);
  out->append(payload);
  SealFrame(out->data() + at, payload.size(), opcode, status, count, seq);
}

void SealFrame(char* frame, size_t payload_len, Opcode opcode,
               FrameStatus status, uint32_t count, uint64_t seq) {
  StoreLe(frame + kWireMagicOffset, kWireMagic);
  frame[kWireVersionOffset] = static_cast<char>(kWireVersion);
  frame[kWireOpcodeOffset] = static_cast<char>(opcode);
  frame[kWireStatusOffset] = static_cast<char>(status);
  frame[kWireFlagsOffset] = '\0';
  StoreLe(frame + kWireCountOffset, count);
  StoreLe(frame + kWireSeqOffset, seq);
  StoreLe(frame + kWireLenOffset, static_cast<uint64_t>(payload_len));
  StoreLe(frame + kWireChecksumOffset,
          HashBytes(frame + kWireHeaderBytes, payload_len, kWireChecksumSeed));
}

std::string EncodeFrame(Opcode opcode, FrameStatus status, uint32_t count,
                        uint64_t seq, std::string_view payload) {
  std::string out;
  AppendFrame(&out, opcode, status, count, seq, payload);
  return out;
}

FrameHeader PeekHeader(std::string_view buf) {
  FrameHeader h;
  const char* p = buf.data();
  h.magic = GetU64(p + kWireMagicOffset);
  h.version = static_cast<uint8_t>(p[kWireVersionOffset]);
  h.opcode = static_cast<uint8_t>(p[kWireOpcodeOffset]);
  h.status = static_cast<uint8_t>(p[kWireStatusOffset]);
  h.flags = static_cast<uint8_t>(p[kWireFlagsOffset]);
  h.count = GetU32(p + kWireCountOffset);
  h.seq = GetU64(p + kWireSeqOffset);
  h.payload_len = GetU64(p + kWireLenOffset);
  h.checksum = GetU64(p + kWireChecksumOffset);
  return h;
}

HeaderCheck CheckHeader(const FrameHeader& h) {
  if (h.magic != kWireMagic) return HeaderCheck::kBadMagic;
  if (h.version != kWireVersion) return HeaderCheck::kBadVersion;
  if (h.flags != 0) return HeaderCheck::kBadFlags;
  if (h.opcode < static_cast<uint8_t>(Opcode::kPing) ||
      h.opcode > static_cast<uint8_t>(Opcode::kTunerCtl)) {
    return HeaderCheck::kBadOpcode;
  }
  if (h.payload_len > kMaxWirePayloadBytes || h.count > kMaxWireBatchCount) {
    return HeaderCheck::kHostileLength;
  }
  return HeaderCheck::kOk;
}

CutResult CutFrame(std::string_view buf, FrameHeader* header,
                   std::string_view* payload, size_t* consumed) {
  if (buf.size() < kWireHeaderBytes) return CutResult::kNeedMore;
  const FrameHeader h = PeekHeader(buf);
  // Header validation runs the instant 40 bytes exist — BEFORE the
  // payload is awaited, so a hostile payload_len can never make the
  // receiver sit on (or allocate toward) gigabytes it will reject anyway.
  if (CheckHeader(h) != HeaderCheck::kOk) return CutResult::kMalformed;
  const size_t total = kWireHeaderBytes + static_cast<size_t>(h.payload_len);
  if (buf.size() < total) return CutResult::kNeedMore;
  const std::string_view body =
      buf.substr(kWireHeaderBytes, static_cast<size_t>(h.payload_len));
  if (HashBytes(body.data(), body.size(), kWireChecksumSeed) != h.checksum) {
    return CutResult::kMalformed;
  }
  *header = h;
  *payload = body;
  *consumed = total;
  return CutResult::kFrame;
}

std::string EncodeKeysPayload(std::span<const uint64_t> keys) {
  std::string out(keys.size() * 8, '\0');
  EncodeKeysInto(keys, out.data());
  return out;
}

void EncodeKeysInto(std::span<const uint64_t> keys, char* dst) {
  for (size_t i = 0; i < keys.size(); ++i) StoreLe(dst + i * 8, keys[i]);
}

bool DecodeKeysPayload(const FrameHeader& h, std::string_view payload,
                       std::vector<uint64_t>* keys) {
  return DecodeKeys(h, payload, keys);
}

bool DecodeKeysPayload(const FrameHeader& h, std::string_view payload,
                       std::vector<HashedKey>* keys) {
  return DecodeKeys(h, payload, keys);
}

std::string EncodeStringsPayload(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& s : items) {
    PutU32(&out, static_cast<uint32_t>(s.size()));
    out.append(s);
  }
  return out;
}

bool DecodeStringsPayload(const FrameHeader& h, std::string_view payload,
                          std::vector<std::string_view>* items) {
  if (h.count > kMaxWireBatchCount) return false;
  std::vector<std::string_view> local;
  local.reserve(h.count);
  size_t off = 0;
  for (uint32_t i = 0; i < h.count; ++i) {
    if (payload.size() - off < 4) return false;
    const uint32_t len = GetU32(payload.data() + off);
    off += 4;
    if (len > kMaxWireStringBytes || payload.size() - off < len) return false;
    local.push_back(payload.substr(off, len));
    off += len;
  }
  if (off != payload.size()) return false;  // Trailing bytes = malformed.
  *items = std::move(local);
  return true;
}

}  // namespace bbf::net
