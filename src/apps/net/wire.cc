#include "apps/net/wire.h"

#include "util/hash.h"

namespace bbf::net {
namespace {

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

void AppendFrame(std::string* out, Opcode opcode, FrameStatus status,
                 uint32_t count, uint64_t seq, std::string_view payload) {
  out->reserve(out->size() + kWireHeaderBytes + payload.size());
  PutU64(out, kWireMagic);
  out->push_back(static_cast<char>(kWireVersion));
  out->push_back(static_cast<char>(opcode));
  out->push_back(static_cast<char>(status));
  out->push_back('\0');  // flags
  PutU32(out, count);
  PutU64(out, seq);
  PutU64(out, payload.size());
  PutU64(out, HashBytes(payload.data(), payload.size(), kWireChecksumSeed));
  out->append(payload);
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
  std::string out;
  out.reserve(keys.size() * 8);
  for (uint64_t k : keys) PutU64(&out, k);
  return out;
}

bool DecodeKeysPayload(const FrameHeader& h, std::string_view payload,
                       std::vector<uint64_t>* keys) {
  if (h.count > kMaxWireBatchCount) return false;
  if (payload.size() != static_cast<size_t>(h.count) * 8) return false;
  keys->resize(h.count);
  for (uint32_t i = 0; i < h.count; ++i) {
    (*keys)[i] = GetU64(payload.data() + static_cast<size_t>(i) * 8);
  }
  return true;
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
