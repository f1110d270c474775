// Corpus-driven fuzzing of the wire codec (DESIGN.md §14): every framed
// byte the server will ever parse goes through CutFrame and the payload
// decoders, so those functions are hammered here with the generalized
// fault corpus (tests/fault_injection.h FrameSpec) plus raw random bytes
// — no crashes, no hostile-length allocations, and incremental feeding
// must agree byte-for-byte with one-shot parsing. A live-server replay
// at the end proves the loop survives the same corpus over a socket.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/net/client.h"
#include "apps/net/server.h"
#include "apps/net/wire.h"
#include "core/sharded_filter.h"
#include "fault_injection.h"
#include "quotient/quotient_filter.h"
#include "test_seed.h"
#include "util/random.h"

namespace bbf::net {
namespace {

fault::FrameSpec WireSpec() {
  fault::FrameSpec spec;
  spec.field_boundaries.assign(std::begin(kWireFieldBoundaries),
                               std::end(kWireFieldBoundaries));
  spec.length_field_offsets = {kWireCountOffset, kWireLenOffset};
  spec.checksum_offset = kWireChecksumOffset;
  return spec;
}

std::vector<std::string> SeedFrames(uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<uint64_t> keys(257);
  for (auto& k : keys) k = rng.Next();
  std::vector<std::string> strings = {"a", std::string(300, 'x'), "",
                                      "bbf.example/path?q=1"};
  return {
      EncodeFrame(Opcode::kPing, FrameStatus::kOk, 0, 1, ""),
      EncodeFrame(Opcode::kLookup, FrameStatus::kOk,
                  static_cast<uint32_t>(keys.size()), 2,
                  EncodeKeysPayload(keys)),
      EncodeFrame(Opcode::kInsert, FrameStatus::kOk, 1, 3,
                  EncodeKeysPayload(std::vector<uint64_t>{42})),
      EncodeFrame(Opcode::kBlockCheck, FrameStatus::kOk,
                  static_cast<uint32_t>(strings.size()), 4,
                  EncodeStringsPayload(strings)),
      EncodeFrame(Opcode::kMetrics, FrameStatus::kOk, 0, 5, ""),
  };
}

/// CutFrame's structural invariants, whatever the input: consumed stays
/// inside the buffer, exposed payloads stay inside the buffer and under
/// the cap, and the classification is internally consistent.
void CheckCutInvariants(const std::string& blob) {
  std::string_view rest(blob);
  int frames = 0;
  while (true) {
    FrameHeader h;
    std::string_view payload;
    size_t consumed = 0;
    const CutResult res = CutFrame(rest, &h, &payload, &consumed);
    if (res == CutResult::kNeedMore || res == CutResult::kMalformed) break;
    ASSERT_EQ(res, CutResult::kFrame);
    ASSERT_LE(consumed, rest.size());
    ASSERT_GE(consumed, kWireHeaderBytes);
    ASSERT_LE(h.payload_len, kMaxWirePayloadBytes);
    ASSERT_EQ(payload.size(), h.payload_len);
    ASSERT_GE(payload.data(), rest.data());
    ASSERT_LE(payload.data() + payload.size(), rest.data() + rest.size());
    rest.remove_prefix(consumed);
    ASSERT_LT(++frames, 1000);
  }
}

TEST(WireFuzz, CorpusNeverBreaksCutFrameInvariants) {
  const uint64_t seed = TestSeed(910);
  BBF_ANNOUNCE_SEED(seed);
  const auto spec = WireSpec();
  size_t total = 0;
  for (const auto& frame : SeedFrames(seed)) {
    for (const auto& c : fault::FrameCorpus(frame, spec, seed)) {
      SCOPED_TRACE("corruption: " + c.name);
      CheckCutInvariants(c.blob);
      ++total;
    }
  }
  EXPECT_GT(total, 500u);
}

TEST(WireFuzz, RandomBytesNeverBreakCutFrameInvariants) {
  const uint64_t seed = TestSeed(911);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);
  for (int i = 0; i < 256; ++i) {
    std::string blob(rng.NextBelow(300), '\0');
    for (auto& b : blob) b = static_cast<char>(rng.Next());
    // Half the time, plant a real magic so parsing goes deeper.
    if (i % 2 == 0 && blob.size() >= 8) {
      for (int j = 0; j < 8; ++j) {
        blob[j] = static_cast<char>((kWireMagic >> (8 * j)) & 0xFF);
      }
    }
    CheckCutInvariants(blob);
  }
}

TEST(WireFuzz, IncrementalFeedAgreesWithOneShotParse) {
  const uint64_t seed = TestSeed(912);
  BBF_ANNOUNCE_SEED(seed);
  const auto spec = WireSpec();
  for (const auto& frame : SeedFrames(seed)) {
    auto corpus = fault::FrameCorpus(frame, spec, seed);
    corpus.push_back(fault::Corruption{"pristine", frame});
    for (const auto& c : corpus) {
      SCOPED_TRACE("corruption: " + c.name);
      FrameHeader h;
      std::string_view payload;
      size_t consumed = 0;
      const CutResult oneshot = CutFrame(c.blob, &h, &payload, &consumed);

      // Byte-at-a-time: the verdict must never regress (kNeedMore may
      // become terminal, a terminal verdict is final) and must land on
      // the one-shot answer — the server's incremental loop depends on
      // this equivalence.
      CutResult verdict = CutResult::kNeedMore;
      for (size_t n = 0; n <= c.blob.size(); ++n) {
        FrameHeader ih;
        std::string_view ipayload;
        size_t iconsumed = 0;
        const CutResult step = CutFrame(std::string_view(c.blob).substr(0, n),
                                        &ih, &ipayload, &iconsumed);
        if (verdict != CutResult::kNeedMore) {
          ASSERT_EQ(step, verdict) << "verdict flapped at byte " << n;
        }
        verdict = step;
      }
      ASSERT_EQ(verdict, oneshot);
    }
  }
}

TEST(WireFuzz, HostileLengthsRejectOnHeaderAlone) {
  // 40 header bytes claiming huge payloads: the codec must return
  // kMalformed immediately — kNeedMore would have the server buffering
  // toward a phantom terabyte.
  for (uint64_t bomb :
       {kMaxWirePayloadBytes + 1, uint64_t{1} << 32, uint64_t{1} << 62,
        ~uint64_t{0}}) {
    std::string header =
        EncodeFrame(Opcode::kPing, FrameStatus::kOk, 0, 1, "");
    for (int i = 0; i < 8; ++i) {
      header[kWireLenOffset + i] = static_cast<char>((bomb >> (8 * i)) & 0xFF);
    }
    FrameHeader h;
    std::string_view payload;
    size_t consumed = 0;
    EXPECT_EQ(CutFrame(header, &h, &payload, &consumed),
              CutResult::kMalformed)
        << "payload_len " << bomb << " was not rejected on sight";
  }
  // Hostile count with a plausible payload_len: same instant rejection.
  std::string header = EncodeFrame(Opcode::kLookup, FrameStatus::kOk, 0, 1, "");
  const uint32_t count_bomb = kMaxWireBatchCount + 1;
  for (int i = 0; i < 4; ++i) {
    header[kWireCountOffset + i] =
        static_cast<char>((count_bomb >> (8 * i)) & 0xFF);
  }
  FrameHeader h;
  std::string_view payload;
  size_t consumed = 0;
  EXPECT_EQ(CutFrame(header, &h, &payload, &consumed), CutResult::kMalformed);
}

TEST(WireFuzz, PayloadDecodersRejectEveryMismatchWithoutCrashing) {
  const uint64_t seed = TestSeed(913);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);

  // Valid round trips first: the decoders must accept their encoders.
  std::vector<uint64_t> keys(100);
  for (auto& k : keys) k = rng.Next();
  FrameHeader h;
  h.count = 100;
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DecodeKeysPayload(h, EncodeKeysPayload(keys), &decoded));
  EXPECT_EQ(decoded, keys);

  std::vector<std::string> strings = {"", "abc", std::string(1000, 'q')};
  FrameHeader hs;
  hs.count = 3;
  std::vector<std::string_view> sdecoded;
  const std::string spayload = EncodeStringsPayload(strings);
  ASSERT_TRUE(DecodeStringsPayload(hs, spayload, &sdecoded));
  ASSERT_EQ(sdecoded.size(), 3u);
  EXPECT_EQ(sdecoded[2], strings[2]);

  // Then fuzz: random counts against random payloads. Acceptance is only
  // legal when the layout truly matches.
  for (int i = 0; i < 512; ++i) {
    std::string payload(rng.NextBelow(200), '\0');
    for (auto& b : payload) b = static_cast<char>(rng.Next());
    FrameHeader fh;
    fh.count = static_cast<uint32_t>(rng.NextBelow(80));
    fh.payload_len = payload.size();
    std::vector<uint64_t> k2;
    const bool accepted = DecodeKeysPayload(fh, payload, &k2);
    if (accepted) {
      ASSERT_EQ(payload.size(), static_cast<size_t>(fh.count) * 8);
      ASSERT_EQ(k2.size(), fh.count);
    }
    std::vector<HashedKey> m2;
    ASSERT_EQ(DecodeKeysPayload(fh, payload, &m2), accepted);
    std::vector<std::string_view> s2;
    if (DecodeStringsPayload(fh, payload, &s2)) {
      size_t total = 0;
      for (const auto& s : s2) total += 4 + s.size();
      ASSERT_EQ(total, payload.size());  // No trailing bytes slipped by.
    }
  }
}

TEST(WireFuzz, KeysPayloadIsLittleEndianWords) {
  // The codec's exact bytes, on any host: each key one little-endian
  // word, in batch order. Both decoder forms read them back.
  const std::vector<uint64_t> keys = {0x0102030405060708ULL, 0,
                                      ~uint64_t{0}, 0x8000000000000001ULL};
  const std::string payload = EncodeKeysPayload(keys);
  const std::string want =
      std::string("\x08\x07\x06\x05\x04\x03\x02\x01", 8) +
      std::string(8, '\x00') + std::string(8, '\xff') +
      std::string("\x01\x00\x00\x00\x00\x00\x00\x80", 8);
  EXPECT_EQ(payload, want);

  FrameHeader h;
  h.count = static_cast<uint32_t>(keys.size());
  h.payload_len = payload.size();
  std::vector<uint64_t> raw;
  ASSERT_TRUE(DecodeKeysPayload(h, payload, &raw));
  EXPECT_EQ(raw, keys);
  std::vector<HashedKey> mixed;
  ASSERT_TRUE(DecodeKeysPayload(h, payload, &mixed));
  ASSERT_EQ(mixed.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(mixed[i], HashedKey(keys[i])) << "key " << i;
  }

  // Count/length mismatches: both forms refuse and leave the output as
  // it was.
  const auto refused = [&](const FrameHeader& bad, std::string_view bytes) {
    std::vector<uint64_t> raw_out = {7};
    std::vector<HashedKey> mixed_out = {HashedKey(uint64_t{7})};
    const bool raw_ok = DecodeKeysPayload(bad, bytes, &raw_out);
    const bool mixed_ok = DecodeKeysPayload(bad, bytes, &mixed_out);
    return !raw_ok && !mixed_ok && raw_out == std::vector<uint64_t>{7} &&
           mixed_out == std::vector<HashedKey>{HashedKey(uint64_t{7})};
  };
  for (uint32_t count : {0u, 3u, 5u}) {
    FrameHeader bad = h;
    bad.count = count;
    EXPECT_TRUE(refused(bad, payload)) << "count " << count;
  }
  EXPECT_TRUE(refused(h, std::string_view(payload).substr(1)));
  EXPECT_TRUE(refused(h, payload + 'x'));
  FrameHeader over_cap;
  over_cap.count = kMaxWireBatchCount + 1;
  EXPECT_TRUE(
      refused(over_cap, std::string(size_t{over_cap.count} * 8, '\x00')));
}

TEST(WireFuzz, LiveServerSurvivesWholeCorpusAndStaysResponsive) {
  const uint64_t seed = TestSeed(914);
  BBF_ANNOUNCE_SEED(seed);
  ShardedFilter filter(1 << 16, 4, [](uint64_t cap) -> std::unique_ptr<Filter> {
    return std::make_unique<QuotientFilter>(
        QuotientFilter::ForCapacity(cap, 0.01));
  });
  Server server(&filter);
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  const auto spec = WireSpec();
  size_t replayed = 0;
  for (const auto& frame : SeedFrames(seed)) {
    for (const auto& c : fault::FrameCorpus(frame, spec, seed)) {
      const int fd = SyncClient::ConnectTcp(server.port());
      ASSERT_GE(fd, 0);
      timeval tv{};
      tv.tv_sec = 5;
      setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      size_t off = 0;
      while (off < c.blob.size()) {
        const ssize_t n = ::send(fd, c.blob.data() + off,
                                 c.blob.size() - off, MSG_NOSIGNAL);
        if (n <= 0) break;  // Server already slammed the door: fine.
        off += static_cast<size_t>(n);
      }
      ::shutdown(fd, SHUT_WR);
      char sink[4096];
      while (::recv(fd, sink, sizeof(sink), 0) > 0) {
      }
      ::close(fd);
      if (++replayed % 64 == 0) {
        SyncClient probe(SyncClient::ConnectTcp(server.port()));
        ASSERT_EQ(probe.Ping(), FrameStatus::kOk)
            << "server unresponsive after " << replayed << " corruptions"
            << " (last: " << c.name << ")";
      }
    }
  }
  EXPECT_GT(replayed, 500u);
  SyncClient probe(SyncClient::ConnectTcp(server.port()));
  EXPECT_EQ(probe.Ping(), FrameStatus::kOk);
  server.Shutdown();
}

}  // namespace
}  // namespace bbf::net
