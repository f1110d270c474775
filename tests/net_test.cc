// Tests for the serving layer: the URL yes/no-list substrate (§3.3 / E11)
// and the filter-as-a-service wire front end (DESIGN.md §14) — protocol
// round trips, backpressure NACKs, slow-loris/idle eviction, graceful
// drain, and the socket-level fault sweep that checks the server against
// an exact acked-key reference model: zero crashes, zero accepted
// corruptions, zero acked-then-lost inserts.

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/net/blocklist.h"
#include "apps/net/client.h"
#include "apps/net/server.h"
#include "apps/net/wire.h"
#include "core/sharded_filter.h"
#include "fault_injection.h"
#include "quotient/quotient_filter.h"
#include "scratch_path.h"
#include "test_seed.h"
#include "util/hash.h"
#include "workload/generators.h"

namespace bbf::net {
namespace {

// --- Blocklist substrate (pre-dates the wire front end) ---------------------

struct Workload {
  std::vector<std::string> malicious;
  std::vector<std::string> benign_hot;   // The no list.
  std::vector<std::string> benign_cold;
};

Workload MakeWorkload() {
  Workload w;
  auto urls = GenerateUrls(120000, 50);
  w.malicious.assign(urls.begin(), urls.begin() + 100000);
  w.benign_hot.assign(urls.begin() + 100000, urls.begin() + 110000);
  w.benign_cold.assign(urls.begin() + 110000, urls.end());
  return w;
}

TEST(Blocklist, AllVariantsBlockEveryMaliciousUrl) {
  const Workload w = MakeWorkload();
  const auto bloom = MakeBloomBlocklist(w.malicious, 10.0);
  const auto integrated =
      MakeIntegratedBlocklist(w.malicious, w.benign_hot, 10);
  const auto adaptive = MakeAdaptiveBlocklist(w.malicious, 0.01);
  for (const auto* b : {bloom.get(), integrated.get(), adaptive.get()}) {
    for (size_t i = 0; i < w.malicious.size(); i += 13) {
      ASSERT_TRUE(b->IsBlocked(w.malicious[i]))
          << b->Name() << " failed to block a malicious URL";
    }
  }
}

TEST(Blocklist, IntegratedNoListIsFalsePositiveFree) {
  const Workload w = MakeWorkload();
  const auto integrated =
      MakeIntegratedBlocklist(w.malicious, w.benign_hot, 10);
  for (const auto& url : w.benign_hot) {
    ASSERT_FALSE(integrated->IsBlocked(url))
        << "no-list URL must never be blocked";
  }
}

TEST(Blocklist, IntegratedUnknownUrlsSeeSmallFpr) {
  const Workload w = MakeWorkload();
  const auto integrated =
      MakeIntegratedBlocklist(w.malicious, w.benign_hot, 10);
  uint64_t blocked = 0;
  for (const auto& url : w.benign_cold) blocked += integrated->IsBlocked(url);
  EXPECT_LT(static_cast<double>(blocked) / w.benign_cold.size(), 0.01);
}

TEST(Blocklist, BloomBaselineKeepsBlockingHotBenignUrls) {
  const Workload w = MakeWorkload();
  const auto bloom = MakeBloomBlocklist(w.malicious, 10.0);
  // Find hot benign URLs that collide; they collide on EVERY visit.
  uint64_t first_pass = 0;
  uint64_t second_pass = 0;
  for (const auto& url : w.benign_hot) first_pass += bloom->IsBlocked(url);
  for (const auto& url : w.benign_hot) second_pass += bloom->IsBlocked(url);
  EXPECT_EQ(first_pass, second_pass);  // Deterministic repeat punishment.
  EXPECT_FALSE(bloom->ReportFalseBlock(w.benign_hot[0]));  // Cannot adapt.
}

TEST(Blocklist, AdaptiveStopsBlockingAfterOneReport) {
  const Workload w = MakeWorkload();
  auto adaptive = MakeAdaptiveBlocklist(w.malicious, 0.02);
  uint64_t first_pass = 0;
  for (const auto& url : w.benign_hot) {
    if (adaptive->IsBlocked(url)) {
      ++first_pass;
      adaptive->ReportFalseBlock(url);
    }
  }
  ASSERT_GT(first_pass, 0u);  // 2% FPR over 10k hot URLs: some collide.
  uint64_t second_pass = 0;
  for (const auto& url : w.benign_hot) second_pass += adaptive->IsBlocked(url);
  EXPECT_EQ(second_pass, 0u);
  // Malicious URLs stay blocked after all the adaptation.
  for (size_t i = 0; i < w.malicious.size(); i += 17) {
    ASSERT_TRUE(adaptive->IsBlocked(w.malicious[i]));
  }
}

TEST(Blocklist, IntegratedBuildsOverRepeatedUrls) {
  // A URL given twice would share all three slots with its copy, and the
  // peeler can never free either: the build must count it once.
  const auto repeated = MakeIntegratedBlocklist(
      {"http://a", "http://b", "http://a"}, {"http://c", "http://c"}, 8);
  EXPECT_TRUE(repeated->IsBlocked("http://a"));
  EXPECT_TRUE(repeated->IsBlocked("http://b"));
  EXPECT_FALSE(repeated->IsBlocked("http://c"));
}

TEST(Blocklist, IntegratedUrlOnBothListsStaysBlocked) {
  // The same peeling hazard: one URL on both lists is one key given twice.
  // The yes list wins.
  const auto both = MakeIntegratedBlocklist({"http://a", "http://b"},
                                            {"http://a", "http://c"}, 8);
  EXPECT_TRUE(both->IsBlocked("http://a"));
  EXPECT_TRUE(both->IsBlocked("http://b"));
  EXPECT_FALSE(both->IsBlocked("http://c"));
}

// --- Wire front end ---------------------------------------------------------

ShardedFilter::ShardFactory QuotientFactory(double fpr) {
  return [fpr](uint64_t cap) -> std::unique_ptr<Filter> {
    return std::make_unique<QuotientFilter>(
        QuotientFilter::ForCapacity(cap, fpr));
  };
}

std::unique_ptr<ShardedFilter> MakeFilter(uint64_t expected = 1 << 16) {
  return std::make_unique<ShardedFilter>(expected, 4, QuotientFactory(0.01));
}

/// Raw socket helpers for the hostile-peer tests, which bypass SyncClient
/// on purpose (SyncClient refuses to misbehave).
int RawConnect(uint16_t port) {
  const int fd = SyncClient::ConnectTcp(port);
  EXPECT_GE(fd, 0);
  // Bounded reads so a server bug cannot hang the test binary.
  timeval tv{};
  tv.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool RawWrite(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until EOF (or the SO_RCVTIMEO deadline) and returns everything.
std::string RawDrain(int fd) {
  std::string all;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    all.append(buf, static_cast<size_t>(n));
  }
  return all;
}

/// True if the peer closes `fd` within `ms` (poll for EOF).
bool ClosedWithin(int fd, int ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  char buf[256];
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 50) > 0 && (p.revents & (POLLIN | POLLHUP)) != 0) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0 && errno != EAGAIN && errno != EINTR) return true;
    }
  }
  return false;
}

struct ParsedFrame {
  FrameHeader header;
  std::string payload;
};

/// Cuts every server-encoded response frame out of a raw byte stream.
std::vector<ParsedFrame> ParseFrames(const std::string& stream) {
  std::vector<ParsedFrame> out;
  size_t off = 0;
  while (true) {
    FrameHeader h;
    std::string_view payload;
    size_t consumed = 0;
    const std::string_view rest(stream.data() + off, stream.size() - off);
    if (CutFrame(rest, &h, &payload, &consumed) != CutResult::kFrame) break;
    out.push_back(ParsedFrame{h, std::string(payload)});
    off += consumed;
  }
  return out;
}

/// Blocking read of exactly one frame (header + payload) off `fd`.
bool ReadFrame(int fd, ParsedFrame* out) {
  std::string buf;
  char chunk[4096];
  while (true) {
    FrameHeader h;
    std::string_view payload;
    size_t consumed = 0;
    if (CutFrame(buf, &h, &payload, &consumed) == CutResult::kFrame) {
      out->header = h;
      out->payload = std::string(payload);
      return true;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<size_t>(n));
  }
}

TEST(WireServer, RoundTripLookupInsertEraseMetrics) {
  auto filter = MakeFilter();
  Server server(filter.get());
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  SyncClient client(RawConnect(server.port()));
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client.Ping(), FrameStatus::kOk);

  const auto keys = GenerateDistinctKeys(2000, TestSeed(900));
  std::vector<uint8_t> res;
  ASSERT_EQ(client.Lookup(keys, &res), FrameStatus::kOk);
  // Fresh filter: at 1% FPR a few ghosts are possible, presence is not.
  size_t present = 0;
  for (uint8_t r : res) present += (r == kKeyPresent);
  EXPECT_LT(present, keys.size() / 20);

  ASSERT_EQ(client.Insert(keys, &res), FrameStatus::kOk);
  for (uint8_t r : res) ASSERT_NE(r, kInsertNacked);

  ASSERT_EQ(client.Lookup(keys, &res), FrameStatus::kOk);
  for (uint8_t r : res) ASSERT_EQ(r, kKeyPresent);

  // Erase half, then re-check through the wire.
  std::vector<uint64_t> half(keys.begin(), keys.begin() + 1000);
  ASSERT_EQ(client.Erase(half, &res), FrameStatus::kOk);

  std::string text;
  ASSERT_EQ(client.Metrics(&text), FrameStatus::kOk);
  EXPECT_NE(text.find("net_frames_served_total"), std::string::npos);
  EXPECT_NE(text.find("net_keys_inserted_total"), std::string::npos);

  server.Shutdown();
  // The wire acked exactly what the filter holds.
  EXPECT_EQ(filter->NumKeys(), keys.size() - half.size());
}

TEST(WireServer, BlocklistOverTheWire) {
  const auto urls = GenerateUrls(2000, 51);
  std::vector<std::string> bad(urls.begin(), urls.begin() + 1000);
  std::vector<std::string> good(urls.begin() + 1000, urls.end());
  auto blocklist = MakeAdaptiveBlocklist(bad, 0.02);

  Server server(nullptr);
  server.set_blocklist(blocklist.get());
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  SyncClient client(RawConnect(server.port()));
  std::vector<uint8_t> res;
  ASSERT_EQ(client.BlockCheck(bad, &res), FrameStatus::kOk);
  for (uint8_t r : res) ASSERT_EQ(r, 1);

  // Report every false block over the wire; repeat checks must clear.
  ASSERT_EQ(client.BlockCheck(good, &res), FrameStatus::kOk);
  std::vector<std::string> falsely_blocked;
  for (size_t i = 0; i < good.size(); ++i) {
    if (res[i] != 0) falsely_blocked.push_back(good[i]);
  }
  if (!falsely_blocked.empty()) {
    ASSERT_EQ(client.ReportFalseBlock(falsely_blocked, &res),
              FrameStatus::kOk);
    ASSERT_EQ(client.BlockCheck(falsely_blocked, &res), FrameStatus::kOk);
    for (uint8_t r : res) ASSERT_EQ(r, 0);
  }

  // Key opcodes without a mounted filter are kUnsupported, not a crash.
  std::vector<uint64_t> keys = {1, 2, 3};
  EXPECT_EQ(client.Lookup(keys, &res), FrameStatus::kUnsupported);
  server.Shutdown();
}

TEST(WireServer, HttpScrapeServesPrometheusText) {
  auto filter = MakeFilter();
  Server server(filter.get());
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  {
    SyncClient client(RawConnect(server.port()));
    std::vector<uint64_t> keys = {10, 20, 30};
    std::vector<uint8_t> res;
    ASSERT_EQ(client.Insert(keys, &res), FrameStatus::kOk);
  }

  const int fd = RawConnect(server.port());
  ASSERT_TRUE(RawWrite(fd, "GET /metrics HTTP/1.0\r\n\r\n"));
  const std::string resp = RawDrain(fd);  // Server closes after one scrape.
  ::close(fd);
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("bbf_net_keys_inserted_total{filter=\"net\"} 3"),
            std::string::npos);
  EXPECT_EQ(server.metrics().http_scrapes.Load(), 1u);
  server.Shutdown();
}

TEST(WireServer, SaturationNacksPerKeyAndNeverDropsAckedInserts) {
  // A deliberately tiny kReject filter: the server must surface every
  // refused key as an explicit per-key NACK, and every non-NACKed key
  // must be queryable — the acked-never-lost contract under saturation.
  SaturationConfig sat;
  sat.policy = SaturationPolicy::kReject;
  sat.load_threshold = 0.80;
  ShardedFilter filter(400, 4, QuotientFactory(0.01), sat);
  Server server(&filter);
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  SyncClient client(RawConnect(server.port()));
  const auto keys = GenerateDistinctKeys(4000, TestSeed(901));
  std::vector<uint64_t> acked;
  size_t nacked = 0;
  for (size_t off = 0; off < keys.size(); off += 512) {
    const size_t n = std::min<size_t>(512, keys.size() - off);
    std::vector<uint64_t> batch(keys.begin() + off, keys.begin() + off + n);
    std::vector<uint8_t> res;
    ASSERT_EQ(client.Insert(batch, &res), FrameStatus::kOk);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (res[i] == kInsertNacked) {
        ++nacked;
      } else {
        acked.push_back(batch[i]);
      }
    }
  }
  ASSERT_GT(nacked, 0u) << "workload must overflow the filter";
  EXPECT_EQ(server.metrics().keys_insert_nacked.Load(), nacked);
  EXPECT_EQ(server.metrics().keys_inserted.Load(), acked.size());

  std::vector<uint8_t> res;
  ASSERT_EQ(client.Lookup(acked, &res), FrameStatus::kOk);
  for (size_t i = 0; i < acked.size(); ++i) {
    ASSERT_EQ(res[i], kKeyPresent) << "acked key lost at index " << i;
  }
  server.Shutdown();
  EXPECT_EQ(filter.NumKeys(), acked.size());
}

TEST(WireServer, OverBudgetRequestsGetBusyNacksNotSilence) {
  auto filter = MakeFilter();
  ServerConfig config;
  config.num_threads = 1;
  config.conn_inflight_budget = 1024;  // ~1 lookup response.
  Server server(filter.get(), config);
  ASSERT_TRUE(server.Start());

  // A socketpair lets the test throttle the server's send buffer, which
  // TCP loopback would happily hide behind megabytes of kernel buffer.
  int sp[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  int tiny = 4096;
  setsockopt(sp[1], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
  server.AdoptConnection(sp[1]);

  // Flood 64 lookups (2 KiB request, ~2 KiB response each) while reading
  // nothing: the server's send buffer jams, pending bytes cross the
  // budget, and later frames must be NACKed kBusy — then served normally
  // once the client finally reads.
  const auto keys = GenerateDistinctKeys(256, TestSeed(902));
  constexpr int kFrames = 64;
  std::string flood;
  for (int i = 0; i < kFrames; ++i) {
    flood += EncodeFrame(Opcode::kLookup, FrameStatus::kOk,
                         static_cast<uint32_t>(keys.size()),
                         static_cast<uint64_t>(i + 1),
                         EncodeKeysPayload(keys));
  }
  ASSERT_TRUE(RawWrite(sp[0], flood));
  ::shutdown(sp[0], SHUT_WR);
  // Keep reading nothing until the budget has engaged. The event loop
  // adopts the connection asynchronously; a client that starts draining
  // before the server has filled its send buffer takes every response as
  // it is written, and the budget is never reached.
  for (int ms = 0; ms < 5000 && server.metrics().nacked_busy.Load() == 0;
       ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  timeval tv{};
  tv.tv_sec = 5;
  setsockopt(sp[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const auto frames = ParseFrames(RawDrain(sp[0]));
  ::close(sp[0]);

  // Every frame was answered — kOk with a full body or an explicit kBusy
  // NACK. Nothing was silently dropped, and the connection survived.
  ASSERT_EQ(frames.size(), static_cast<size_t>(kFrames));
  size_t ok = 0;
  size_t busy = 0;
  for (const auto& f : frames) {
    if (f.header.status == static_cast<uint8_t>(FrameStatus::kOk)) {
      ++ok;
      EXPECT_EQ(f.payload.size(), keys.size());
    } else {
      ASSERT_EQ(f.header.status, static_cast<uint8_t>(FrameStatus::kBusy));
      ++busy;
    }
  }
  EXPECT_GT(busy, 0u) << "budget never engaged — backpressure untested";
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(server.metrics().nacked_busy.Load(), busy);
  server.Shutdown();
}

TEST(WireServer, MalformedFramesAreNackedAndConnectionClosed) {
  auto filter = MakeFilter();
  Server server(filter.get());
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  const int fd = RawConnect(server.port());
  std::string garbage = EncodeFrame(Opcode::kPing, FrameStatus::kOk, 0, 7, "");
  garbage[0] ^= 0x01;  // Break the magic.
  ASSERT_TRUE(RawWrite(fd, garbage));
  const auto frames = ParseFrames(RawDrain(fd));  // Drain ends at EOF.
  ::close(fd);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.status,
            static_cast<uint8_t>(FrameStatus::kMalformed));
  EXPECT_EQ(server.metrics().malformed_rejected.Load(), 1u);

  // The violation cost one connection, not the server.
  SyncClient client(RawConnect(server.port()));
  EXPECT_EQ(client.Ping(), FrameStatus::kOk);
  server.Shutdown();
}

TEST(WireServer, ReplyBytesArePinned) {
  // One fixed stream through every reply path: a ping, an empty lookup,
  // then insert, lookup and erase frames below the grouping cut-off (2
  // keys per shard), between it and 1,024 keys, and above 1,024; a
  // blocklist frame with no blocklist mounted (kUnsupported); and a
  // lookup whose count disagrees with its payload (kMalformed, then
  // close). Two generations per shard at most, so the insert replies
  // hold accepted, expanded and NACKed bytes. The input is fixed (no
  // TestSeed): a change to the request path must reproduce every byte,
  // and a change to the codec every request byte it encodes.
  SaturationConfig sat;
  sat.max_generations = 2;
  ShardedFilter filter(600, 4, QuotientFactory(0.01), sat);
  ServerConfig config;
  config.num_threads = 1;
  Server server(&filter, config);
  ASSERT_TRUE(server.Start());
  int sp[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  timeval tv{};
  tv.tv_sec = 5;
  setsockopt(sp[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  server.AdoptConnection(sp[1]);

  const auto keys = GenerateDistinctKeys(6000, 0x91AE);
  uint64_t seq = 0;
  std::string stream = EncodeFrame(Opcode::kPing, FrameStatus::kOk, 0, ++seq,
                                   "");
  auto add = [&](Opcode op, size_t off, size_t n) {
    stream += EncodeFrame(op, FrameStatus::kOk, static_cast<uint32_t>(n),
                          ++seq, EncodeKeysPayload({keys.data() + off, n}));
  };
  add(Opcode::kLookup, 0, 0);
  size_t off = 0;
  for (size_t n : {5, 100, 1024, 1500, 1500}) {
    add(Opcode::kInsert, off, n);
    off += n;
  }
  // Lookups and erases straddle the inserted prefix [0, 4129).
  add(Opcode::kLookup, 4000, 7);
  add(Opcode::kLookup, 3900, 300);
  add(Opcode::kLookup, 3500, 1024);
  add(Opcode::kLookup, 2500, 2000);
  add(Opcode::kErase, 4100, 6);
  add(Opcode::kErase, 0, 200);
  add(Opcode::kErase, 3500, 1100);
  add(Opcode::kLookup, 0, 4600);
  stream += EncodeFrame(Opcode::kBlockCheck, FrameStatus::kOk, 2, ++seq,
                        EncodeStringsPayload({"a.example", "b.example"}));
  stream += EncodeFrame(Opcode::kLookup, FrameStatus::kOk, 3, ++seq,
                        EncodeKeysPayload({keys.data(), 2}));
  EXPECT_EQ(stream.size(), 107650u);
  EXPECT_EQ(HashBytes(stream), 0xb461a86ba62d29bfull);
  ASSERT_TRUE(RawWrite(sp[0], stream));
  const std::string replies = RawDrain(sp[0]);  // The server closes.
  ::close(sp[0]);
  server.Shutdown();

  const auto frames = ParseFrames(replies);
  ASSERT_EQ(frames.size(), seq);
  EXPECT_EQ(frames[frames.size() - 2].header.status,
            static_cast<uint8_t>(FrameStatus::kUnsupported));
  EXPECT_EQ(frames.back().header.status,
            static_cast<uint8_t>(FrameStatus::kMalformed));
  std::set<char> insert_bytes;
  for (size_t f = 2; f < 7; ++f) {
    insert_bytes.insert(frames[f].payload.begin(), frames[f].payload.end());
  }
  EXPECT_EQ(insert_bytes.size(), 3u) << "accepted, expanded and NACKed";
  EXPECT_EQ(replies.size(), 14046u);
  EXPECT_EQ(HashBytes(replies), 0x49cc2d3d8bf69e5dull);
}

// SyncClient encodes keys straight into its reused request frame and
// reads replies into one receive buffer. Its requests must be the
// codec's bytes. A peer that answers two requests in one write leaves
// the second reply buffered: the next call must take it from the buffer,
// since a recv would wait for bytes the peer sends only later. A reply
// larger than one read, arriving in two writes, must reassemble.
TEST(WireClient, EncodesInPlaceAndKeepsBytesPastAReply) {
  int sp[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  timeval tv{};
  tv.tv_sec = 5;
  setsockopt(sp[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(sp[1], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const auto keys = GenerateDistinctKeys(kMaxWireBatchCount, 0x5C1E);
  const std::span<const uint64_t> all(keys);
  const std::string want_requests =
      EncodeFrame(Opcode::kLookup, FrameStatus::kOk, 3, 1,
                  EncodeKeysPayload(all.first(3))) +
      EncodeFrame(Opcode::kErase, FrameStatus::kOk, 2, 2,
                  EncodeKeysPayload(all.subspan(3, 2))) +
      EncodeFrame(Opcode::kLookup, FrameStatus::kOk, kMaxWireBatchCount, 3,
                  EncodeKeysPayload(all));
  std::string got_requests;
  std::thread peer([&] {
    RawWrite(sp[1], EncodeFrame(Opcode::kLookup, FrameStatus::kOk, 3, 1,
                                std::string_view("\1\0\1", 3)) +
                        EncodeFrame(Opcode::kErase, FrameStatus::kOk, 2, 2,
                                    std::string_view("\1\0", 2)));
    char chunk[4096];
    while (got_requests.size() < want_requests.size()) {
      const ssize_t n = ::recv(sp[1], chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      got_requests.append(chunk, static_cast<size_t>(n));
    }
    const std::string big =
        EncodeFrame(Opcode::kLookup, FrameStatus::kOk, kMaxWireBatchCount, 3,
                    std::string(kMaxWireBatchCount, '\1'));
    RawWrite(sp[1], std::string_view(big).substr(0, 1000));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    RawWrite(sp[1], std::string_view(big).substr(1000));
  });
  {
    SyncClient client(sp[0]);
    std::vector<uint8_t> out;
    EXPECT_EQ(client.Lookup(all.first(3), &out), FrameStatus::kOk);
    EXPECT_EQ(out, (std::vector<uint8_t>{1, 0, 1}));
    EXPECT_EQ(client.Erase(all.subspan(3, 2), &out), FrameStatus::kOk);
    EXPECT_EQ(out, (std::vector<uint8_t>{1, 0}));
    EXPECT_EQ(client.Lookup(all, &out), FrameStatus::kOk);
    EXPECT_EQ(out, std::vector<uint8_t>(kMaxWireBatchCount, 1));
    peer.join();
  }
  ::close(sp[1]);
  EXPECT_TRUE(got_requests == want_requests) << "request bytes differ";
}

TEST(WireServer, HostileLengthIsRejectedBeforeBuffering) {
  auto filter = MakeFilter();
  Server server(filter.get());
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  // A 40-byte header claiming a 2^62-byte payload. A server that trusts
  // it would try to buffer toward it; ours must reject on the header
  // alone and close — no allocation, no waiting for the phantom payload.
  std::string frame =
      EncodeFrame(Opcode::kInsert, FrameStatus::kOk, 3, 1, "xyz");
  std::string hostile = frame.substr(0, kWireHeaderBytes);
  const uint64_t bomb = uint64_t{1} << 62;
  for (int i = 0; i < 8; ++i) {
    hostile[kWireLenOffset + i] = static_cast<char>((bomb >> (8 * i)) & 0xFF);
  }
  const int fd = RawConnect(server.port());
  ASSERT_TRUE(RawWrite(fd, hostile));
  EXPECT_TRUE(ClosedWithin(fd, 3000));
  ::close(fd);
  EXPECT_GE(server.metrics().malformed_rejected.Load(), 1u);
  server.Shutdown();
}

TEST(WireServer, SlowLorisAndIdleConnectionsAreEvicted) {
  auto filter = MakeFilter();
  ServerConfig config;
  config.io_deadline_ms = 150;
  config.idle_timeout_ms = 300;
  Server server(filter.get(), config);
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  // A stalled peer at every protocol state: each header-field boundary,
  // mid-payload, and (offset 0) a fully silent connection. The server
  // owes none of them patience beyond its deadlines.
  const std::string frame =
      EncodeFrame(Opcode::kInsert, FrameStatus::kOk, 2, 1,
                  EncodeKeysPayload(std::vector<uint64_t>{1, 2}));
  std::vector<int> fds;
  for (size_t boundary : kWireFieldBoundaries) {
    const int fd = RawConnect(server.port());
    if (boundary > 0) {
      ASSERT_TRUE(RawWrite(fd, std::string_view(frame).substr(0, boundary)));
    }
    fds.push_back(fd);
  }
  const int mid_payload = RawConnect(server.port());
  ASSERT_TRUE(RawWrite(
      mid_payload, std::string_view(frame).substr(0, kWireHeaderBytes + 5)));
  fds.push_back(mid_payload);

  for (int fd : fds) {
    EXPECT_TRUE(ClosedWithin(fd, 5000)) << "stalled peer never evicted";
    ::close(fd);
  }
  EXPECT_GT(server.metrics().evicted_deadline.Load(), 0u);
  EXPECT_GT(server.metrics().evicted_idle.Load(), 0u);

  // A well-behaved client on the same server is unaffected.
  SyncClient client(RawConnect(server.port()));
  EXPECT_EQ(client.Ping(), FrameStatus::kOk);
  server.Shutdown();
}

TEST(WireServer, PartialWritesReassembleIntoServedFrames) {
  auto filter = MakeFilter();
  Server server(filter.get());
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  const auto keys = GenerateDistinctKeys(64, TestSeed(903));
  const std::string frame =
      EncodeFrame(Opcode::kInsert, FrameStatus::kOk,
                  static_cast<uint32_t>(keys.size()), 9,
                  EncodeKeysPayload(keys));
  const int fd = RawConnect(server.port());
  // Dribble the frame 7 bytes at a time — the torn-write shape a fault
  // harness produces and TCP produces naturally under MTU pressure.
  for (size_t off = 0; off < frame.size(); off += 7) {
    ASSERT_TRUE(RawWrite(fd, std::string_view(frame).substr(
                                 off, std::min<size_t>(7, frame.size() - off))));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::shutdown(fd, SHUT_WR);
  const auto frames = ParseFrames(RawDrain(fd));
  ::close(fd);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.status, static_cast<uint8_t>(FrameStatus::kOk));
  EXPECT_EQ(frames[0].payload.size(), keys.size());
  server.Shutdown();
  for (uint64_t k : keys) EXPECT_TRUE(filter->Contains(k));
}

TEST(WireServer, GracefulDrainFinishesInflightAndSnapshots) {
  const std::string snap_path = ScratchPath("drain_snapshot.bbf");
  std::remove(snap_path.c_str());

  auto filter = MakeFilter();
  ServerConfig config;
  config.drain_snapshot_path = snap_path;
  Server server(filter.get(), config);
  ASSERT_TRUE(server.Start());

  // A socketpair makes the determinism airtight: once write() returns,
  // the bytes ARE in the server end's buffer (no TCP delivery race), so
  // every frame below is "fully received" when the drain begins — the
  // contract says all 10 are served before close.
  int sp[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  const int fd = sp[0];
  timeval tv{};
  tv.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  server.AdoptConnection(sp[1]);

  // A ping round trip proves the connection is adopted and serving
  // (an un-adopted fd would be closed, not drained, by a racing drain).
  ASSERT_TRUE(
      RawWrite(fd, EncodeFrame(Opcode::kPing, FrameStatus::kOk, 0, 99, "")));
  ParsedFrame pong;
  ASSERT_TRUE(ReadFrame(fd, &pong));
  ASSERT_EQ(pong.header.seq, 99u);

  const auto keys = GenerateDistinctKeys(1000, TestSeed(904));
  std::string burst;
  for (int i = 0; i < 10; ++i) {
    std::vector<uint64_t> batch(keys.begin() + i * 100,
                                keys.begin() + (i + 1) * 100);
    burst += EncodeFrame(Opcode::kInsert, FrameStatus::kOk, 100,
                         static_cast<uint64_t>(i + 1),
                         EncodeKeysPayload(batch));
  }
  ASSERT_TRUE(RawWrite(fd, burst));
  server.RequestDrain();

  const auto frames = ParseFrames(RawDrain(fd));  // Server closes after.
  ::close(fd);
  ASSERT_EQ(frames.size(), 10u);
  std::vector<uint64_t> acked;
  for (const auto& f : frames) {
    ASSERT_EQ(f.header.status, static_cast<uint8_t>(FrameStatus::kOk));
    for (size_t i = 0; i < f.payload.size(); ++i) {
      if (static_cast<uint8_t>(f.payload[i]) != kInsertNacked) {
        acked.push_back(keys[(f.header.seq - 1) * 100 + i]);
      }
    }
  }

  // New connections are refused while draining / after shutdown.
  server.Shutdown();
  EXPECT_FALSE(server.running());

  // Acked implies present — across the drain.
  for (uint64_t k : acked) ASSERT_TRUE(filter->Contains(k));

  // The drain snapshot is a loadable §8 frame holding every acked key.
  std::ifstream is(snap_path, std::ios::binary);
  ASSERT_TRUE(is.good()) << "drain snapshot was not written";
  auto restored = MakeFilter();
  ASSERT_TRUE(restored->Load(is));
  for (uint64_t k : acked) ASSERT_TRUE(restored->Contains(k));
  std::remove(snap_path.c_str());
}

TEST(WireServer, DrainOnSignalIsAsyncSignalSafePath) {
  auto filter = MakeFilter();
  Server server(filter.get());
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());
  server.InstallDrainOnSignal(SIGUSR1);
  ASSERT_FALSE(server.draining());
  ::raise(SIGUSR1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!server.draining() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(server.draining());
  server.Shutdown();
  ::signal(SIGUSR1, SIG_DFL);
}

// --- The socket-level fault sweep -------------------------------------------

/// What the wire codec itself says about a (possibly corrupted) request
/// byte stream — the reference model the server is checked against. The
/// codec is the oracle: its unit tests (wire_fuzz_test) pin its behavior,
/// and the server must agree with it frame for frame.
struct StreamExpectation {
  /// Per cleanly-cut, semantically decodable frame: the insert keys it
  /// carries (empty for non-insert opcodes).
  std::vector<std::vector<uint64_t>> served_frames;
  /// The stream ends in a framing/semantic violation (vs. a clean or
  /// merely incomplete tail).
  bool ends_in_violation = false;
};

StreamExpectation ExpectFromStream(const std::string& stream) {
  StreamExpectation e;
  size_t off = 0;
  while (true) {
    FrameHeader h;
    std::string_view payload;
    size_t consumed = 0;
    const std::string_view rest(stream.data() + off, stream.size() - off);
    const CutResult res = CutFrame(rest, &h, &payload, &consumed);
    if (res == CutResult::kNeedMore) break;
    if (res == CutResult::kMalformed) {
      e.ends_in_violation = true;
      break;
    }
    off += consumed;
    const Opcode op = static_cast<Opcode>(h.opcode);
    std::vector<uint64_t> keys;
    if (op == Opcode::kLookup || op == Opcode::kInsert ||
        op == Opcode::kErase) {
      if (!DecodeKeysPayload(h, payload, &keys)) {
        // Structurally fine, semantically broken: the server closes.
        e.ends_in_violation = true;
        break;
      }
      if (op != Opcode::kInsert) keys.clear();
    }
    // kBlockCheck/kReportFalseBlock: the sweep server mounts no
    // blocklist, so the payload is never decoded — kUnsupported, served.
    e.served_frames.push_back(std::move(keys));
  }
  return e;
}

TEST(WireFaultSweep, CorruptedStreamsNeverCrashCorruptOrLoseAckedKeys) {
  const uint64_t seed = TestSeed(905);
  BBF_ANNOUNCE_SEED(seed);

  auto filter = MakeFilter(1 << 18);
  Server server(filter.get());
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  // The pristine stream: two insert frames. Corruptions of it exercise
  // every header field, both payloads, and the inter-frame boundary.
  const auto keys = GenerateDistinctKeys(96, seed);
  const std::vector<uint64_t> batch_a(keys.begin(), keys.begin() + 48);
  const std::vector<uint64_t> batch_b(keys.begin() + 48, keys.end());
  const std::string frame_a =
      EncodeFrame(Opcode::kInsert, FrameStatus::kOk, 48, 1,
                  EncodeKeysPayload(batch_a));
  const std::string stream =
      frame_a + EncodeFrame(Opcode::kInsert, FrameStatus::kOk, 48, 2,
                            EncodeKeysPayload(batch_b));

  fault::FrameSpec spec;
  spec.field_boundaries.assign(std::begin(kWireFieldBoundaries),
                               std::end(kWireFieldBoundaries));
  // The second frame's boundaries too: every fault the first frame can
  // suffer, the stream position after a served frame can suffer.
  for (size_t b : kWireFieldBoundaries) {
    spec.field_boundaries.push_back(frame_a.size() + b);
  }
  spec.length_field_offsets = {kWireCountOffset, kWireLenOffset,
                               frame_a.size() + kWireCountOffset,
                               frame_a.size() + kWireLenOffset};
  spec.checksum_offset = kWireChecksumOffset;
  const auto corpus = fault::FrameCorpus(stream, spec, seed);
  ASSERT_GT(corpus.size(), 150u);

  std::set<uint64_t> acked;  // The reference model's ground truth.
  for (const auto& c : corpus) {
    SCOPED_TRACE("corruption: " + c.name);
    const StreamExpectation expect = ExpectFromStream(c.blob);

    const int fd = RawConnect(server.port());
    ASSERT_TRUE(RawWrite(fd, c.blob));
    ::shutdown(fd, SHUT_WR);
    const auto frames = ParseFrames(RawDrain(fd));
    ::close(fd);

    // Exactly the codec-approved prefix is served — never a frame more
    // (accepted corruption), never one fewer (dropped valid work). A
    // trailing kMalformed NACK is the close-time diagnostic, not service.
    std::vector<ParsedFrame> served;
    for (const auto& f : frames) {
      if (f.header.status != static_cast<uint8_t>(FrameStatus::kMalformed)) {
        served.push_back(f);
      }
    }
    ASSERT_EQ(served.size(), expect.served_frames.size());
    for (size_t i = 0; i < served.size(); ++i) {
      ASSERT_EQ(served[i].header.status,
                static_cast<uint8_t>(FrameStatus::kOk));
      const auto& sent_keys = expect.served_frames[i];
      if (sent_keys.empty()) continue;  // Non-insert opcode.
      ASSERT_EQ(served[i].payload.size(), sent_keys.size());
      for (size_t k = 0; k < sent_keys.size(); ++k) {
        if (static_cast<uint8_t>(served[i].payload[k]) != kInsertNacked) {
          acked.insert(sent_keys[k]);
        }
      }
    }
  }

  // Liveness: the whole corpus cost connections, never the server.
  SyncClient client(RawConnect(server.port()));
  EXPECT_EQ(client.Ping(), FrameStatus::kOk);

  // Zero acked-then-lost inserts across the entire sweep.
  for (uint64_t k : acked) {
    ASSERT_TRUE(filter->Contains(k)) << "acked key lost: " << k;
  }
  server.Shutdown();
}

TEST(WireFaultSweep, MidFrameDisconnectAtEveryBoundaryLeavesServerClean) {
  auto filter = MakeFilter();
  Server server(filter.get());
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  const std::string frame =
      EncodeFrame(Opcode::kInsert, FrameStatus::kOk, 4, 1,
                  EncodeKeysPayload(std::vector<uint64_t>{5, 6, 7, 8}));
  for (size_t boundary : kWireFieldBoundaries) {
    SCOPED_TRACE("disconnect after " + std::to_string(boundary) + " bytes");
    const int fd = RawConnect(server.port());
    if (boundary > 0) {
      ASSERT_TRUE(RawWrite(fd, std::string_view(frame).substr(0, boundary)));
    }
    ::close(fd);  // Hard disconnect mid-frame.
  }
  // The torn frames were never complete, so nothing may have committed.
  SyncClient client(RawConnect(server.port()));
  std::vector<uint64_t> keys = {5, 6, 7, 8};
  std::vector<uint8_t> res;
  ASSERT_EQ(client.Lookup(keys, &res), FrameStatus::kOk);
  EXPECT_EQ(server.metrics().frames_served.Load(), 1u);  // Just the lookup.
  server.Shutdown();
}

}  // namespace
}  // namespace bbf::net
