#ifndef BBF_APPS_NET_CLIENT_H_
#define BBF_APPS_NET_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/net/wire.h"

namespace bbf::net {

/// Blocking request/response client for the wire protocol — one call per
/// frame, used by tests, perfbench's wire workloads, and the demo. It
/// validates response frames with the same CutFrame discipline as the
/// server (a hostile or corrupt *server* cannot crash a client either) and
/// reports transport failure as FrameStatus::kTransportError, after which
/// the connection is closed and every later call fails fast.
///
/// A call encodes its request straight into one reused frame buffer and
/// reads its reply into one reused receive buffer, usually with a single
/// recv; the reply's payload is copied once, into the caller's output.
class SyncClient {
 public:
  /// Takes ownership of a connected socket (socketpair end, TCP socket).
  explicit SyncClient(int fd) : fd_(fd) {}
  ~SyncClient();

  SyncClient(SyncClient&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        seq_(other.seq_),
        request_(std::move(other.request_)),
        in_(std::move(other.in_)),
        in_len_(other.in_len_),
        reply_len_(other.reply_len_) {}
  SyncClient& operator=(SyncClient&&) = delete;
  SyncClient(const SyncClient&) = delete;
  SyncClient& operator=(const SyncClient&) = delete;

  /// Connects to 127.0.0.1:port. Returns the fd, or -1.
  static int ConnectTcp(uint16_t port);

  bool ok() const { return fd_ >= 0; }

  FrameStatus Ping();
  /// out[i] = kKeyPresent/kKeyAbsent for keys[i].
  FrameStatus Lookup(std::span<const uint64_t> keys,
                     std::vector<uint8_t>* out);
  /// out[i] = kInsertAccepted/kInsertExpanded/kInsertNacked for keys[i].
  /// A key is ACKED (queryable forever after) iff its byte is not
  /// kInsertNacked AND the frame status is kOk.
  FrameStatus Insert(std::span<const uint64_t> keys,
                     std::vector<uint8_t>* out);
  /// out[i] = kEraseDone/kEraseMiss.
  FrameStatus Erase(std::span<const uint64_t> keys,
                    std::vector<uint8_t>* out);
  /// Prometheus text from the server's metrics endpoint.
  FrameStatus Metrics(std::string* text);
  /// out[i] = 1 if urls[i] is blocked.
  FrameStatus BlockCheck(const std::vector<std::string>& urls,
                         std::vector<uint8_t>* out);
  /// out[i] = 1 if the blocklist adapted for urls[i].
  FrameStatus ReportFalseBlock(const std::vector<std::string>& urls,
                               std::vector<uint8_t>* out);
  /// Tuner control (kTunerCtl): `cmd` is kTunerCmdStatus/kTunerCmdPoll;
  /// the tuner's text reply lands in `text`. kUnsupported when the
  /// server runs without a tuner.
  FrameStatus TunerCtl(uint8_t cmd, std::string* text);

 private:
  // Sizes the request frame for a payload of `payload_len` bytes and
  // returns where the payload goes, after the header space.
  char* StartRequest(size_t payload_len);
  // Seals and sends the request frame, then reads its reply. On kOk and
  // the other frame statuses, *reply (when non-null) views the reply's
  // payload inside in_, valid until the next call.
  FrameStatus Exchange(Opcode op, uint32_t count, std::string_view* reply);
  // A frame whose payload is `payload`, answered by text (or nothing).
  FrameStatus CallText(Opcode op, uint32_t count, std::string_view payload,
                       std::string* text);
  // The request frame already holds `count` items, each answered by one
  // status byte.
  FrameStatus CallItems(Opcode op, size_t count, std::vector<uint8_t>* out);
  FrameStatus CallKeys(Opcode op, std::span<const uint64_t> keys,
                       std::vector<uint8_t>* out);
  FrameStatus CallStrings(Opcode op, const std::vector<std::string>& items,
                          std::vector<uint8_t>* out);
  bool WriteAll(std::string_view bytes);
  // One recv into in_, with room for the whole frame once its header is in.
  bool Receive();
  void Fail();

  int fd_;
  uint64_t seq_ = 0;
  std::string request_;   // One request frame, encoded in place.
  std::string in_;        // Receive buffer; in_[0, in_len_) holds bytes.
  size_t in_len_ = 0;
  size_t reply_len_ = 0;  // Leading bytes of in_ the last reply took.
};

}  // namespace bbf::net

#endif  // BBF_APPS_NET_CLIENT_H_
