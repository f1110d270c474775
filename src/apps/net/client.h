#ifndef BBF_APPS_NET_CLIENT_H_
#define BBF_APPS_NET_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apps/net/wire.h"

namespace bbf::net {

/// Blocking request/response client for the wire protocol — one call per
/// frame, used by tests, perfbench's wire workloads, and the demo. It
/// validates response frames with the same CutFrame discipline as the
/// server (a hostile or corrupt *server* cannot crash a client either) and
/// reports transport failure as FrameStatus::kTransportError, after which
/// the connection is closed and every later call fails fast.
class SyncClient {
 public:
  /// Takes ownership of a connected socket (socketpair end, TCP socket).
  explicit SyncClient(int fd) : fd_(fd) {}
  ~SyncClient();

  SyncClient(SyncClient&& other) noexcept : fd_(other.fd_), seq_(other.seq_) {
    other.fd_ = -1;
  }
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
  FrameStatus Call(Opcode op, uint32_t count, std::string_view payload,
                   std::string* response_payload);
  // A frame of `count` items answered by one status byte per item.
  FrameStatus CallItems(Opcode op, size_t count, std::string_view payload,
                        std::vector<uint8_t>* out);
  bool WriteAll(std::string_view bytes);
  bool ReadExactly(char* buf, size_t len);
  void Fail();

  int fd_;
  uint64_t seq_ = 0;
};

}  // namespace bbf::net

#endif  // BBF_APPS_NET_CLIENT_H_
