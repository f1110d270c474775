#include "apps/net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace bbf::net {
namespace {

// The receive buffer's least size: a reply of a few thousand keys' status
// bytes arrives whole in one recv.
constexpr size_t kRecvChunk = size_t{64} << 10;

}  // namespace

SyncClient::~SyncClient() {
  if (fd_ >= 0) ::close(fd_);
}

int SyncClient::ConnectTcp(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SyncClient::Fail() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool SyncClient::WriteAll(std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool SyncClient::Receive() {
  size_t want = kRecvChunk;
  if (in_len_ >= kWireHeaderBytes) {
    // CutFrame asked for more after checking this header, so its
    // payload_len is within the cap.
    const FrameHeader h = PeekHeader(std::string_view(in_.data(), in_len_));
    want = std::max(want,
                    kWireHeaderBytes + static_cast<size_t>(h.payload_len));
  }
  if (in_.size() < want) in_.resize(want);
  while (true) {
    const ssize_t n =
        ::recv(fd_, in_.data() + in_len_, in_.size() - in_len_, 0);
    if (n > 0) {
      in_len_ += static_cast<size_t>(n);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

char* SyncClient::StartRequest(size_t payload_len) {
  request_.resize(kWireHeaderBytes + payload_len);
  return request_.data() + kWireHeaderBytes;
}

FrameStatus SyncClient::Exchange(Opcode op, uint32_t count,
                                 std::string_view* reply) {
  if (fd_ < 0) return FrameStatus::kTransportError;
  const uint64_t seq = ++seq_;
  SealFrame(request_.data(), request_.size() - kWireHeaderBytes, op,
            FrameStatus::kOk, count, seq);
  if (!WriteAll(request_)) {
    Fail();
    return FrameStatus::kTransportError;
  }
  // The last reply's bytes go; any that arrived after it stay buffered.
  std::memmove(in_.data(), in_.data() + reply_len_, in_len_ - reply_len_);
  in_len_ -= reply_len_;
  reply_len_ = 0;
  // The client applies the server's own defensive discipline: CutFrame
  // checks the header (caps included) before trusting payload_len, then
  // the checksum, and any mismatch is a dead connection.
  FrameHeader h;
  std::string_view payload;
  size_t consumed = 0;
  while (true) {
    const CutResult cut = CutFrame(std::string_view(in_.data(), in_len_), &h,
                                   &payload, &consumed);
    if (cut == CutResult::kFrame) break;
    if (cut == CutResult::kMalformed || !Receive()) {
      Fail();
      return FrameStatus::kTransportError;
    }
  }
  if (h.seq != seq) {
    Fail();
    return FrameStatus::kTransportError;
  }
  reply_len_ = consumed;
  if (reply != nullptr) *reply = payload;
  return static_cast<FrameStatus>(h.status);
}

FrameStatus SyncClient::CallText(Opcode op, uint32_t count,
                                 std::string_view payload, std::string* text) {
  std::memcpy(StartRequest(payload.size()), payload.data(), payload.size());
  std::string_view reply;
  const FrameStatus st = Exchange(op, count, &reply);
  if (st != FrameStatus::kTransportError && text != nullptr) {
    text->assign(reply);
  }
  return st;
}

FrameStatus SyncClient::CallItems(Opcode op, size_t count,
                                  std::vector<uint8_t>* out) {
  std::string_view reply;
  const FrameStatus st = Exchange(op, static_cast<uint32_t>(count), &reply);
  if (st != FrameStatus::kOk) return st;
  if (reply.size() != count) return FrameStatus::kTransportError;
  out->assign(reply.begin(), reply.end());
  return st;
}

FrameStatus SyncClient::CallKeys(Opcode op, std::span<const uint64_t> keys,
                                 std::vector<uint8_t>* out) {
  EncodeKeysInto(keys, StartRequest(keys.size() * 8));
  return CallItems(op, keys.size(), out);
}

FrameStatus SyncClient::CallStrings(Opcode op,
                                    const std::vector<std::string>& items,
                                    std::vector<uint8_t>* out) {
  const std::string payload = EncodeStringsPayload(items);
  std::memcpy(StartRequest(payload.size()), payload.data(), payload.size());
  return CallItems(op, items.size(), out);
}

FrameStatus SyncClient::Ping() {
  return CallText(Opcode::kPing, 0, "", nullptr);
}

FrameStatus SyncClient::Lookup(std::span<const uint64_t> keys,
                               std::vector<uint8_t>* out) {
  return CallKeys(Opcode::kLookup, keys, out);
}

FrameStatus SyncClient::Insert(std::span<const uint64_t> keys,
                               std::vector<uint8_t>* out) {
  return CallKeys(Opcode::kInsert, keys, out);
}

FrameStatus SyncClient::Erase(std::span<const uint64_t> keys,
                              std::vector<uint8_t>* out) {
  return CallKeys(Opcode::kErase, keys, out);
}

FrameStatus SyncClient::Metrics(std::string* text) {
  return CallText(Opcode::kMetrics, 0, "", text);
}

FrameStatus SyncClient::TunerCtl(uint8_t cmd, std::string* text) {
  const char payload[1] = {static_cast<char>(cmd)};
  return CallText(Opcode::kTunerCtl, 1, std::string_view(payload, 1), text);
}

FrameStatus SyncClient::BlockCheck(const std::vector<std::string>& urls,
                                   std::vector<uint8_t>* out) {
  return CallStrings(Opcode::kBlockCheck, urls, out);
}

FrameStatus SyncClient::ReportFalseBlock(const std::vector<std::string>& urls,
                                         std::vector<uint8_t>* out) {
  return CallStrings(Opcode::kReportFalseBlock, urls, out);
}

}  // namespace bbf::net
