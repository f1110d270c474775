#include "apps/net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "util/hash.h"

namespace bbf::net {

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

bool SyncClient::ReadExactly(char* buf, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd_, buf + off, len - off, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

FrameStatus SyncClient::Call(Opcode op, uint32_t count,
                             std::string_view payload,
                             std::string* response_payload) {
  if (fd_ < 0) return FrameStatus::kTransportError;
  const uint64_t seq = ++seq_;
  if (!WriteAll(EncodeFrame(op, FrameStatus::kOk, count, seq, payload))) {
    Fail();
    return FrameStatus::kTransportError;
  }
  char header_buf[kWireHeaderBytes];
  if (!ReadExactly(header_buf, sizeof(header_buf))) {
    Fail();
    return FrameStatus::kTransportError;
  }
  const FrameHeader h =
      PeekHeader(std::string_view(header_buf, sizeof(header_buf)));
  // The client applies the server's own defensive discipline: validate
  // the header (caps included) before trusting payload_len, verify the
  // checksum, and treat any mismatch as a dead connection.
  if (CheckHeader(h) != HeaderCheck::kOk || h.seq != seq) {
    Fail();
    return FrameStatus::kTransportError;
  }
  std::string body(static_cast<size_t>(h.payload_len), '\0');
  if (!body.empty() && !ReadExactly(body.data(), body.size())) {
    Fail();
    return FrameStatus::kTransportError;
  }
  if (HashBytes(body.data(), body.size(), kWireChecksumSeed) != h.checksum) {
    Fail();
    return FrameStatus::kTransportError;
  }
  if (response_payload != nullptr) *response_payload = std::move(body);
  return static_cast<FrameStatus>(h.status);
}

FrameStatus SyncClient::Ping() { return Call(Opcode::kPing, 0, "", nullptr); }

FrameStatus SyncClient::CallItems(Opcode op, size_t count,
                                  std::string_view payload,
                                  std::vector<uint8_t>* out) {
  std::string body;
  const FrameStatus st =
      Call(op, static_cast<uint32_t>(count), payload, &body);
  if (st != FrameStatus::kOk) return st;
  if (body.size() != count) return FrameStatus::kTransportError;
  out->assign(body.begin(), body.end());
  return st;
}

FrameStatus SyncClient::Lookup(std::span<const uint64_t> keys,
                               std::vector<uint8_t>* out) {
  return CallItems(Opcode::kLookup, keys.size(), EncodeKeysPayload(keys), out);
}

FrameStatus SyncClient::Insert(std::span<const uint64_t> keys,
                               std::vector<uint8_t>* out) {
  return CallItems(Opcode::kInsert, keys.size(), EncodeKeysPayload(keys), out);
}

FrameStatus SyncClient::Erase(std::span<const uint64_t> keys,
                              std::vector<uint8_t>* out) {
  return CallItems(Opcode::kErase, keys.size(), EncodeKeysPayload(keys), out);
}

FrameStatus SyncClient::Metrics(std::string* text) {
  return Call(Opcode::kMetrics, 0, "", text);
}

FrameStatus SyncClient::TunerCtl(uint8_t cmd, std::string* text) {
  const char payload[1] = {static_cast<char>(cmd)};
  return Call(Opcode::kTunerCtl, 1, std::string_view(payload, 1), text);
}

FrameStatus SyncClient::BlockCheck(const std::vector<std::string>& urls,
                                   std::vector<uint8_t>* out) {
  return CallItems(Opcode::kBlockCheck, urls.size(),
                   EncodeStringsPayload(urls), out);
}

FrameStatus SyncClient::ReportFalseBlock(const std::vector<std::string>& urls,
                                         std::vector<uint8_t>* out) {
  return CallItems(Opcode::kReportFalseBlock, urls.size(),
                   EncodeStringsPayload(urls), out);
}

}  // namespace bbf::net
