#include "util/net.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/frame.h"
#include "util/iovec.h"
#include "util/macros.h"

namespace streamfreq {

namespace {

Result<OwnedFd> MakeUnixSocket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket(AF_UNIX)");
  return OwnedFd(fd);
}

Status FillAddr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("socket path empty or too long: " + path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::OK();
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  std::string frame_bytes;
  frame_bytes.reserve(frame::kHeaderSize + payload.size());
  frame::Append(&frame_bytes, kFrameMagic, payload);
  return frame_bytes;
}

Result<std::string_view> DecodeFrame(std::string_view frame) {
  return frame::Decode(frame, kFrameMagic, kMaxPayloadBytes);
}

Status DecodeFrame(std::string_view frame, std::string* payload) {
  STREAMFREQ_ASSIGN_OR_RETURN(std::string_view body, DecodeFrame(frame));
  payload->assign(body);
  return Status::OK();
}

Status VerifyFrame(std::string_view header, std::string_view payload) {
  STREAMFREQ_ASSIGN_OR_RETURN(
      const frame::Header parsed,
      frame::ParseHeader(header, kFrameMagic, kMaxPayloadBytes));
  return frame::VerifyPayload(parsed, payload);
}

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<OwnedFd> ListenUnix(const std::string& path, int backlog) {
  sockaddr_un addr;
  STREAMFREQ_RETURN_NOT_OK(FillAddr(path, &addr));
  STREAMFREQ_ASSIGN_OR_RETURN(OwnedFd fd, MakeUnixSocket());
  // A socket file left by a dead server would make bind fail forever;
  // unlink is safe because a live listener would have been found by the
  // connect-based health checks callers do first.
  std::remove(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind(" + path + ")");
  }
  if (::listen(fd.get(), backlog) != 0) {
    return ErrnoStatus("listen(" + path + ")");
  }
  return fd;
}

Result<OwnedFd> AcceptConn(const OwnedFd& listener) {
  for (;;) {
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd >= 0) return OwnedFd(fd);
    if (errno == EINTR) continue;
    return ErrnoStatus("accept");
  }
}

Result<OwnedFd> ConnectUnix(const std::string& path) {
  sockaddr_un addr;
  STREAMFREQ_RETURN_NOT_OK(FillAddr(path, &addr));
  STREAMFREQ_ASSIGN_OR_RETURN(OwnedFd fd, MakeUnixSocket());
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return ErrnoStatus("connect(" + path + ")");
  }
  return fd;
}

Status SendFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload exceeds bound");
  }
  // Header and payload go out as two iovecs: the payload is sent from the
  // caller's buffer, never copied behind a header.
  const std::string_view pieces[] = {payload};
  std::array<char, frame::kHeaderSize> header =
      frame::HeaderFor(kFrameMagic, pieces);
  iovec iov[] = {{header.data(), header.size()},
                 {const_cast<char*>(payload.data()), payload.size()}};
  // MSG_NOSIGNAL turns a peer hangup into EPIPE instead of a process-killing
  // SIGPIPE — both server and client treat it as an ordinary IoError.
  const bool sent = WriteAllIovecs(iov, 2, [fd](iovec* rest, size_t n) {
    msghdr msg{};
    msg.msg_iov = rest;
    msg.msg_iovlen = n;
    return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
  });
  return sent ? Status::OK() : ErrnoStatus("write");
}

Result<std::string> RecvFrame(int fd) {
  STREAMFREQ_ASSIGN_OR_RETURN(
      const std::optional<frame::Header> header,
      frame::ReadHeader(fd, kFrameMagic, kMaxPayloadBytes));
  if (!header) return Status::NotFound("connection closed");
  std::string payload(static_cast<size_t>(header->payload_len), '\0');
  STREAMFREQ_RETURN_NOT_OK(frame::ReadPayload(fd, payload));
  STREAMFREQ_RETURN_NOT_OK(frame::VerifyPayload(*header, payload));
  return payload;
}

}  // namespace streamfreq
