// Minimal RAII wrappers over local (AF_UNIX) stream sockets plus framed
// send/receive, shared by the server, the client library, and the load
// driver.
//
// Local sockets keep the serving story kernel-arbitrated (real
// backpressure, real partial reads/writes — everything the corruption and
// chaos batteries need) without opening a network surface; the protocol
// itself is transport-agnostic, so a TCP listener is a second Listen*
// function away.
//
// All calls handle EINTR and short reads/writes; RecvFrame distinguishes a
// clean EOF at a frame boundary (NotFound, connection over) from
// truncation inside a frame (Corruption) and from damaged headers or
// checksums (Corruption from the util/frame.h codec).
#pragma once

#include <string>
#include <string_view>
#include <utility>

#include "util/result.h"
#include "util/status.h"

namespace streamfreq {

/// An owned file descriptor: closes on destruction, move-only.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }

  OwnedFd(OwnedFd&& other) noexcept : fd_(other.Release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Gives up ownership without closing.
  int Release() { return std::exchange(fd_, -1); }

  /// Closes now (idempotent).
  void Reset();

 private:
  int fd_ = -1;
};

/// Binds and listens on a unix-domain socket at `path`, replacing a stale
/// socket file from a previous run. Paths are limited by the platform's
/// sun_path (about 100 bytes).
Result<OwnedFd> ListenUnix(const std::string& path, int backlog = 64);

/// Accepts one connection. IoError on a closed/failed listener.
Result<OwnedFd> AcceptConn(const OwnedFd& listener);

/// Connects to the unix-domain socket at `path`.
Result<OwnedFd> ConnectUnix(const std::string& path);

/// Writes one checksummed frame: the header and the payload as two iovecs
/// of one sendmsg loop (partial sends resume where they stopped), so the
/// payload is not copied. InvalidArgument when the payload exceeds
/// kMaxPayloadBytes; IoError when the peer is gone (never SIGPIPE).
Status SendFrame(int fd, std::string_view payload);

/// Reads one frame and returns its payload. NotFound on EOF before any
/// header byte (the peer hung up cleanly between frames); Corruption on
/// mid-frame truncation, bad magic/length, or checksum mismatch; IoError
/// on socket errors.
Result<std::string> RecvFrame(int fd);

}  // namespace streamfreq
