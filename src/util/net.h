// The RPC transport: RAII wrappers over local (AF_UNIX) stream sockets,
// and the RPC frame format sent over them. Shared by the server, the
// client library, the load driver and the merge tree (`sfq aggregate`
// ships deltas in these frames; MergeTreeSim builds and checks the same
// header in memory, over each delta where it lies).
//
// Local sockets keep the serving story kernel-arbitrated (real
// backpressure, real partial reads/writes — everything the corruption and
// chaos batteries need) without opening a network surface; the protocol
// itself is transport-agnostic, so a TCP listener is a second Listen*
// function away.
//
// An RPC frame is one util/frame.h frame under kFrameMagic ("SFQRPC01"),
// its payload at most kMaxPayloadBytes. All calls handle EINTR and short
// reads/writes. RecvFrame is the util/frame.h reader (ReadHeader,
// ReadPayload, VerifyPayload) that blob files and journal replay share;
// its verdicts are its own: a clean EOF at a frame boundary is NotFound
// (connection over), while truncation inside a frame and damaged headers
// or checksums are Corruption.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "util/result.h"
#include "util/status.h"

namespace streamfreq {

/// The RPC frame magic.
inline constexpr uint64_t kFrameMagic = 0x3130435052514653ULL;  // "SFQRPC01"
/// Hard bound on one frame's payload; a header declaring more is corrupt
/// (and nothing is allocated for it).
inline constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 26;

/// Wraps `payload` in a checksummed frame.
std::string EncodeFrame(std::string_view payload);

/// Validates a complete in-memory frame in place and returns a view of its
/// payload, valid as long as `frame`'s bytes are. Any truncation, magic
/// mismatch, oversized length, trailing bytes, or CRC mismatch is
/// Corruption.
Result<std::string_view> DecodeFrame(std::string_view frame);

/// DecodeFrame into an owned copy of the payload. Only the sfq_bench
/// harness, which times it as the frame-decode layer, still calls this
/// form; it copies after the single in-place validation above.
Status DecodeFrame(std::string_view frame, std::string* payload);

/// RecvFrame's checks on a frame whose header and payload lie apart, read
/// or built separately: Corruption on a short header, bad magic, an
/// oversized or mismatched length, or a CRC mismatch. Nothing is copied.
Status VerifyFrame(std::string_view header, std::string_view payload);

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
