// Vectored writes and reads that finish. One writev(2) or sendmsg(2) may
// move fewer bytes than asked — a full socket buffer, a signal, a file-size
// limit — and stop inside an iovec; WriteAllIovecs repeats the call on what
// is left. Callers send bytes from where they already live (a frame header
// and a payload, a file head and counter rows) without joining them in a
// buffer; WriteAllPieces is that loop over writev(2) for files, and
// WriteTornPrefix writes a prefix of the same bytes. ErrnoStatus reports a
// failed file call.
#pragma once

#include <cerrno>
#include <climits>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>
#include <sys/uio.h>

#include "util/status.h"

namespace streamfreq {

/// IoError "`what`: <strerror(errno)>" for the call that just failed.
inline Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// Calls `write_some(iov, count)` — one writev or sendmsg over the iovecs
/// left, returning the bytes it moved or -1 with errno set — until all of
/// `iov[0, count)` is written, retrying EINTR. False on any other failure,
/// with errno kept for the caller's message. Consumes the iovecs.
template <typename WriteSome>
bool WriteAllIovecs(iovec* iov, size_t count, WriteSome write_some) {
  while (count > 0) {
    const ssize_t n = write_some(iov, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    size_t done = static_cast<size_t>(n);
    while (count > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --count;
    }
    if (done > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
  return true;
}

/// Writes `head` and then `pieces` back to back to `fd` with writev(2), at
/// most IOV_MAX iovecs per call, until every byte is written. False on
/// failure, with errno kept for the caller's message.
inline bool WriteAllPieces(int fd, std::string_view head,
                           std::span<const std::string_view> pieces) {
  std::vector<iovec> iov;
  iov.reserve(1 + pieces.size());
  iov.push_back({const_cast<char*>(head.data()), head.size()});
  for (const std::string_view piece : pieces) {
    iov.push_back({const_cast<char*>(piece.data()), piece.size()});
  }
  return WriteAllIovecs(iov.data(), iov.size(), [fd](iovec* rest, size_t n) {
    return ::writev(fd, rest, static_cast<int>(n < IOV_MAX ? n : IOV_MAX));
  });
}

/// WriteAllPieces of only the first `keep` bytes (half when 0): the prefix a
/// crash mid-write leaves, for the torn-write failpoints.
inline bool WriteTornPrefix(int fd, std::string_view head,
                            std::span<const std::string_view> pieces,
                            size_t keep) {
  std::string bytes(head);
  for (const std::string_view piece : pieces) bytes.append(piece);
  if (keep == 0) keep = bytes.size() / 2;
  return WriteAllPieces(fd, std::string_view(bytes).substr(0, keep), {});
}

}  // namespace streamfreq
