// Vectored writes and reads that finish. One writev(2) or sendmsg(2) may
// move fewer bytes than asked — a full socket buffer, a signal, a file-size
// limit — and stop inside an iovec; WriteAllIovecs repeats the call on what
// is left. Callers send bytes from where they already live (a frame header
// and a payload, a file head and counter rows) without joining them in a
// buffer. ReadUpTo does the same for read(2) into one buffer.
#pragma once

#include <cerrno>
#include <cstddef>

#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

namespace streamfreq {

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

/// read(2) into `data` until `len` bytes arrive or the input ends,
/// retrying EINTR. Returns the bytes read, fewer than `len` only at end of
/// input, or -1 with errno set on any other failure.
inline ssize_t ReadUpTo(int fd, char* data, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, data + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

}  // namespace streamfreq
