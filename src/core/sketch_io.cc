#include "core/sketch_io.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include "util/failpoint.h"
#include "util/frame.h"
#include "util/iovec.h"

namespace streamfreq {

namespace {

// Implausible-length guard for blob payloads (a flipped high bit in the
// length field must not claim terabytes).
constexpr uint64_t kMaxBlobPayloadBytes = uint64_t{1} << 40;

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IoError(what + ": " + path + ": " + std::strerror(errno));
}

// Writes `head` and then `pieces` back to back to a new `path` (created or
// truncated) with writev on its own fd, and checks the close as well: a
// full disk may only report there.
Status WritePieces(const std::string& path, std::string_view head,
                   std::span<const std::string_view> pieces) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return ErrnoStatus("cannot open for writing", path);
  std::vector<iovec> iov;
  iov.reserve(1 + pieces.size());
  iov.push_back({const_cast<char*>(head.data()), head.size()});
  for (const std::string_view piece : pieces) {
    iov.push_back({const_cast<char*>(piece.data()), piece.size()});
  }
  const bool written =
      WriteAllIovecs(iov.data(), iov.size(), [fd](iovec* rest, size_t n) {
        return ::writev(fd, rest, static_cast<int>(std::min<size_t>(
                                      n, static_cast<size_t>(IOV_MAX))));
      });
  if (!written) {
    const Status status = ErrnoStatus("write failed", path);
    ::close(fd);
    return status;
  }
  if (::close(fd) != 0) return ErrnoStatus("write failed", path);
  return Status::OK();
}

}  // namespace

Status WriteBlobFileAtomic(const std::string& path, uint64_t magic,
                           std::span<const std::string_view> pieces) {
  const std::array<char, frame::kHeaderSize> header =
      frame::HeaderFor(magic, pieces);

  if (const FailDecision fp = SFQ_FAILPOINT("sketch_io.write"); fp) {
    MaybeDieAtFailpoint(fp);  // power cut before any byte lands
    if (fp.action == FailAction::kTorn) {
      // Simulate a crash mid-write of a non-atomic writer: a prefix of the
      // frame lands at the *destination* path, bypassing the temp+rename
      // protocol, so readers must catch it via truncation/CRC checks.
      std::string frame_bytes(header.data(), header.size());
      for (const std::string_view piece : pieces) frame_bytes.append(piece);
      size_t keep = fp.param == 0 ? frame_bytes.size() / 2 : fp.param;
      keep = keep < frame_bytes.size() ? keep : frame_bytes.size();
      (void)WritePieces(path, std::string_view(frame_bytes).substr(0, keep),
                        {});
    }
    return Status::IoError("injected failure: sketch_io.write: " + path);
  }

  // Crash consistency: land the bytes in a sibling temp file, then publish
  // with rename — atomic within a directory on POSIX, so a reader sees
  // either the old complete file or the new complete file, never a prefix.
  // The payload is written from where it lives, behind the header.
  const std::string tmp_path = path + ".tmp";
  const Status write_status = WritePieces(
      tmp_path, std::string_view(header.data(), header.size()), pieces);
  if (!write_status.ok()) {
    std::remove(tmp_path.c_str());
    return write_status;
  }
  if (const FailDecision fp = SFQ_FAILPOINT("sketch_io.rename"); fp) {
    MaybeDieAtFailpoint(fp);  // power cut with the temp written, not renamed
    if (fp.action == FailAction::kError) {
      std::remove(tmp_path.c_str());
      return Status::IoError("injected failure: sketch_io.rename: " + path);
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("rename failed: " + tmp_path + " -> " + path);
  }
  return Status::OK();
}

Result<std::string> ReadBlobFileVerified(const std::string& path,
                                         uint64_t magic) {
  const FailDecision fp = SFQ_FAILPOINT("sketch_io.read");
  if (fp.action == FailAction::kError) {
    return Status::IoError("injected failure: sketch_io.read: " + path);
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  // The buffer grows with the bytes actually read, never with the length
  // field, so a corrupted length cannot trigger a giant allocation.
  std::string data;
  char chunk[1 << 14];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    data.append(chunk, static_cast<size_t>(in.gcount()));
  }

  if (fp.action == FailAction::kBitFlip && data.size() > frame::kHeaderSize) {
    // Bit rot in the payload between write and read; the CRC must catch it.
    const uint64_t bit = fp.param % ((data.size() - frame::kHeaderSize) * 8);
    data[frame::kHeaderSize + bit / 8] ^= static_cast<char>(1u << (bit % 8));
  }

  // Exactly one frame: truncation, wrong magic, an implausible length,
  // trailing bytes and a checksum mismatch are all Corruption.
  const Result<std::string_view> payload =
      frame::Decode(data, magic, kMaxBlobPayloadBytes);
  if (!payload.ok()) {
    const Status& status = payload.status();
    return Status(status.code(), status.message() + ": " + path);
  }
  data.erase(0, frame::kHeaderSize);
  return data;
}

std::vector<std::string_view> PiecesWithSketch(std::string_view head,
                                               const CountSketch& sketch) {
  std::vector<std::string_view> pieces;
  pieces.reserve(1 + sketch.depth());
  pieces.push_back(head);
  for (size_t i = 0; i < sketch.depth(); ++i) {
    pieces.push_back(sketch.SerializedRow(i));
  }
  return pieces;
}

Status WriteSketchFile(const std::string& path, const CountSketch& sketch) {
  std::string head;
  sketch.AppendSerializedHeader(&head);
  return WriteBlobFileAtomic(path, kSketchFileMagic,
                             PiecesWithSketch(head, sketch));
}

Result<CountSketch> ReadSketchFile(const std::string& path) {
  STREAMFREQ_ASSIGN_OR_RETURN(std::string payload,
                              ReadBlobFileVerified(path, kSketchFileMagic));
  return CountSketch::Deserialize(payload);
}

}  // namespace streamfreq
