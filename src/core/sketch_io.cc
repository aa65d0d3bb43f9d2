#include "core/sketch_io.h"

#include <array>
#include <cstdio>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/failpoint.h"
#include "util/frame.h"
#include "util/iovec.h"
#include "util/net.h"

namespace streamfreq {

namespace {

// Implausible-length guard for blob payloads (a flipped high bit in the
// length field must not claim terabytes).
constexpr uint64_t kMaxBlobPayloadBytes = uint64_t{1} << 40;

// Writes `head` and then `pieces` back to back to a new `path` (created or
// truncated) with writev on its own fd, and checks the close as well: a
// full disk may only report there.
Status WritePieces(const std::string& path, std::string_view head,
                   std::span<const std::string_view> pieces) {
  OwnedFd fd(
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666));
  if (!fd.valid()) return ErrnoStatus("cannot open for writing", path);
  // The status reads errno before the destructor closes the fd.
  if (!WriteAllPieces(fd.get(), head, pieces)) {
    return ErrnoStatus("write failed", path);
  }
  if (::close(fd.Release()) != 0) return ErrnoStatus("write failed", path);
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

  // O_NONBLOCK: a FIFO opens without waiting for a writer, then fails below.
  const OwnedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
  if (!fd.valid()) return ErrnoStatus("cannot open for reading", path);
  struct stat st;
  if (::fstat(fd.get(), &st) != 0) return ErrnoStatus("cannot stat", path);
  // A path that opens but is no file (a directory, say) holds no frame.
  if (!S_ISREG(st.st_mode)) {
    return Status::Corruption("not a regular file: " + path);
  }
  const auto with_path = [&path](const Status& status) {
    return Status(status.code(), status.message() + ": " + path);
  };

  // Exactly one frame: truncation, wrong magic, an implausible length,
  // trailing bytes and a checksum mismatch are all Corruption. The length
  // field must account for the whole file before anything is sized by it.
  std::array<char, frame::kHeaderSize> header_bytes;
  const ssize_t header_got =
      ReadUpTo(fd.get(), header_bytes.data(), header_bytes.size());
  if (header_got < 0) return ErrnoStatus("read failed", path);
  const Result<frame::Header> header = frame::ParseHeader(
      std::string_view(header_bytes.data(), static_cast<size_t>(header_got)),
      magic, kMaxBlobPayloadBytes);
  if (!header.ok()) return with_path(header.status());
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (header->payload_len + frame::kHeaderSize < file_size) {
    return Status::Corruption("trailing bytes after frame payload: " + path);
  }
  if (header->payload_len + frame::kHeaderSize > file_size) {
    return Status::Corruption("frame payload truncated: " + path);
  }

  std::string payload(static_cast<size_t>(header->payload_len), '\0');
  const ssize_t payload_got =
      ReadUpTo(fd.get(), payload.data(), payload.size());
  if (payload_got < 0) return ErrnoStatus("read failed", path);
  if (static_cast<size_t>(payload_got) != payload.size()) {
    return Status::Corruption("frame payload truncated: " + path);
  }
  if (fp.action == FailAction::kBitFlip && !payload.empty()) {
    // Bit rot in the payload between write and read; the CRC must catch it.
    const uint64_t bit = fp.param % (payload.size() * 8);
    payload[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  }
  if (const Status verified = frame::VerifyPayload(*header, payload);
      !verified.ok()) {
    return with_path(verified);
  }
  return payload;
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
