#include "core/sketch_io.h"

#include <cstdio>
#include <fstream>

#include "util/failpoint.h"
#include "util/frame.h"

namespace streamfreq {

namespace {

// Implausible-length guard for blob payloads (a flipped high bit in the
// length field must not claim terabytes).
constexpr uint64_t kMaxBlobPayloadBytes = uint64_t{1} << 40;

// Writes `blob` (or its first `len` bytes) to `path`, checking every stage:
// open, write, and the explicit flush — a buffered ofstream happily reports
// success until close on a full disk.
Status WriteBlob(const std::string& path, const std::string& blob,
                 size_t len) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out.write(blob.data(), static_cast<std::streamsize>(len));
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace

Status WriteBlobFileAtomic(const std::string& path, uint64_t magic,
                           const BlobPayloadWriter& write_payload) {
  std::string blob;
  const size_t start = frame::Begin(&blob);
  write_payload(&blob);
  frame::Finish(&blob, start, magic);

  if (const FailDecision fp = SFQ_FAILPOINT("sketch_io.write"); fp) {
    MaybeDieAtFailpoint(fp);  // power cut before any byte lands
    if (fp.action == FailAction::kTorn) {
      // Simulate a crash mid-write of a non-atomic writer: a prefix of the
      // blob lands at the *destination* path, bypassing the temp+rename
      // protocol, so readers must catch it via truncation/CRC checks.
      size_t keep = fp.param == 0 ? blob.size() / 2 : fp.param;
      keep = keep < blob.size() ? keep : blob.size();
      (void)WriteBlob(path, blob, keep);
    }
    return Status::IoError("injected failure: sketch_io.write: " + path);
  }

  // Crash consistency: land the bytes in a sibling temp file, then publish
  // with rename — atomic within a directory on POSIX, so a reader sees
  // either the old complete file or the new complete file, never a prefix.
  const std::string tmp_path = path + ".tmp";
  const Status write_status = WriteBlob(tmp_path, blob, blob.size());
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

Status WriteSketchFile(const std::string& path, const CountSketch& sketch) {
  return WriteBlobFileAtomic(
      path, kSketchFileMagic,
      [&sketch](std::string* out) { sketch.SerializeTo(out); });
}

Result<CountSketch> ReadSketchFile(const std::string& path) {
  STREAMFREQ_ASSIGN_OR_RETURN(std::string payload,
                              ReadBlobFileVerified(path, kSketchFileMagic));
  return CountSketch::Deserialize(payload);
}

}  // namespace streamfreq
