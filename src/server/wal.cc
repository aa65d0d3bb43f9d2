#include "server/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <filesystem>
#include <vector>

#include "util/bytes.h"
#include "util/failpoint.h"
#include "util/frame.h"

namespace streamfreq {

const char* WalFsyncName(WalFsync fsync) {
  switch (fsync) {
    case WalFsync::kAlways:
      return "always";
    case WalFsync::kNever:
      return "never";
    case WalFsync::kBatch:
      return "batch";
  }
  return "unknown";
}

Result<WalFsync> WalFsyncFromName(std::string_view name) {
  if (name == "always") return WalFsync::kAlways;
  if (name == "never") return WalFsync::kNever;
  if (name == "batch") return WalFsync::kBatch;
  return Status::InvalidArgument("wal: unknown fsync policy: " +
                                 std::string(name));
}

Result<WalWriter> WalWriter::Open(std::string path, WalFsync fsync) {
  WalWriter writer(std::move(path), fsync);
  STREAMFREQ_RETURN_NOT_OK(writer.OpenStreams());
  return writer;
}

Status WalWriter::OpenStreams() {
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) return Status::IoError("wal: cannot open for append: " + path_);
  const int fd = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("wal: cannot open sync descriptor: " + path_);
  }
  sync_fd_ = OwnedFd(fd);
  return Status::OK();
}

Status WalWriter::Append(uint64_t seqno, std::span<const ItemId> items) {
  std::string record;
  // Header, seqno, count, items.
  record.reserve(frame::kHeaderSize + 16 + items.size_bytes());
  const size_t start = frame::Begin(&record);
  ByteWriter w(&record);
  w.PutU64(seqno);
  w.PutU64(items.size());
  w.PutBytes(items.data(), items.size_bytes());
  frame::Finish(&record, start, kWalMagic);

  if (const FailDecision fp = SFQ_FAILPOINT("wal.append"); fp) {
    MaybeDieAtFailpoint(fp);  // power cut before the record lands
    if (fp.action == FailAction::kTorn) {
      // Power-cut semantics: a prefix of the record reaches the file. The
      // store must treat the journal as poisoned afterwards; replay stops
      // at this torn tail.
      size_t keep = fp.param == 0 ? record.size() / 2 : fp.param;
      keep = keep < record.size() ? keep : record.size();
      out_.write(record.data(), static_cast<std::streamsize>(keep));
      out_.flush();
    }
    return Status::IoError("injected failure: wal.append: " + path_);
  }

  out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  out_.flush();
  if (!out_) return Status::IoError("wal: append failed: " + path_);
  ++unsynced_appends_;

  const bool barrier =
      fsync_ == WalFsync::kAlways ||
      (fsync_ == WalFsync::kBatch && unsynced_appends_ >= kWalBatchFsyncEvery);
  if (barrier) return Fsync();
  return Status::OK();
}

Status WalWriter::Fsync() {
  if (const FailDecision fp = SFQ_FAILPOINT("wal.fsync"); fp) {
    // Death here is the interesting case: every unsynced record — one
    // under kAlways, up to kWalBatchFsyncEvery under kBatch — is in the
    // page cache (a SIGKILL preserves it) but was never forced to disk.
    MaybeDieAtFailpoint(fp);
    if (fp.action == FailAction::kError) {
      return Status::IoError("injected failure: wal.fsync: " + path_);
    }
  }
  if (::fsync(sync_fd_.get()) != 0) {
    return Status::IoError("wal: fsync failed: " + path_);
  }
  ++fsyncs_;
  unsynced_appends_ = 0;
  return Status::OK();
}

namespace {

/// Replays one segment into `stats`. Sets `*damaged` when a record failed
/// its frame checks; that record and the rest of the file are discarded.
Status ReplaySegment(const std::string& path, uint64_t base_seqno,
                     const WalReplayFn& apply, std::vector<uint64_t>* buffer,
                     WalReplayStats* stats, bool* damaged) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::OK();  // a missing segment holds nothing
  const uint64_t size = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  uint64_t off = 0;
  std::array<char, frame::kHeaderSize> head;
  while (off < size) {
    // Any truncation, magic mismatch, implausible length, or checksum
    // failure ends the intact prefix: everything from here on is the torn
    // tail.
    if (size - off < frame::kHeaderSize) break;
    in.read(head.data(), frame::kHeaderSize);
    if (static_cast<size_t>(in.gcount()) != frame::kHeaderSize) break;
    const Result<frame::Header> header = frame::ParseHeader(
        std::string_view(head.data(), head.size()), kWalMagic,
        kWalMaxPayloadBytes);
    if (!header.ok()) break;
    const uint64_t len = header->payload_len;
    if (len > size - off - frame::kHeaderSize) break;
    // u64 words, so the items behind the 16-byte record head are aligned.
    buffer->resize(static_cast<size_t>((len + 7) / 8));
    char* bytes = reinterpret_cast<char*>(buffer->data());
    in.read(bytes, static_cast<std::streamsize>(len));
    if (static_cast<uint64_t>(in.gcount()) != len) break;
    const std::string_view payload(bytes, static_cast<size_t>(len));
    if (!frame::VerifyPayload(*header, payload).ok()) break;

    // A CRC-valid record with a malformed payload is not a torn write —
    // the checksum vouches these bytes were written whole. Fail loudly.
    ByteReader r(payload);
    uint64_t seqno, count;
    STREAMFREQ_RETURN_NOT_OK(r.GetU64(&seqno));
    STREAMFREQ_RETURN_NOT_OK(r.GetU64(&count));
    if (count * 8 != r.remaining()) {
      return Status::Corruption("wal: record item count mismatch: " + path);
    }

    if (seqno <= base_seqno) {
      // The snapshot already covers this batch (crash between snapshot
      // publish and segment unlink): skip, exactly-once.
      ++stats->duplicates_skipped;
    } else {
      if (seqno != stats->last_seqno + 1) {
        return Status::Corruption("wal: sequence gap at record " +
                                  std::to_string(seqno) + ": " + path);
      }
      STREAMFREQ_RETURN_NOT_OK(apply(
          seqno, std::span<const ItemId>(buffer->data() + 2,
                                         static_cast<size_t>(count))));
      ++stats->records_applied;
      stats->last_seqno = seqno;
    }
    const uint64_t record_size = frame::kHeaderSize + len;
    stats->valid_bytes += record_size;
    off += record_size;
  }
  if (off < size) {
    *damaged = true;
    stats->discarded_bytes += size - off;
  }
  return Status::OK();
}

}  // namespace

Result<WalReplayStats> ReplayWalSegments(std::span<const std::string> paths,
                                         uint64_t base_seqno,
                                         const WalReplayFn& apply) {
  WalReplayStats stats;
  stats.last_seqno = base_seqno;
  std::vector<uint64_t> buffer;
  for (const std::string& path : paths) {
    if (stats.torn_tail) {
      // Replay never crosses damage: later segments are discarded whole.
      std::error_code ec;
      const uintmax_t size = std::filesystem::file_size(path, ec);
      if (!ec) stats.discarded_bytes += size;
      continue;
    }
    STREAMFREQ_RETURN_NOT_OK(ReplaySegment(path, base_seqno, apply, &buffer,
                                           &stats, &stats.torn_tail));
  }
  return stats;
}

}  // namespace streamfreq
