#include "server/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/failpoint.h"
#include "util/frame.h"
#include "util/iovec.h"

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
  // NOLINTNEXTLINE(sfq-durable-write): records are CRC frames replay checks
  OwnedFd fd(::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                    0666));
  if (!fd.valid()) return ErrnoStatus("cannot open for append", path);
  return WalWriter(std::move(path), fsync, std::move(fd));
}

Status WalWriter::Append(uint64_t seqno, std::span<const ItemId> items) {
  // The record goes out from where its pieces lie: the frame header, the
  // seqno/count head, and the items.
  const uint64_t head[2] = {seqno, items.size()};
  const std::array<std::string_view, 2> payload = {
      std::string_view(reinterpret_cast<const char*>(head), sizeof(head)),
      std::string_view(reinterpret_cast<const char*>(items.data()),
                       items.size_bytes())};
  const std::array<char, frame::kHeaderSize> header =
      frame::HeaderFor(kWalMagic, payload);
  const std::string_view frame_head(header.data(), header.size());

  if (const FailDecision fp = SFQ_FAILPOINT("wal.append"); fp) {
    MaybeDieAtFailpoint(fp);  // power cut before the record lands
    if (fp.action == FailAction::kTorn) {
      // Power-cut semantics: a prefix of the record reaches the file. The
      // store must treat the journal as poisoned afterwards; replay stops
      // at this torn tail.
      std::string record(frame_head);
      for (const std::string_view piece : payload) record.append(piece);
      size_t keep = fp.param == 0 ? record.size() / 2 : fp.param;
      keep = keep < record.size() ? keep : record.size();
      (void)WriteAllPieces(fd_.get(), std::string_view(record).substr(0, keep),
                           {});
    }
    return Status::IoError("injected failure: wal.append: " + path_);
  }

  if (!WriteAllPieces(fd_.get(), frame_head, payload)) {
    return ErrnoStatus("append failed", path_);
  }
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
  if (::fsync(fd_.get()) != 0) return ErrnoStatus("fsync failed", path_);
  ++fsyncs_;
  unsynced_appends_ = 0;
  return Status::OK();
}

namespace {

/// Replays one segment into `stats`. Sets `torn_tail` when a record failed
/// its frame checks; that record and the rest of the file are discarded,
/// and so is every later segment: replay never crosses damage.
Status ReplaySegment(const std::string& path, uint64_t base_seqno,
                     const WalReplayFn& apply, std::vector<uint64_t>* buffer,
                     WalReplayStats* stats) {
  // O_NONBLOCK: a FIFO opens without waiting for a writer, then fails below.
  const OwnedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
  if (!fd.valid()) {
    if (errno == ENOENT) return Status::OK();  // a missing segment is empty
    return ErrnoStatus("cannot open for replay", path);
  }
  struct stat st;
  if (::fstat(fd.get(), &st) != 0) return ErrnoStatus("cannot stat", path);
  // A path that opens but is no file (a directory, say) holds no records,
  // and its size is no journal length.
  if (!S_ISREG(st.st_mode)) {
    return Status::Corruption("wal: not a regular file: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  uint64_t off = 0;
  std::array<char, frame::kHeaderSize> head;
  while (!stats->torn_tail && off < size) {
    // Any truncation, magic mismatch, implausible length, or checksum
    // failure ends the intact prefix: everything from here on is the torn
    // tail.
    if (size - off < frame::kHeaderSize) break;
    const ssize_t head_got = ReadUpTo(fd.get(), head.data(), head.size());
    if (head_got < 0) return ErrnoStatus("read failed", path);
    if (static_cast<size_t>(head_got) != head.size()) break;
    const Result<frame::Header> header = frame::ParseHeader(
        std::string_view(head.data(), head.size()), kWalMagic,
        kWalMaxPayloadBytes);
    if (!header.ok()) break;
    const uint64_t len = header->payload_len;
    if (len > size - off - frame::kHeaderSize) break;
    // u64 words, so the items behind the 16-byte record head are aligned.
    buffer->resize(static_cast<size_t>((len + 7) / 8));
    char* bytes = reinterpret_cast<char*>(buffer->data());
    const ssize_t payload_got =
        ReadUpTo(fd.get(), bytes, static_cast<size_t>(len));
    if (payload_got < 0) return ErrnoStatus("read failed", path);
    if (static_cast<uint64_t>(payload_got) != len) break;
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
    stats->torn_tail = true;
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
    STREAMFREQ_RETURN_NOT_OK(
        ReplaySegment(path, base_seqno, apply, &buffer, &stats));
  }
  return stats;
}

}  // namespace streamfreq
