// Checksummed on-disk persistence for Count-Sketches and other blobs.
//
// A file is one util/frame.h frame (magic, length, masked CRC-32C,
// payload). The CRC catches torn writes and bit rot; the caller's decoder
// inside the payload additionally validates structure. Use these for
// checkpointing long-lived sketches or shipping them between nodes (the
// distributed-aggregation pattern the paper's additivity enables). The
// server's durability layer (src/server/snapshotter.h) reuses the generic
// blob entry points for tenant snapshots.
//
// Files are written from where their bytes already live: the writer takes
// the payload as a list of pieces (a small head buffer, then one view per
// counter row of the sketch), builds the frame header over them and hands
// header and pieces to one writev. No sketch-sized copy of the file is made,
// so publishing a sketch costs its bytes on disk and a few small buffers.
//
// Crash consistency: writes land the bytes in `path + ".tmp"` and publish
// them with rename — atomic within a directory on POSIX — so a crash
// mid-save leaves the previous checkpoint intact, never a prefix. Neither
// the file nor the directory is fsynced, so after a power loss the rename
// may not have reached the disk (docs/SERVER.md, "Durability gap"). Reads
// take the util/frame.h reader's steps that RPC and journal replay share,
// with this reader's verdicts: the file holds exactly one frame, so an
// empty file, short reads, wrong magic, implausible lengths, trailing
// bytes, and checksum mismatches all come back as Corruption (see the
// corruption-matrix cases in tests/sketch_io_test.cc, exercised under
// ASan/UBSan by check.sh).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/count_sketch.h"
#include "util/result.h"

namespace streamfreq {

/// Magic tag of sketch checkpoint files ("SFQSKF01").
constexpr uint64_t kSketchFileMagic = 0x5346515346303153ULL;

/// Writes one frame (`magic` + length + masked CRC-32C + `pieces` back to
/// back as the payload) to `path` atomically: bytes land in `path + ".tmp"`
/// and are published by rename, so concurrent readers and crash recovery
/// see either the old file or the new one in full. The pieces are written
/// where they are, with one writev. Carries the `sketch_io.write` /
/// `sketch_io.rename` failpoints (including process-death mid-publish in
/// crash-kills-process mode — see util/failpoint.h).
Status WriteBlobFileAtomic(const std::string& path, uint64_t magic,
                           std::span<const std::string_view> pieces);

/// The payload pieces of a blob that ends in `sketch`'s serialized form:
/// `head` (which must end in the sketch's AppendSerializedHeader bytes),
/// then one view per counter row. The views alias the sketch.
std::vector<std::string_view> PiecesWithSketch(std::string_view head,
                                               const CountSketch& sketch);

/// Reads and verifies a file written by WriteBlobFileAtomic, returning the
/// payload bytes. Corruption (bad magic, bad CRC, truncation, trailing
/// bytes, not a regular file) is distinguished from filesystem errors. The
/// payload is read into one buffer, allocated only once the header's length
/// matches the file's size. Carries the `sketch_io.read` failpoint.
Result<std::string> ReadBlobFileVerified(const std::string& path,
                                         uint64_t magic);

/// Writes `sketch` to `path` atomically (kSketchFileMagic framing).
Status WriteSketchFile(const std::string& path, const CountSketch& sketch);

/// Reads a sketch written by WriteSketchFile. Corruption (bad magic, bad
/// CRC, truncation) is distinguished from filesystem errors.
Result<CountSketch> ReadSketchFile(const std::string& path);

}  // namespace streamfreq
