// The one frame codec behind every checksummed byte format: RPC frames
// (SFQRPC01, util/net.h), journal records (SFQWAL01, server/wal.h),
// sketch files and tenant snapshots (core/sketch_io.h). Little-endian:
//
//   u64 magic      format tag
//   u64 length     payload bytes that follow (bounded per format)
//   u32 crc        masked CRC-32C of the payload (crc32c::Mask)
//   [payload]
//
// Encoding happens in the caller's buffer: Begin reserves the header, the
// caller appends the payload behind it, Finish fills in length and CRC.
// Writers that send a payload from where its bytes already live (writev,
// sendmsg) take HeaderFor over the payload's pieces instead and never
// copy the payload behind a header.
// Decoding checks magic, the length bound (before anything is sized by
// it), the bytes present and the CRC, and returns a view of the payload.
// Every failure is Corruption; each format decides what that means (the
// server closes the connection, replay stops at a torn tail). Every reader
// of a descriptor (RecvFrame, blob files, journal replay) takes the same
// steps: ReadHeader, ReadPayload, VerifyPayload.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "util/result.h"
#include "util/status.h"

namespace streamfreq {
namespace frame {

inline constexpr size_t kHeaderSize = 20;

/// Appends a header placeholder to `out`; returns the frame's offset.
size_t Begin(std::string* out);

/// Fills in the header at `start`: all of `out` after it is the payload.
void Finish(std::string* out, size_t start, uint64_t magic);

/// Begin, append `payload`, Finish.
void Append(std::string* out, uint64_t magic, std::string_view payload);

/// The header of a frame whose payload is `pieces` back to back: the CRC
/// runs across them in order, so the frame equals Append over their
/// concatenation.
std::array<char, kHeaderSize> HeaderFor(
    uint64_t magic, std::span<const std::string_view> pieces);

struct Header {
  uint64_t payload_len = 0;
  uint32_t masked_crc = 0;
};

/// Checks a header's size, magic and length bound.
Result<Header> ParseHeader(std::string_view header, uint64_t magic,
                           uint64_t max_payload);

/// Corruption unless `payload` is the one `header` declares: its length
/// and its CRC.
Status VerifyPayload(const Header& header, std::string_view payload);

/// Validates the frame at the front of `data`, which may continue past it
/// (back-to-back journal records); the frame spans kHeaderSize +
/// payload.size() bytes.
Result<std::string_view> DecodePrefix(std::string_view data, uint64_t magic,
                                      uint64_t max_payload);

/// DecodePrefix of exactly one frame: trailing bytes are Corruption.
Result<std::string_view> Decode(std::string_view frame, uint64_t magic,
                                uint64_t max_payload);

/// The steps of a reader of `fd`. ReadHeader reads and parses a header:
/// std::nullopt when the input ends before its first byte, Corruption when
/// it ends inside it or ParseHeader refuses it. ReadPayload fills `payload`
/// (sized from the header): Corruption when the input ends first. Either
/// is IoError when read(2) fails.
Result<std::optional<Header>> ReadHeader(int fd, uint64_t magic,
                                         uint64_t max_payload);
Status ReadPayload(int fd, std::span<char> payload);

}  // namespace frame
}  // namespace streamfreq
