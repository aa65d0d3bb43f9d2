#include "util/frame.h"

#include <cstring>

#include "util/crc32.h"
#include "util/macros.h"

namespace streamfreq {
namespace frame {

size_t Begin(std::string* out) {
  const size_t start = out->size();
  out->append(kHeaderSize, '\0');
  return start;
}

void Finish(std::string* out, size_t start, uint64_t magic) {
  const std::string_view payload[] = {
      std::string_view(*out).substr(start + kHeaderSize)};
  const std::array<char, kHeaderSize> header = HeaderFor(magic, payload);
  std::memcpy(out->data() + start, header.data(), kHeaderSize);
}

void Append(std::string* out, uint64_t magic, std::string_view payload) {
  const size_t start = Begin(out);
  out->append(payload);
  Finish(out, start, magic);
}

std::array<char, kHeaderSize> HeaderFor(
    uint64_t magic, std::span<const std::string_view> pieces) {
  uint64_t payload_len = 0;
  uint32_t crc = 0;
  for (const std::string_view piece : pieces) {
    payload_len += piece.size();
    crc = crc32c::Extend(crc, piece.data(), piece.size());
  }
  crc = crc32c::Mask(crc);
  std::array<char, kHeaderSize> header;
  std::memcpy(header.data(), &magic, 8);
  std::memcpy(header.data() + 8, &payload_len, 8);
  std::memcpy(header.data() + 16, &crc, 4);
  return header;
}

Result<Header> ParseHeader(std::string_view header, uint64_t magic,
                           uint64_t max_payload) {
  if (header.size() < kHeaderSize) {
    return Status::Corruption("frame header truncated");
  }
  uint64_t stored_magic;
  std::memcpy(&stored_magic, header.data(), 8);
  if (stored_magic != magic) return Status::Corruption("bad frame magic");
  Header parsed;
  std::memcpy(&parsed.payload_len, header.data() + 8, 8);
  if (parsed.payload_len > max_payload) {
    return Status::Corruption("frame payload length exceeds bound");
  }
  std::memcpy(&parsed.masked_crc, header.data() + 16, 4);
  return parsed;
}

Status VerifyPayload(const Header& header, std::string_view payload) {
  if (crc32c::Mask(crc32c::Value(payload.data(), payload.size())) !=
      header.masked_crc) {
    return Status::Corruption("frame payload checksum mismatch");
  }
  return Status::OK();
}

Result<std::string_view> DecodePrefix(std::string_view data, uint64_t magic,
                                      uint64_t max_payload) {
  STREAMFREQ_ASSIGN_OR_RETURN(const Header header,
                              ParseHeader(data, magic, max_payload));
  if (data.size() - kHeaderSize < header.payload_len) {
    return Status::Corruption("frame payload truncated");
  }
  const std::string_view payload =
      data.substr(kHeaderSize, static_cast<size_t>(header.payload_len));
  STREAMFREQ_RETURN_NOT_OK(VerifyPayload(header, payload));
  return payload;
}

Result<std::string_view> Decode(std::string_view frame, uint64_t magic,
                                uint64_t max_payload) {
  STREAMFREQ_ASSIGN_OR_RETURN(const std::string_view payload,
                              DecodePrefix(frame, magic, max_payload));
  if (frame.size() != kHeaderSize + payload.size()) {
    return Status::Corruption("trailing bytes after frame payload");
  }
  return payload;
}

}  // namespace frame
}  // namespace streamfreq
