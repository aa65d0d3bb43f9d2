// Little-endian byte serialization helpers for sketch persistence.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace streamfreq {

/// Appends fixed-width little-endian values to a growing buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void PutU64(uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out_->append(buf, 8);
  }

  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    PutU64(bits);
  }

  void PutBytes(const void* data, size_t len) {
    out_->append(static_cast<const char*>(data), len);
  }

  /// Length-prefixed byte string: u64 length + raw bytes. The wire form of
  /// every variable-length field (server protocol, manifests).
  void PutString(std::string_view s) {
    PutU64(s.size());
    PutBytes(s.data(), s.size());
  }

 private:
  std::string* out_;
};

/// Reads fixed-width little-endian values, tracking underflow as a sticky
/// Corruption status.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status GetU64(uint64_t* v) {
    if (data_.size() < 8) return Status::Corruption("byte buffer underflow");
    std::memcpy(v, data_.data(), 8);
    data_.remove_prefix(8);
    return Status::OK();
  }

  Status GetI64(int64_t* v) {
    uint64_t u;
    STREAMFREQ_RETURN_NOT_OK(GetU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  Status GetDouble(double* v) {
    uint64_t bits;
    STREAMFREQ_RETURN_NOT_OK(GetU64(&bits));
    std::memcpy(v, &bits, 8);
    return Status::OK();
  }

  /// Reads a PutString-encoded byte string. The declared length is checked
  /// against the bytes actually remaining BEFORE any allocation, so a
  /// corrupt length cannot trigger a giant resize; `max_len` additionally
  /// caps well-formed-but-absurd fields (protocol decoders pass their
  /// frame bound).
  Status GetString(std::string* v, size_t max_len = SIZE_MAX) {
    std::string_view view;
    STREAMFREQ_RETURN_NOT_OK(GetStringView(&view, max_len));
    v->assign(view);
    return Status::OK();
  }

  /// GetString without the copy: `v` views the reader's buffer and is
  /// valid only as long as that buffer is.
  Status GetStringView(std::string_view* v, size_t max_len = SIZE_MAX) {
    uint64_t len;
    STREAMFREQ_RETURN_NOT_OK(GetU64(&len));
    if (len > data_.size()) {
      return Status::Corruption("byte string length exceeds buffer");
    }
    if (len > max_len) {
      return Status::Corruption("byte string length exceeds field bound");
    }
    *v = data_.substr(0, static_cast<size_t>(len));
    data_.remove_prefix(static_cast<size_t>(len));
    return Status::OK();
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size(); }

 private:
  std::string_view data_;
};

}  // namespace streamfreq
