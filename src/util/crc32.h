// CRC-32C (Castagnoli) checksums: the integrity check of every RPC frame,
// journal record, snapshot and sketch file (util/frame.h), so it runs on
// every request and every shipped merge-tree delta. Extend uses the SSE4.2
// crc32 instruction when the CPU has it (picked once, util/simd.h) and a
// byte-at-a-time table otherwise; both give identical values. The
// polynomial matches what RocksDB/LevelDB use, including the same masking
// trick for checksums-of-checksums.
#pragma once

#include <cstddef>
#include <cstdint>

namespace streamfreq {
namespace crc32c {

/// Extends `crc` with `data[0, n)`; start from crc = 0.
uint32_t Extend(uint32_t crc, const void* data, size_t n);

/// The portable table implementation of Extend: the fallback when the CPU
/// or the build (STREAMFREQ_SIMD=OFF) has no hardware CRC, and the oracle
/// the hardware path is tested against.
uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n);

/// True when Extend runs on the hardware crc32 instruction.
bool HardwareAccelerated();

/// CRC-32C of a whole buffer.
inline uint32_t Value(const void* data, size_t n) { return Extend(0, data, n); }

/// Masks a CRC so that storing a CRC inside CRC-protected data does not
/// produce degenerate checksums (LevelDB's rotation+offset trick).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xA282EAD8U;
}

/// Inverse of Mask.
inline uint32_t Unmask(uint32_t masked) {
  const uint32_t rot = masked - 0xA282EAD8U;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace streamfreq
