#include "util/crc32.h"

#include <array>

#include "util/simd.h"

namespace streamfreq {
namespace crc32c {

namespace {

// Table for the reflected CRC-32C polynomial 0x1EDC6F41.
constexpr std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  constexpr uint32_t kPoly = 0x82F63B78U;  // reflected Castagnoli
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = BuildTable();

uint32_t TableKernel(uint32_t state, const unsigned char* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    state = kTable[(state ^ p[i]) & 0xFF] ^ (state >> 8);
  }
  return state;
}

// Chosen on first use and kept for the life of the process.
simd::Crc32cKernel Kernel() {
  static const simd::Crc32cKernel kernel = [] {
    const simd::Crc32cKernel hardware = simd::HardwareCrc32c();
    return hardware != nullptr ? hardware : &TableKernel;
  }();
  return kernel;
}

}  // namespace

uint32_t Extend(uint32_t crc, const void* data, size_t n) {
  return Kernel()(crc ^ 0xFFFFFFFFU, static_cast<const unsigned char*>(data),
                  n) ^
         0xFFFFFFFFU;
}

uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n) {
  return TableKernel(crc ^ 0xFFFFFFFFU,
                     static_cast<const unsigned char*>(data), n) ^
         0xFFFFFFFFU;
}

bool HardwareAccelerated() { return Kernel() != &TableKernel; }

}  // namespace crc32c
}  // namespace streamfreq
