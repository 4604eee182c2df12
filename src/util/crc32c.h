#ifndef ODE_UTIL_CRC32C_H_
#define ODE_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ode {
namespace crc32c {

/// Returns the CRC-32C (Castagnoli) of data[0, n), extending `init_crc`.
/// Used to checksum WAL records.  Runs on the SSE4.2 `crc32` instruction
/// when the CPU has it, else on the portable table code; both give the
/// same value.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The portable table implementation behind Extend().  Exposed so tests
/// can check the hardware path against it.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// CRC of data[0, n).
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masks a CRC before storing it alongside the data it covers, so that a CRC
/// of bytes that themselves contain CRCs does not degenerate (the
/// LevelDB/RocksDB masking trick).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace ode

#endif  // ODE_UTIL_CRC32C_H_
