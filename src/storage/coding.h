// Little-endian fixed-width encoding helpers for on-page serialization.
//
// All node pages, the superblock, and free-list links are encoded with these
// helpers so that index files are byte-identical across platforms (the
// library assumes IEEE-754 doubles, which C++20 guarantees via
// std::numeric_limits<double>::is_iec559 on supported targets).

#ifndef SEGIDX_STORAGE_CODING_H_
#define SEGIDX_STORAGE_CODING_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

namespace segidx::storage {

inline void EncodeU16(uint8_t* dst, uint16_t v) {
  dst[0] = static_cast<uint8_t>(v);
  dst[1] = static_cast<uint8_t>(v >> 8);
}

inline uint16_t DecodeU16(const uint8_t* src) {
  return static_cast<uint16_t>(src[0]) |
         static_cast<uint16_t>(src[1]) << 8;
}

inline void EncodeU32(uint8_t* dst, uint32_t v) {
  dst[0] = static_cast<uint8_t>(v);
  dst[1] = static_cast<uint8_t>(v >> 8);
  dst[2] = static_cast<uint8_t>(v >> 16);
  dst[3] = static_cast<uint8_t>(v >> 24);
}

inline uint32_t DecodeU32(const uint8_t* src) {
  return static_cast<uint32_t>(src[0]) | static_cast<uint32_t>(src[1]) << 8 |
         static_cast<uint32_t>(src[2]) << 16 |
         static_cast<uint32_t>(src[3]) << 24;
}

inline void EncodeU64(uint8_t* dst, uint64_t v) {
  EncodeU32(dst, static_cast<uint32_t>(v));
  EncodeU32(dst + 4, static_cast<uint32_t>(v >> 32));
}

inline uint64_t DecodeU64(const uint8_t* src) {
  return static_cast<uint64_t>(DecodeU32(src)) |
         static_cast<uint64_t>(DecodeU32(src + 4)) << 32;
}

inline void EncodeDouble(uint8_t* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  EncodeU64(dst, bits);
}

inline double DecodeDouble(const uint8_t* src) {
  const uint64_t bits = DecodeU64(src);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

namespace internal {

// The Castagnoli polynomial in the reflected bit order the CRC register
// uses: bit 31 is the coefficient of x^0, bit 0 that of x^31.
inline constexpr uint32_t kCrc32cPoly = 0x82f63b78u;

// Lazily built lookup table for the Castagnoli polynomial. Function-local
// static so header-only users share one copy.
inline const uint32_t* Crc32cTable() {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kCrc32cPoly : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table.data();
}

// a(x) * b(x) mod P in GF(2), both operands reflected (zlib's multmodp).
inline uint32_t Crc32cMulMod(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (b >> 1) ^ kCrc32cPoly : b >> 1;
  }
  return product;
}

// powers[k] = x^(8 * 2^k) mod P. Feeding a zero byte to the register
// multiplies it by x^8, so powers[k] advances it over 2^k zero bytes.
inline const uint32_t* Crc32cZeroPowers() {
  static const auto powers = [] {
    std::array<uint32_t, 64> p{};
    p[0] = 1u << 23;  // x^8
    for (size_t k = 1; k < p.size(); ++k) {
      p[k] = Crc32cMulMod(p[k - 1], p[k - 1]);
    }
    return p;
  }();
  return powers.data();
}

inline bool Crc32cChunkIsZero(const uint8_t* p, size_t n) {
  uint64_t acc = 0;
  for (size_t i = 0; i < n; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    acc |= word;
  }
  return acc == 0;
}

}  // namespace internal

// CRC32C (Castagnoli) over a byte range. Guards the format-v2 superblock
// slots, checkpoint journal, and node extents, where error detection
// strength matters more than the last nanosecond. Node extents are sized
// by level and mostly zero above the leaves, so the input is scanned in
// 128-byte chunks and a run of at least 256 zero bytes is folded into the
// register arithmetically (one GF(2) multiply per set bit of its length)
// instead of byte by byte; every other byte goes through the table. The
// result is the plain CRC32C for every input.
inline uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t seed = 0) {
  constexpr size_t kChunk = 128;
  constexpr size_t kMinZeroRun = 256;
  const uint32_t* table = internal::Crc32cTable();
  uint32_t crc = ~seed;
  size_t i = 0;
  while (i < n) {
    size_t run = 0;
    while (n - i - run >= kChunk &&
           internal::Crc32cChunkIsZero(data + i + run, kChunk)) {
      run += kChunk;
    }
    if (run >= kMinZeroRun) {
      const uint32_t* powers = internal::Crc32cZeroPowers();
      for (size_t k = 0, len = run; len != 0; ++k, len >>= 1) {
        if (len & 1) crc = internal::Crc32cMulMod(powers[k], crc);
      }
      i += run;
      continue;
    }
    // At most one zero chunk plus the next chunk, already seen non-zero
    // (or the short tail).
    const size_t end = i + std::min(n - i, run + kChunk);
    for (; i < end; ++i) {
      crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
    }
  }
  return ~crc;
}

}  // namespace segidx::storage

#endif  // SEGIDX_STORAGE_CODING_H_
