#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace aic {
namespace {

// Reflected CRC-32C polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

// 8 slice tables, built once at first use (constexpr-buildable, but the
// 8 KiB of tables as a function-local static keeps the binary small and
// the header free of machinery).
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t;

  Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t slice = 1; slice < 8; ++slice) {
        crc = t[0][crc & 0xFFu] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
  }
};

const Tables& tables() {
  static const Tables instance;
  return instance;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_update_slice8(std::uint32_t state, ByteSpan data) {
  const auto& t = tables().t;
  std::size_t i = 0;
  // Slice-by-8 over the aligned middle.
  while (i + 8 <= data.size()) {
    std::uint32_t lo;
    std::memcpy(&lo, data.data() + i, 4);
    lo ^= state;
    std::uint32_t hi;
    std::memcpy(&hi, data.data() + i + 4, 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
    i += 8;
  }
  for (; i < data.size(); ++i)
    state = t[0][(state ^ data[i]) & 0xFFu] ^ (state >> 8);
  return state;
}

#if defined(__x86_64__)
namespace {

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

// The register after kCrc32cStreamBlock zero bytes, as a function of the
// register before: a linear map over GF(2), so it is the XOR of four
// byte-indexed tables. Built once, from the image of each of the 32 bits.
struct ZeroShift {
  std::array<std::array<std::uint32_t, 256>, 4> t;

  __attribute__((target("sse4.2"))) ZeroShift() {
    std::array<std::uint32_t, 32> bit;
    for (std::size_t i = 0; i < bit.size(); ++i) {
      std::uint64_t crc = std::uint32_t(1) << i;
      for (std::size_t n = 0; n < kCrc32cStreamBlock; n += 8)
        crc = _mm_crc32_u64(crc, 0);
      bit[i] = std::uint32_t(crc);
    }
    for (std::size_t k = 0; k < 4; ++k) {
      for (std::uint32_t v = 0; v < 256; ++v) {
        std::uint32_t image = 0;
        for (std::size_t b = 0; b < 8; ++b)
          if ((v >> b) & 1u) image ^= bit[8 * k + b];
        t[k][v] = image;
      }
    }
  }

  std::uint32_t operator()(std::uint32_t crc) const {
    return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
           t[2][(crc >> 16) & 0xFFu] ^ t[3][crc >> 24];
  }
};

}  // namespace

// The instruction folds eight little-endian bytes into the reflected
// register exactly as eight table steps would. It has a latency of three
// cycles but issues one per cycle, so long inputs run three independent
// streams over adjacent blocks A, B, C and fold them: the register over
// A|B|C is shift(shift(a) ^ b) ^ c, where a continues `state` over A, b
// and c start from zero over B and C, and shift advances a register over
// one block of zeros.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(
    std::uint32_t state, ByteSpan data) {
  constexpr std::size_t kBlock = kCrc32cStreamBlock;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = state;
  if (n >= 3 * kBlock) {
    static const ZeroShift shift;
    for (; n >= 3 * kBlock; p += 3 * kBlock, n -= 3 * kBlock) {
      std::uint64_t b = 0;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < kBlock; i += 8) {
        crc = _mm_crc32_u64(crc, load64(p + i));
        b = _mm_crc32_u64(b, load64(p + kBlock + i));
        c = _mm_crc32_u64(c, load64(p + 2 * kBlock + i));
      }
      crc = shift(shift(std::uint32_t(crc)) ^ std::uint32_t(b)) ^
            std::uint32_t(c);
    }
  }
  for (; n >= 8; p += 8, n -= 8) crc = _mm_crc32_u64(crc, load64(p));
  state = std::uint32_t(crc);
  for (; n > 0; ++p, --n) state = _mm_crc32_u8(state, *p);
  return state;
}
#endif

}  // namespace detail

std::uint32_t crc32c_update(std::uint32_t state, ByteSpan data) {
#if defined(__x86_64__)
  static const bool sse42 = [] {
    __builtin_cpu_init();  // in case the first call precedes constructors
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  if (sse42) return detail::crc32c_update_sse42(state, data);
#endif
  return detail::crc32c_update_slice8(state, data);
}

std::uint32_t crc32c(ByteSpan data) {
  return crc32c_finalize(crc32c_update(kCrc32cInit, data));
}

}  // namespace aic
