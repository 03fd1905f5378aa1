#include "common/crc32c.h"

#include <array>
#include <bit>
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

// The register is a polynomial over GF(2) in reflected form, bit 31 the
// coefficient of x^0, and a zero byte multiplies it by x^8 modulo P. So a
// shift over 2^k zero bytes is the linear map "multiply by x^(8 * 2^k)":
// kept, for every k a 64-bit byte count can hold, as eight tables of the
// images of a nibble's 16 values (512 bytes each, 32 KiB in all). A shift
// over n bytes applies the map of each set bit of n: eight lookups per bit,
// zlib's multiply-by-powers method with the multiplies tabulated.
struct ZeroShifts {
  std::array<std::array<std::array<std::uint32_t, 16>, 8>, 64> t;

  ZeroShifts() {
    std::uint32_t power = 1u << 23;  // x^8: one zero byte
    for (std::size_t k = 0; k < t.size(); ++k) {
      // The image of x^m (bit 31 - m) is power * x^m: one step of the
      // bitwise CRC per m.
      std::array<std::uint32_t, 32> bit;
      std::uint32_t image = power;
      for (std::size_t m = 0; m < bit.size(); ++m) {
        bit[31 - m] = image;
        image = (image >> 1) ^ ((image & 1u) ? kPoly : 0u);
      }
      for (std::size_t nibble = 0; nibble < 8; ++nibble) {
        for (std::uint32_t v = 0; v < 16; ++v) {
          std::uint32_t sum = 0;
          for (std::size_t b = 0; b < 4; ++b)
            if ((v >> b) & 1u) sum ^= bit[4 * nibble + b];
          t[k][nibble][v] = sum;
        }
      }
      power = (*this)(k, power);  // x^(8 * 2^(k+1)) = power * power
    }
  }

  /// `crc` shifted over 2^k zero bytes.
  std::uint32_t operator()(std::size_t k, std::uint32_t crc) const {
    std::uint32_t out = 0;
    for (std::size_t nibble = 0; nibble < 8; ++nibble)
      out ^= t[k][nibble][(crc >> (4 * nibble)) & 0xFu];
    return out;
  }
};

const ZeroShifts& zero_shifts() {
  static const ZeroShifts instance;
  return instance;
}

}  // namespace

std::uint32_t crc32c_shift(std::uint32_t state, std::uint64_t n) {
  const ZeroShifts& shift = zero_shifts();
  for (std::size_t k = 0; n != 0; n >>= 1, ++k) {
    if (n & 1u) state = shift(k, state);
  }
  return state;
}

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
  static_assert(std::has_single_bit(kBlock));
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = state;
  if (n >= 3 * kBlock) {
    const ZeroShifts& shifts = zero_shifts();
    const auto shift = [&](std::uint32_t v) {
      return shifts(std::countr_zero(kBlock), v);
    };
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
