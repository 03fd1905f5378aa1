// Rolling (weak) and strong hashes for rsync-style delta compression.
//
// The weak hash is the classic Adler-style two-component checksum from the
// rsync algorithm [Tridgell 2000]: it can be rolled one byte at a time over
// the target stream in O(1). Candidate matches found via the weak hash are
// confirmed with a direct byte comparison, so hash quality affects only
// speed, never correctness.
//
// The weak digest reads only the low 16 bits of its two sums, so both sums
// can be computed, and rolled, in 16-bit vector lanes. On x86-64 a block's
// sums are taken 16 bytes at a time with SSE2 (the x86-64 baseline, so no
// build option); the per-byte loop is the portable path and the test
// reference, and the two agree exactly.
//
// KarpRabinHash is the modular-arithmetic variant used by the
// Ajtai/Burns/Fagin/Long one-pass differencing family [JACM 2002]: a
// polynomial fingerprint over the Mersenne prime 2^61-1 with base 263.
// It rolls in O(1) like the Adler checksum but its 61-bit digests have far
// better mixing, which is what lets the correcting coder key a small
// single-slot fingerprint table directly off the digest without drowning
// in collisions. Like the weak hash, every candidate is byte-verified.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

#include "common/bytes.h"
#include "common/check.h"

namespace aic::delta {

/// The two sums of the weak hash over a window x[0, len), mod 2^32:
/// a = sum of x[i], b = sum of (len - i) * x[i].
struct WeakSums {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

namespace detail {

/// The sums byte by byte: the portable path and the test reference.
inline WeakSums weak_sums_portable(const std::uint8_t* data,
                                   std::size_t len) {
  WeakSums s;
  for (std::size_t i = 0; i < len; ++i) {
    s.a += data[i];
    s.b += std::uint32_t(len - i) * data[i];
  }
  return s;
}

#if defined(__x86_64__)
/// The sums 16 bytes at a time. Over chunk c, psadbw gives the byte sum
/// a_c and pmaddwd against weights 16..1 the weighted sum w_c; a byte's
/// weight len - 16c - k splits into (len - 16c - 16) + (16 - k), so
/// b = sum of (len - 16c - 16) * a_c + w_c. The first term is carried as
/// 16 * P + t * A, with A the chunks' byte sum, t = len % 16 and P the
/// running sum of A taken before each chunk. The t tail bytes run per
/// byte. Every step wraps mod 2^32, so the sums equal the portable ones.
inline WeakSums weak_sums_sse2(const std::uint8_t* data, std::size_t len) {
  const std::size_t chunks = len / 16;
  const __m128i zero = _mm_setzero_si128();
  const __m128i w_lo = _mm_setr_epi16(16, 15, 14, 13, 12, 11, 10, 9);
  const __m128i w_hi = _mm_setr_epi16(8, 7, 6, 5, 4, 3, 2, 1);
  __m128i sum_a = zero;  // A, split over the low dwords of both halves
  __m128i sum_p = zero;  // P, likewise
  __m128i sum_w = zero;  // sum of w_c, split over four dwords
  for (std::size_t c = 0; c < chunks; ++c) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * c));
    sum_p = _mm_add_epi32(sum_p, sum_a);
    sum_a = _mm_add_epi32(sum_a, _mm_sad_epu8(x, zero));
    sum_w = _mm_add_epi32(
        sum_w,
        _mm_add_epi32(_mm_madd_epi16(_mm_unpacklo_epi8(x, zero), w_lo),
                      _mm_madd_epi16(_mm_unpackhi_epi8(x, zero), w_hi)));
  }
  const auto halves = [](__m128i v) {
    return std::uint32_t(_mm_cvtsi128_si32(v)) +
           std::uint32_t(_mm_cvtsi128_si32(_mm_srli_si128(v, 8)));
  };
  sum_w = _mm_add_epi32(sum_w, _mm_srli_si128(sum_w, 4));
  const std::uint32_t a = halves(sum_a);
  WeakSums s{a, 16 * halves(sum_p) + std::uint32_t(len % 16) * a +
                    halves(sum_w)};
  for (std::size_t i = 16 * chunks; i < len; ++i) {
    s.a += data[i];
    s.b += std::uint32_t(len - i) * data[i];
  }
  return s;
}
#endif

/// The sums as the coder takes them: SSE2 on x86-64, per byte elsewhere.
inline WeakSums weak_sums(const std::uint8_t* data, std::size_t len) {
#if defined(__x86_64__)
  return weak_sums_sse2(data, len);
#else
  return weak_sums_portable(data, len);
#endif
}

}  // namespace detail

/// rsync weak rolling checksum over a fixed-size window, and the one
/// definition of the weak digest. Fully inline: the greedy coder takes a
/// digest per source block and after every match, and roll() runs on the
/// last few windows of a miss run (detail::scan_misses takes the rest
/// eight windows at a time).
class RollingHash {
 public:
  /// Initializes over data[0, len). len must be >= 1.
  RollingHash(const std::uint8_t* data, std::size_t len)
      : RollingHash(detail::weak_sums(data, len), len) {}

  /// A window of `len` bytes whose sums were taken elsewhere; only their
  /// low 16 bits reach digest(), and only those roll on exactly.
  RollingHash(WeakSums sums, std::size_t len)
      : a_(sums.a), b_(sums.b), len_(len) {
    AIC_CHECK(len >= 1);
  }

  /// Rolls the window one byte: removes `outgoing`, appends `incoming`.
  void roll(std::uint8_t outgoing, std::uint8_t incoming) {
    a_ += std::uint32_t(incoming) - std::uint32_t(outgoing);
    b_ += a_ - std::uint32_t(len_) * std::uint32_t(outgoing);
  }

  std::uint32_t digest() const { return (b_ << 16) | (a_ & 0xFFFF); }
  WeakSums sums() const { return {a_, b_}; }
  std::size_t window() const { return len_; }

  /// One-shot convenience.
  static std::uint32_t of(ByteSpan data) {
    return RollingHash(data.data(), data.size()).digest();
  }

 private:
  std::uint32_t a_ = 0;  // sum of bytes (mod 2^16 at digest time)
  std::uint32_t b_ = 0;  // weighted sum
  std::size_t len_ = 0;
};

/// Karp–Rabin polynomial rolling fingerprint modulo the Mersenne prime
/// 2^61-1, base 263. Digests are in [0, 2^61-1); rolling one byte is O(1)
/// using the precomputed leading-coefficient power base^(window-1).
/// Fully inline: init and roll sit on the correcting coder's per-byte
/// hot path.
class KarpRabinHash {
 public:
  static constexpr std::uint64_t kPrime = (1ULL << 61) - 1;
  static constexpr std::uint64_t kBase = 263;

  /// (a * b) mod 2^61-1 via 128-bit product and Mersenne folding.
  static std::uint64_t mulmod(std::uint64_t a, std::uint64_t b) {
    const unsigned __int128 prod = (unsigned __int128)a * b;
    const std::uint64_t lo = std::uint64_t(prod) & kPrime;
    const std::uint64_t hi = std::uint64_t(prod >> 61);
    const std::uint64_t sum = lo + hi;
    return sum >= kPrime ? sum - kPrime : sum;
  }

  static std::uint64_t addmod(std::uint64_t a, std::uint64_t b) {
    const std::uint64_t sum = a + b;  // both < 2^61: no 64-bit overflow
    return sum >= kPrime ? sum - kPrime : sum;
  }

  /// Initializes over data[0, len). len must be >= 1.
  KarpRabinHash(const std::uint8_t* data, std::size_t len) : len_(len) {
    AIC_CHECK(len >= 1);
    for (std::size_t i = 0; i < len; ++i) {
      h_ = addmod(mulmod(h_, kBase), data[i]);
      if (i + 1 < len) shift_ = mulmod(shift_, kBase);
    }
  }

  /// Rolls the window one byte: removes `outgoing`, appends `incoming`.
  void roll(std::uint8_t outgoing, std::uint8_t incoming) {
    // Drop outgoing's leading-coefficient contribution, shift, append.
    const std::uint64_t drop = mulmod(outgoing, shift_);
    h_ = addmod(h_, kPrime - drop);
    h_ = addmod(mulmod(h_, kBase), incoming);
  }

  std::uint64_t digest() const { return h_; }
  std::size_t window() const { return len_; }

  /// One-shot digest without the rolling setup (skips the base^(len-1)
  /// precompute), for table builds that never roll. Four bytes fold
  /// into one Horner group exactly in 64-bit arithmetic (263^4 and the
  /// group value are both < 2^33), so only one modular multiply is paid
  /// per four bytes — same polynomial, same digest as the per-byte
  /// form.
  static std::uint64_t digest_of(const std::uint8_t* data,
                                 std::size_t len) {
    constexpr std::uint64_t kBase4 = kBase * kBase * kBase * kBase;
    std::uint64_t h = 0;
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4) {
      const std::uint64_t group =
          ((std::uint64_t(data[i]) * kBase + data[i + 1]) * kBase +
           data[i + 2]) *
              kBase +
          data[i + 3];
      h = addmod(mulmod(h, kBase4), group);
    }
    for (; i < len; ++i) h = addmod(mulmod(h, kBase), data[i]);
    return h;
  }

  /// One-shot convenience.
  static std::uint64_t of(ByteSpan data) {
    return digest_of(data.data(), data.size());
  }

 private:
  std::uint64_t h_ = 0;      // polynomial fingerprint mod kPrime
  std::uint64_t shift_ = 1;  // kBase^(len-1) mod kPrime
  std::size_t len_ = 0;
};

/// FNV-1a 64-bit hash; used where a cheap non-rolling strong-ish hash is
/// handy (e.g. content fingerprints in tests and stats).
std::uint64_t fnv1a64(ByteSpan data);

}  // namespace aic::delta
