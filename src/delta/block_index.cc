#include "delta/block_index.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace aic::delta::detail {

void BlockIndex::rebuild(ByteSpan source, std::size_t block_size) {
  const std::size_t blocks = source.size() / block_size;
  AIC_CHECK_MSG(blocks < kNone, "source has too many blocks to index");
  // At least two slots per block keeps linear-probe runs short; the
  // floor keeps tiny sources from thrashing one cache line.
  unsigned bits = kMinSlotBits;
  while ((std::size_t{1} << bits) < 2 * blocks) ++bits;
  // Four filter bytes per slot, as far as a 32-bit hash reaches (it
  // stops binding past 2^29 blocks). A tag takes the eight hash bits
  // below its entry's index, or the lowest eight once the index reaches
  // down to them.
  const unsigned filter_bits = std::min(bits + 2, 32u);
  slot_shift_ = 64 - bits;
  filter_shift_ = 32 - filter_bits;
  tag_shift_ = filter_shift_ >= 8 ? filter_shift_ - 8 : 0;
  slots_.assign(std::size_t{1} << bits, Slot{});
  filter_.assign(std::size_t{1} << filter_bits, 0);
  next_.resize(blocks);
  // Last block first, each pushed onto the head of its chain: every
  // chain ends up in ascending offset order.
  for (std::size_t b = blocks; b-- > 0;) {
    const std::uint32_t weak =
        RollingHash(source.data() + b * block_size, block_size).digest();
    const std::uint32_t h = weak * kFilterMul;
    std::uint8_t& entry = filter_[h >> filter_shift_];
    const std::uint8_t tag = tag_of(h);
    entry = (entry == 0 || entry == tag) ? tag : kShared;
    Slot& slot = slots_[slot_of(weak)];
    next_[b] = slot.head;
    slot = Slot{weak, std::uint32_t(b)};
  }
}

std::size_t scan_misses_portable(const BlockIndex& index, ByteSpan target,
                                 std::size_t pos, RollingHash& rh) {
  const std::uint8_t* tgt = target.data();
  const std::size_t bs = rh.window();
  const std::size_t last = target.size() - bs;
  while (pos < last && !index.contains(rh.digest())) {
    rh.roll(tgt[pos], tgt[pos + bs]);
    ++pos;
  }
  return pos;
}

#if defined(__x86_64__)
namespace {

/// Inclusive prefix sum over eight 16-bit lanes.
inline __m128i prefix_sum8(__m128i x) {
  x = _mm_add_epi16(x, _mm_slli_si128(x, 2));
  x = _mm_add_epi16(x, _mm_slli_si128(x, 4));
  return _mm_add_epi16(x, _mm_slli_si128(x, 8));
}

/// Lane 7 of eight 16-bit lanes, in all eight.
inline __m128i broadcast_lane7(__m128i x) {
  x = _mm_shufflehi_epi16(x, 0xFF);
  return _mm_unpackhi_epi64(x, x);
}

/// filter[e] for the two entries packed in `pair`, as bytes 0 and 1.
inline std::uint64_t load_pair(const std::uint8_t* filter,
                               std::uint64_t pair) {
  return filter[std::uint32_t(pair)] |
         std::uint64_t(filter[pair >> 32]) << 8;
}

}  // namespace

std::size_t scan_misses_sse2(const BlockIndex& index, ByteSpan target,
                             std::size_t pos, RollingHash& rh) {
  const std::uint8_t* tgt = target.data();
  const std::size_t bs = rh.window();
  const std::size_t last = target.size() - bs;
  if (pos >= last || index.contains(rh.digest())) return pos;

  const __m128i zero = _mm_setzero_si128();
  const __m128i bs16 = _mm_set1_epi16(std::int16_t(bs));
  const __m128i ramp = _mm_setr_epi16(1, 2, 3, 4, 5, 6, 7, 8);
  // The filter hash digest * kFilterMul mod 2^32, with digest = a | b << 16
  // and kFilterMul = m_hi << 16 | m_lo, is a * m_lo plus
  // (a * m_hi + b * m_lo) << 16: four 16-bit multiplies per eight lanes,
  // where two pmuludq would take four lanes.
  const __m128i m_lo =
      _mm_set1_epi16(std::int16_t(BlockIndex::kFilterMul & 0xFFFF));
  const __m128i m_hi = _mm_set1_epi16(std::int16_t(BlockIndex::kFilterMul >> 16));
  const __m128i shift = _mm_cvtsi32_si128(int(index.filter_shift()));
  const __m128i tag_shift = _mm_cvtsi32_si128(int(index.tag_shift()));
  const __m128i low_byte = _mm_set1_epi32(0xFF);
  const __m128i one = _mm_set1_epi16(1);
  const __m128i shared = _mm_set1_epi16(BlockIndex::kShared);
  const std::uint8_t* filter = index.filter();
  // Window pos's sums, in every lane.
  __m128i va = _mm_set1_epi16(std::int16_t(rh.sums().a));
  __m128i vb = _mm_set1_epi16(std::int16_t(rh.sums().b));
  // Windows pos+1..pos+8 read target[pos, pos + 8 + bs): all in bounds
  // while pos + 8 <= last.
  for (; pos + 8 <= last; pos += 8) {
    const __m128i out = _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(tgt + pos)), zero);
    const __m128i in = _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(tgt + pos + bs)),
        zero);
    // Lane j holds window pos+1+j: a moved by the j+1 byte swaps so far,
    // b by j+1 times the old a plus the sum of (a's move - bs * out).
    const __m128i da = prefix_sum8(_mm_sub_epi16(in, out));
    const __m128i db =
        prefix_sum8(_mm_sub_epi16(da, _mm_mullo_epi16(out, bs16)));
    const __m128i wa = _mm_add_epi16(va, da);
    const __m128i wb =
        _mm_add_epi16(_mm_add_epi16(vb, db), _mm_mullo_epi16(va, ramp));
    // Carry window pos+8's sums: one add on each loop-carried chain.
    vb = _mm_add_epi16(vb, _mm_add_epi16(_mm_slli_epi16(va, 3),
                                         broadcast_lane7(db)));
    va = _mm_add_epi16(va, broadcast_lane7(da));
    // Each lane's hash, entry and tag, as in BlockIndex::may_contain.
    const __m128i h_lo = _mm_mullo_epi16(wa, m_lo);
    const __m128i h_hi = _mm_add_epi16(
        _mm_add_epi16(_mm_mulhi_epu16(wa, m_lo), _mm_mullo_epi16(wa, m_hi)),
        _mm_mullo_epi16(wb, m_lo));
    const __m128i h03 = _mm_unpacklo_epi16(h_lo, h_hi);
    const __m128i h47 = _mm_unpackhi_epi16(h_lo, h_hi);
    const __m128i e03 = _mm_srl_epi32(h03, shift);
    const __m128i e47 = _mm_srl_epi32(h47, shift);
    const __m128i tag = _mm_or_si128(
        _mm_packs_epi32(_mm_and_si128(_mm_srl_epi32(h03, tag_shift), low_byte),
                        _mm_and_si128(_mm_srl_epi32(h47, tag_shift), low_byte)),
        one);
    // Lane j's filter byte in byte j, then in 16-bit lane j.
    const std::uint64_t bytes =
        load_pair(filter, std::uint64_t(_mm_cvtsi128_si64(e03))) |
        (load_pair(filter, std::uint64_t(_mm_cvtsi128_si64(
                               _mm_unpackhi_epi64(e03, e03))))
         << 16) |
        (load_pair(filter, std::uint64_t(_mm_cvtsi128_si64(e47))) << 32) |
        (load_pair(filter, std::uint64_t(_mm_cvtsi128_si64(
                               _mm_unpackhi_epi64(e47, e47))))
         << 48);
    const __m128i entry =
        _mm_unpacklo_epi8(_mm_cvtsi64_si128(std::int64_t(bytes)), zero);
    unsigned hits = unsigned(_mm_movemask_epi8(
                        _mm_or_si128(_mm_cmpeq_epi16(entry, tag),
                                     _mm_cmpeq_epi16(entry, shared)))) &
                    0x5555u;
    if (hits == 0) continue;
    // The first passing lane whose digest (b << 16) | a a block has.
    alignas(16) std::uint32_t dig[8];
    _mm_store_si128(reinterpret_cast<__m128i*>(dig),
                    _mm_unpacklo_epi16(wa, wb));
    _mm_store_si128(reinterpret_cast<__m128i*>(dig + 4),
                    _mm_unpackhi_epi16(wa, wb));
    for (; hits != 0; hits &= hits - 1) {
      const unsigned j = unsigned(std::countr_zero(hits)) / 2;
      if (index.first(dig[j]) != BlockIndex::kNone) {
        rh = RollingHash(WeakSums{dig[j] & 0xFFFF, dig[j] >> 16}, bs);
        return pos + 1 + j;
      }
    }
  }
  rh = RollingHash(WeakSums{std::uint16_t(_mm_cvtsi128_si32(va)),
                            std::uint16_t(_mm_cvtsi128_si32(vb))},
                   bs);
  return scan_misses_portable(index, target, pos, rh);
}
#endif

}  // namespace aic::delta::detail
