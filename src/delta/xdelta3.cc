#include "delta/xdelta3.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/check.h"
#include "delta/rolling_hash.h"

namespace aic::delta {
namespace {

constexpr std::uint8_t kOpAdd = 0x00;
constexpr std::uint8_t kOpCopy = 0x01;

/// Weak-hash index of block-aligned source offsets: a flat open-addressed
/// table behind a presence bitmap, rebuilt in place for every encode and
/// kept per thread, so steady-state encoding allocates nothing.
///
/// A slot maps a digest to the first block of its chain; next_ links each
/// block to the next one with the same digest, in ascending offset order —
/// the order max_probes cuts candidates in. The bitmap holds 64 bits per
/// block, so a window whose digest no block shares is answered by one bit
/// test (false positives ≈1/64 fall through to the table).
class BlockIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  void rebuild(ByteSpan source, std::size_t block_size) {
    const std::size_t blocks = source.size() / block_size;
    AIC_CHECK_MSG(blocks < kNone, "source has too many blocks to index");
    // At least two slots per block keeps linear-probe runs short; the
    // floor keeps tiny sources from thrashing one cache line.
    unsigned bits = kMinSlotBits;
    while ((std::size_t{1} << bits) < 2 * blocks) ++bits;
    slot_shift_ = 64 - bits;
    filter_shift_ = 64 - (bits + 5);  // 32 filter bits per slot
    slots_.assign(std::size_t{1} << bits, Slot{});
    filter_.assign(std::size_t{1} << (bits - 1), 0);
    next_.resize(blocks);
    // Last block first, each pushed onto the head of its chain: every
    // chain ends up in ascending offset order.
    for (std::size_t b = blocks; b-- > 0;) {
      const std::uint32_t weak =
          RollingHash(source.data() + b * block_size, block_size).digest();
      const std::uint64_t f = mix(weak) >> filter_shift_;
      filter_[f >> 6] |= std::uint64_t{1} << (f & 63);
      Slot& slot = slots_[slot_of(weak)];
      next_[b] = slot.head;
      slot = Slot{weak, std::uint32_t(b)};
    }
  }

  /// False only if no block has digest `weak`.
  bool may_contain(std::uint32_t weak) const {
    const std::uint64_t f = mix(weak) >> filter_shift_;
    return (filter_[f >> 6] >> (f & 63)) & 1;
  }

  /// Lowest block with digest `weak`, or kNone.
  std::uint32_t first(std::uint32_t weak) const {
    return slots_[slot_of(weak)].head;
  }

  /// Next block after `block` with the same digest, or kNone.
  std::uint32_t next(std::uint32_t block) const { return next_[block]; }

 private:
  static constexpr unsigned kMinSlotBits = 6;

  struct Slot {
    std::uint32_t digest = 0;
    std::uint32_t head = kNone;  // kNone marks an empty slot
  };

  static std::uint64_t mix(std::uint32_t weak) {
    return std::uint64_t(weak) * 0x9E3779B97F4A7C15ull;
  }

  /// The slot holding `weak`, or the empty slot that ends its probe run.
  std::size_t slot_of(std::uint32_t weak) const {
    std::size_t i = mix(weak) >> slot_shift_;
    while (slots_[i].head != kNone && slots_[i].digest != weak)
      i = (i + 1) & (slots_.size() - 1);
    return i;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> filter_;
  std::vector<std::uint32_t> next_;
  unsigned slot_shift_ = 0;
  unsigned filter_shift_ = 0;
};

/// Bytes at which a[0..) and b[0..) agree, up to `limit`.
std::size_t common_prefix(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t limit) {
  std::size_t n = 0;
  for (; n + 8 <= limit; n += 8) {
    const std::uint64_t x = load_le64(a + n) ^ load_le64(b + n);
    if (x != 0) return n + std::countr_zero(x) / 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

/// Bytes at which a[..0) and b[..0) agree counting backwards, up to `limit`.
std::size_t common_suffix(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t limit) {
  std::size_t n = 0;
  for (; n + 8 <= limit; n += 8) {
    const std::uint64_t x = load_le64(a - n - 8) ^ load_le64(b - n - 8);
    if (x != 0) return n + std::countl_zero(x) / 8;
  }
  while (n < limit && a[-1 - std::ptrdiff_t(n)] == b[-1 - std::ptrdiff_t(n)])
    ++n;
  return n;
}

struct Match {
  std::size_t src_start = 0;  // source offset of the full (back-extended) match
  std::size_t back = 0;       // bytes the match reaches left of the scan pos
  std::size_t fwd = 0;        // bytes matched at/after the scan pos
  std::size_t total() const { return back + fwd; }
};

void emit_add(ByteWriter& w, ByteSpan target, std::size_t start,
              std::size_t len, CodecStats& st) {
  if (len == 0) return;
  w.u8(kOpAdd);
  w.varint(len);
  w.raw(target.subspan(start, len));
  ++st.add_ops;
}

void emit_copy(ByteWriter& w, std::size_t src_off, std::size_t len,
               CodecStats& st) {
  w.u8(kOpCopy);
  w.varint(src_off);
  w.varint(len);
  ++st.copy_ops;
}

}  // namespace

XDelta3Codec::XDelta3Codec(XDelta3Config config) : config_(config) {
  AIC_CHECK(config_.block_size >= 4);
  AIC_CHECK(config_.max_probes >= 1);
  AIC_CHECK(config_.min_match >= 1);
}

Bytes XDelta3Codec::encode(ByteSpan source, ByteSpan target,
                           CodecStats* stats) const {
  Bytes out;
  out.reserve(target.size() / 8 + 32);
  ByteWriter w(out);
  encode_to(source, target, w, stats);
  return out;
}

void XDelta3Codec::encode_to(ByteSpan source, ByteSpan target, ByteWriter& w,
                             CodecStats* stats) const {
  CodecStats st;
  st.input_bytes = target.size();
  st.source_bytes = source.size();

  const std::size_t start = w.size();
  w.varint(source.size());
  w.varint(target.size());

  const std::size_t bs = config_.block_size;
  st.work_units += source.size();  // block hashing pass over the source

  std::size_t add_start = 0;  // first target byte not yet covered by any op

  if (target.size() >= bs && source.size() >= bs) {
    thread_local BlockIndex index;
    index.rebuild(source, bs);
    const std::uint8_t* src = source.data();
    const std::uint8_t* tgt = target.data();
    const std::size_t last = target.size() - bs;  // final window start
    std::size_t pos = 0;  // scan position == rolling window start
    RollingHash rh(tgt, bs);
    for (;;) {
      // Miss run: a window no source block can match costs one roll and
      // one filter test, and one work unit like any failed window.
      const std::size_t run_start = pos;
      while (pos < last && !index.may_contain(rh.digest())) {
        rh.roll(tgt[pos], tgt[pos + bs]);
        ++pos;
      }
      st.work_units += pos - run_start;

      Match best;
      std::size_t probes = 0;
      for (std::uint32_t b = index.first(rh.digest());
           b != BlockIndex::kNone && probes < config_.max_probes;
           b = index.next(b), ++probes) {
        const std::size_t cand = std::size_t(b) * bs;
        st.work_units += bs;  // the block confirmation
        const std::size_t fwd =
            common_prefix(src + cand, tgt + pos,
                          std::min(source.size() - cand, target.size() - pos));
        if (fwd < bs) continue;  // weak-hash collision
        const std::size_t back = common_suffix(
            src + cand, tgt + pos, std::min(cand, pos - add_start));
        st.work_units += (fwd - bs) + back;
        if (back + fwd > best.total()) best = Match{cand - back, back, fwd};
      }
      if (best.total() >= config_.min_match) {
        const std::size_t match_tgt_start = pos - best.back;
        emit_add(w, target, add_start, match_tgt_start - add_start, st);
        emit_copy(w, best.src_start, best.total(), st);
        pos += best.fwd;
        add_start = pos;
        if (pos > last) break;
        rh = RollingHash(tgt + pos, bs);
        st.work_units += bs;
      } else {
        ++st.work_units;
        if (pos == last) break;
        rh.roll(tgt[pos], tgt[pos + bs]);
        ++pos;
      }
    }
  }

  emit_add(w, target, add_start, target.size() - add_start, st);
  st.output_bytes = w.size() - start;
  if (stats) *stats = st;
}

Bytes XDelta3Codec::decode(ByteSpan source, ByteSpan delta,
                           CodecStats* stats) const {
  CodecStats st;
  ByteReader r(delta);
  const std::uint64_t source_size = r.varint();
  const std::uint64_t target_size = r.varint();
  AIC_CHECK_MSG(source_size == source.size(),
                "delta was made against a different source");
  // The header is untrusted: reserve no more than the delta's bytes plus
  // one source's worth. Past that the buffer grows on demand.
  Bytes out;
  out.reserve(std::min<std::uint64_t>(target_size,
                                      r.remaining() + source.size()));
  while (!r.done()) {
    const std::uint8_t op = r.u8();
    std::uint64_t len = 0;
    if (op == kOpAdd) {
      len = r.varint();
      AIC_CHECK_MSG(len <= target_size - out.size(),
                    "delta writes past its target size");
      ByteSpan data = r.raw(len);
      out.insert(out.end(), data.begin(), data.end());
      ++st.add_ops;
    } else if (op == kOpCopy) {
      const std::uint64_t off = r.varint();
      len = r.varint();
      AIC_CHECK_MSG(len <= source.size() && off <= source.size() - len,
                    "copy past source end");
      AIC_CHECK_MSG(len <= target_size - out.size(),
                    "delta writes past its target size");
      out.insert(out.end(), source.begin() + off, source.begin() + off + len);
      ++st.copy_ops;
    } else {
      AIC_CHECK_MSG(false, "bad delta opcode " << int(op));
    }
    st.work_units += len;
  }
  AIC_CHECK_MSG(out.size() == target_size, "decoded size mismatch");
  st.input_bytes = out.size();
  st.source_bytes = source.size();
  st.output_bytes = delta.size();
  if (stats) *stats = st;
  return out;
}

}  // namespace aic::delta
