#include "delta/correcting.h"

#include <algorithm>
#include <cstring>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "delta/rolling_hash.h"

namespace aic::delta {
namespace {

// v3 instruction opcodes. 0x00/0x01 are the v2 (xdelta3-style) ADD/COPY;
// the v3 stream uses fresh opcodes so a v2 parser can never silently
// misread a v3 payload as its own.
constexpr std::uint8_t kOpCopy = 0x02;
constexpr std::uint8_t kOpAdd = 0x03;

struct Op {
  bool is_copy = false;
  std::uint64_t tgt_off = 0;
  std::uint64_t src_off = 0;  // copies only
  std::uint64_t len = 0;
  ByteSpan add_bytes;  // ADD only; view into the delta buffer
};

// Fibonacci-multiplicative slot mix: the KR digest's low bits alone are
// not uniform enough for direct masking.
std::size_t slot_of(std::uint64_t digest, unsigned bits) {
  return std::size_t((digest * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
}

// Fingerprint-table sizing bounds (log2 slots). The table is sized to hold
// the fingerprint count at <= 50% load within these bounds.
constexpr unsigned kTableBitsMin = 8;
constexpr unsigned kTableBitsMax = 20;

unsigned table_bits_for(std::size_t fingerprints) {
  unsigned bits = kTableBitsMin;
  while (bits < kTableBitsMax &&
         (std::size_t(1) << bits) < fingerprints * 2) {
    ++bits;
  }
  return bits;
}

// Table entry: digest tag (high 32 bits) | source offset + 1 (low 32
// bits, 0 = empty slot). The tag rejects nearly all false candidates
// before the byte-level verify touches the source.
std::uint64_t entry_of(std::uint64_t digest, std::size_t offset) {
  return ((digest & 0xFFFFFFFFu) << 32) | std::uint64_t(offset + 1);
}

struct ParsedDelta {
  std::uint64_t source_size = 0;
  std::uint64_t target_size = 0;
  std::vector<Op> ops;  // stream order == in-place execution order
  std::uint64_t copy_ops = 0;
  std::uint64_t add_ops = 0;
};

// Parses and fully validates a v3 stream BEFORE any output allocation:
// every instruction is bounds-checked against the declared sizes and the
// set of target intervals must partition [0, target_size) exactly.
// Hostile (truncated / bit-flipped) payloads surface as CheckError here.
ParsedDelta parse_delta(ByteSpan delta) {
  ByteReader r(delta);
  ParsedDelta p;
  p.source_size = r.varint();
  p.target_size = r.varint();
  while (!r.done()) {
    Op op;
    const std::uint8_t code = r.u8();
    if (code == kOpCopy) {
      op.is_copy = true;
      op.tgt_off = r.varint();
      op.src_off = r.varint();
      op.len = r.varint();
      AIC_CHECK_MSG(op.len != 0 && op.len <= p.source_size &&
                        op.src_off <= p.source_size - op.len,
                    "correcting delta: COPY reads outside source");
      ++p.copy_ops;
    } else if (code == kOpAdd) {
      op.tgt_off = r.varint();
      op.len = r.varint();
      AIC_CHECK_MSG(op.len != 0 && op.len <= r.remaining(),
                    "correcting delta: ADD length exceeds payload");
      op.add_bytes = r.raw(std::size_t(op.len));
      ++p.add_ops;
    } else {
      AIC_CHECK_MSG(false, "correcting delta: unknown instruction");
    }
    AIC_CHECK_MSG(op.len <= p.target_size &&
                      op.tgt_off <= p.target_size - op.len,
                  "correcting delta: instruction writes outside target");
    p.ops.push_back(op);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  intervals.reserve(p.ops.size());
  for (const Op& op : p.ops) intervals.emplace_back(op.tgt_off, op.len);
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t expect = 0;
  for (const auto& [off, len] : intervals) {
    AIC_CHECK_MSG(off == expect, "correcting delta: target coverage gap "
                                 "or overlap");
    expect += len;
  }
  AIC_CHECK_MSG(expect == p.target_size,
                "correcting delta: coverage does not span target");
  return p;
}

// Executes a parsed (already validated) stream over distinct source and
// output buffers. Stream order is irrelevant here — reads never alias
// writes across buffers.
void apply_out_of_place(const ParsedDelta& p, ByteSpan source,
                        std::uint8_t* out) {
  for (const Op& op : p.ops) {
    if (op.is_copy) {
      copy_no_overlap(out + op.tgt_off, source.data() + op.src_off,
                      std::size_t(op.len));
    } else {
      copy_no_overlap(out + op.tgt_off, op.add_bytes.data(),
                      std::size_t(op.len));
    }
  }
}

// Executes the stream over one buffer holding the source image. The
// encoder guarantees stream order is a safe schedule (copies
// topologically sorted on write-after-read dependencies, literals last);
// memmove covers a single copy's own self-overlap.
void apply_ops_in_place(const ParsedDelta& p, std::uint8_t* buf) {
  for (const Op& op : p.ops) {
    if (op.is_copy) {
      std::memmove(buf + op.tgt_off, buf + op.src_off, std::size_t(op.len));
    } else {
      copy_no_overlap(buf + op.tgt_off, op.add_bytes.data(),
                      std::size_t(op.len));
    }
  }
}

void fill_apply_stats(const ParsedDelta& p, std::size_t delta_size,
                      CodecStats* stats) {
  if (!stats) return;
  *stats = CodecStats{};
  stats->input_bytes = p.target_size;
  stats->source_bytes = p.source_size;
  stats->output_bytes = delta_size;
  stats->work_units = p.target_size;
  stats->copy_ops = p.copy_ops;
  stats->add_ops = p.add_ops;
}

// Burns/Long/Stockmeyer in-place schedule. `copies` arrive in target
// order (write intervals disjoint, ascending). Copy B must execute
// before copy A whenever A's write interval overlaps B's read interval —
// otherwise A destroys bytes B still needs. Kahn's algorithm over those
// edges yields the schedule; when a cycle remains, the SHORTEST
// unscheduled copy is demoted to a literal (its bytes are taken from the
// target, which the encoder has), removing its read edges and letting
// the remainder make progress — shortest-first keeps the ratio cost of
// a cycle at the small side of the conflict (a half-buffer rotation
// demotes the smaller half, not the larger). Because write intervals
// partition the copied part of the target, total edge count is
// O(copies + target_size / seed_len) — near-linear, so encode latency
// stays flat.
void order_for_in_place(std::vector<Op>& copies,
                        std::vector<Op>& demoted_literals,
                        ByteSpan target) {
  const std::size_t n = copies.size();
  if (n == 0) return;
  // out_range[b] = indices of copies whose write overlaps b's read.
  std::vector<std::pair<std::size_t, std::size_t>> out_range(n);
  std::vector<std::uint32_t> in_degree(n, 0);
  for (std::size_t b = 0; b < n; ++b) {
    const std::uint64_t read_begin = copies[b].src_off;
    const std::uint64_t read_end = read_begin + copies[b].len;
    // First copy whose write interval ends after read_begin.
    std::size_t lo =
        std::size_t(std::partition_point(
                        copies.begin(), copies.end(),
                        [&](const Op& a) {
                          return a.tgt_off + a.len <= read_begin;
                        }) -
                    copies.begin());
    // First copy whose write interval starts at/after read_end.
    std::size_t hi =
        std::size_t(std::partition_point(copies.begin(), copies.end(),
                                         [&](const Op& a) {
                                           return a.tgt_off < read_end;
                                         }) -
                    copies.begin());
    out_range[b] = {lo, hi};
    for (std::size_t a = lo; a < hi; ++a) {
      if (a != b) ++in_degree[a];
    }
  }
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<std::size_t>>
      ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) ready.push(i);
  }
  std::vector<bool> done(n, false);
  std::vector<Op> scheduled;
  scheduled.reserve(n);
  // Demotion order: shortest copy first (index breaks ties), so a cycle
  // costs as few literal bytes as possible.
  std::vector<std::size_t> by_len(n);
  for (std::size_t i = 0; i < n; ++i) by_len[i] = i;
  std::sort(by_len.begin(), by_len.end(),
            [&](std::size_t a, std::size_t b) {
              return copies[a].len != copies[b].len
                         ? copies[a].len < copies[b].len
                         : a < b;
            });
  std::size_t resolved = 0;
  std::size_t cycle_probe = 0;  // next position in by_len to consider
  while (resolved < n) {
    std::size_t b;
    if (!ready.empty()) {
      b = ready.top();
      ready.pop();
      scheduled.push_back(copies[b]);
    } else {
      // Cycle: demote the shortest unresolved copy to a literal.
      while (done[by_len[cycle_probe]]) ++cycle_probe;
      b = by_len[cycle_probe];
      Op lit;
      lit.tgt_off = copies[b].tgt_off;
      lit.len = copies[b].len;
      lit.add_bytes = target.subspan(std::size_t(lit.tgt_off),
                                     std::size_t(lit.len));
      demoted_literals.push_back(lit);
    }
    done[b] = true;
    ++resolved;
    const auto [lo, hi] = out_range[b];
    for (std::size_t a = lo; a < hi; ++a) {
      if (a != b && !done[a] && --in_degree[a] == 0) ready.push(a);
    }
  }
  copies = std::move(scheduled);
}

}  // namespace

CorrectingDeltaCodec::CorrectingDeltaCodec(CorrectingConfig config)
    : config_(config) {
  AIC_CHECK(config_.seed_len >= 4);
}

Bytes CorrectingDeltaCodec::encode(ByteSpan source, ByteSpan target,
                                   CodecStats* stats) const {
  const std::size_t seed = config_.seed_len;
  CodecStats local;
  local.input_bytes = target.size();
  local.source_bytes = source.size();

  // Fingerprint the source at seed spacing into a single-slot keep-first
  // table: lowest offset wins, so matching is deterministic and biased
  // toward the front of the source. Fresh (non-rolling) window hashes
  // cost one multiply per source byte total — half the rolling cost — and
  // with non-overlapping windows the table load factor stays low enough
  // that collisions are rare.
  std::vector<std::uint64_t> table;
  unsigned bits = 0;
  if (source.size() >= seed) {
    AIC_CHECK_MSG(source.size() < 0xFFFFFFFFu,
                  "correcting codec: source too large");
    const std::size_t fingerprints = (source.size() - seed) / seed + 1;
    bits = table_bits_for(fingerprints);
    table.assign(std::size_t(1) << bits, 0);
    for (std::size_t i = 0; i + seed <= source.size(); i += seed) {
      const std::uint64_t digest =
          KarpRabinHash::digest_of(source.data() + i, seed);
      std::uint64_t& slot = table[slot_of(digest, bits)];
      if (slot == 0) slot = entry_of(digest, i);
    }
    local.work_units += source.size();
  }

  // One pass over the target. Literal bytes are deferred (held as the
  // pending run [lit_start, t)) so that a match found later can correct
  // them: a verified match back-extends over the pending run, turning
  // already-scanned literal bytes into part of the cheaper copy.
  std::vector<Op> copies;
  std::vector<Op> literals;
  std::size_t lit_start = 0;
  if (!table.empty() && target.size() >= seed) {
    KarpRabinHash th(target.data(), seed);
    std::size_t t = 0;
    while (t + seed <= target.size()) {
      const std::uint64_t digest = th.digest();
      const std::uint64_t entry = table[slot_of(digest, bits)];
      bool matched = false;
      if (entry != 0 && (entry >> 32) == (digest & 0xFFFFFFFFu)) {
        const std::size_t s = std::size_t(entry & 0xFFFFFFFFu) - 1;
        local.work_units += seed;
        if (std::memcmp(source.data() + s, target.data() + t, seed) == 0) {
          std::size_t bt = t, bs = s;
          while (bt > lit_start && bs > 0 &&
                 source[bs - 1] == target[bt - 1]) {
            --bt;
            --bs;
          }
          std::size_t ft = t + seed, fs = s + seed;
          while (ft < target.size() && fs < source.size() &&
                 source[fs] == target[ft]) {
            ++ft;
            ++fs;
          }
          local.work_units += (t - bt) + (ft - (t + seed));
          if (bt > lit_start) {
            Op lit;
            lit.tgt_off = lit_start;
            lit.len = bt - lit_start;
            lit.add_bytes = target.subspan(lit_start, bt - lit_start);
            literals.push_back(lit);
          }
          Op copy;
          copy.is_copy = true;
          copy.tgt_off = bt;
          copy.src_off = bs;
          copy.len = ft - bt;
          copies.push_back(copy);
          lit_start = ft;
          t = ft;
          if (t + seed <= target.size()) {
            th = KarpRabinHash(target.data() + t, seed);
          }
          matched = true;
        }
      }
      if (!matched) {
        if (t + seed == target.size()) break;
        th.roll(target[t], target[t + seed]);
        ++t;
        ++local.work_units;
      }
    }
  }
  if (lit_start < target.size()) {
    Op lit;
    lit.tgt_off = lit_start;
    lit.len = target.size() - lit_start;
    lit.add_bytes = target.subspan(lit_start);
    literals.push_back(lit);
  }

  // Schedule for in-place application; demoted cycle members join the
  // literal set. Literals run last (they read nothing), sorted by target
  // offset for a canonical byte stream.
  order_for_in_place(copies, literals, target);
  std::sort(literals.begin(), literals.end(),
            [](const Op& a, const Op& b) { return a.tgt_off < b.tgt_off; });

  Bytes out;
  ByteWriter w(out);
  w.varint(source.size());
  w.varint(target.size());
  for (const Op& op : copies) {
    w.u8(kOpCopy);
    w.varint(op.tgt_off);
    w.varint(op.src_off);
    w.varint(op.len);
    ++local.copy_ops;
  }
  for (const Op& op : literals) {
    w.u8(kOpAdd);
    w.varint(op.tgt_off);
    w.varint(op.len);
    w.raw(op.add_bytes);
    ++local.add_ops;
  }
  local.output_bytes = out.size();
  local.work_units += out.size();
  if (stats) *stats = local;
  return out;
}

Bytes CorrectingDeltaCodec::decode(ByteSpan source, ByteSpan delta,
                                   CodecStats* stats) const {
  const ParsedDelta p = parse_delta(delta);
  AIC_CHECK_MSG(p.source_size == source.size(),
                "correcting delta: source size mismatch");
  Bytes out(std::size_t(p.target_size));
  apply_out_of_place(p, source, out.data());
  fill_apply_stats(p, delta.size(), stats);
  return out;
}

void CorrectingDeltaCodec::apply_in_place(Bytes& buffer, ByteSpan delta,
                                          CodecStats* stats) const {
  const ParsedDelta p = parse_delta(delta);
  AIC_CHECK_MSG(p.source_size == buffer.size(),
                "correcting delta: source size mismatch");
  if (p.target_size > buffer.size()) {
    buffer.resize(std::size_t(p.target_size));
  }
  apply_ops_in_place(p, buffer.data());
  buffer.resize(std::size_t(p.target_size));
  fill_apply_stats(p, delta.size(), stats);
}

void CorrectingDeltaCodec::apply_in_place(std::span<std::uint8_t> buffer,
                                          ByteSpan delta,
                                          CodecStats* stats) const {
  const ParsedDelta p = parse_delta(delta);
  AIC_CHECK_MSG(p.source_size == buffer.size() &&
                    p.target_size == buffer.size(),
                "correcting delta: fixed-frame size mismatch");
  apply_ops_in_place(p, buffer.data());
  fill_apply_stats(p, delta.size(), stats);
}

}  // namespace aic::delta
