#include "delta/xor_delta.h"

#include <algorithm>

#include "common/check.h"

namespace aic::delta {
namespace {

constexpr std::uint8_t kZeroRun = 0x00;
constexpr std::uint8_t kLiteral = 0x01;

std::uint8_t source_at(ByteSpan source, std::size_t i) {
  return i < source.size() ? source[i] : 0;
}

}  // namespace

Bytes XorDeltaCodec::encode(ByteSpan source, ByteSpan target,
                            CodecStats* stats) const {
  CodecStats st;
  st.input_bytes = target.size();
  st.source_bytes = source.size();

  Bytes out;
  out.reserve(target.size() / 16 + 16);
  ByteWriter w(out);
  w.varint(source.size());
  w.varint(target.size());

  auto xor_at = [&](std::size_t k) {
    return std::uint8_t(target[k] ^ source_at(source, k));
  };

  std::size_t i = 0;
  while (i < target.size()) {
    // Measure the zero run starting here.
    std::size_t run = 0;
    while (i + run < target.size() && xor_at(i + run) == 0) ++run;
    if (run > 0 && (run >= min_zero_run_ || i + run == target.size())) {
      w.u8(kZeroRun);
      w.varint(run);
      ++st.copy_ops;  // a zero run plays the role of a COPY
      i += run;
      st.work_units += run;
      continue;
    }
    // Literal segment: scan until a worthwhile zero run begins or the end.
    const std::size_t lit_start = i;
    std::size_t zeros = 0;
    std::size_t j = i;
    while (j < target.size()) {
      zeros = xor_at(j) == 0 ? zeros + 1 : 0;
      ++j;
      if (zeros == min_zero_run_) {
        j -= min_zero_run_;  // exclude the upcoming run from the literal
        break;
      }
    }
    const std::size_t lit_len = j - lit_start;
    w.u8(kLiteral);
    w.varint(lit_len);
    for (std::size_t k = 0; k < lit_len; ++k) w.u8(xor_at(lit_start + k));
    ++st.add_ops;
    st.work_units += 2 * lit_len;
    i = j;
  }

  st.output_bytes = out.size();
  if (stats) *stats = st;
  return out;
}

Bytes XorDeltaCodec::decode(ByteSpan source, ByteSpan delta,
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
    const std::uint64_t len = r.varint();
    AIC_CHECK_MSG(len <= target_size - out.size(),
                  "xor-delta writes past its target size");
    if (op == kZeroRun) {
      for (std::uint64_t k = 0; k < len; ++k)
        out.push_back(source_at(source, out.size()));
      ++st.copy_ops;
    } else if (op == kLiteral) {
      ByteSpan lit = r.raw(len);
      for (std::uint64_t k = 0; k < len; ++k)
        out.push_back(std::uint8_t(lit[k] ^ source_at(source, out.size())));
      ++st.add_ops;
    } else {
      AIC_CHECK_MSG(false, "bad xor-delta opcode " << int(op));
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
