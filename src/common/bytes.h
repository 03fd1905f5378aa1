// Byte-stream serialization: LEB128 varints and little-endian fixed-width
// integers over growable byte buffers.
//
// Used by the delta instruction stream (delta/) and the checkpoint file
// format (ckpt/). All multi-byte integers are stored little-endian so the
// formats are deterministic and portable. SharedBytes is the immutable,
// shared buffer a parsed checkpoint's payload lives in.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"

namespace aic {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

/// Immutable bytes that every copy shares: a view plus a reference to
/// whatever owns the bytes it views, so a copy costs a reference count and
/// never the bytes. Built from a Bytes by a move, or from an owner and a
/// span of the bytes it keeps alive. Compares by content.
class SharedBytes {
 public:
  using value_type = std::uint8_t;
  using const_iterator = const std::uint8_t*;
  using iterator = const_iterator;

  SharedBytes() = default;
  explicit SharedBytes(Bytes&& bytes) { *this = std::move(bytes); }
  SharedBytes(std::shared_ptr<const void> owner, ByteSpan view)
      : owner_(std::move(owner)), view_(view) {}

  /// Takes `bytes` over; the buffer moves, no byte is copied.
  SharedBytes& operator=(Bytes&& bytes) {
    auto owned = std::make_shared<Bytes>(std::move(bytes));
    view_ = *owned;
    owner_ = std::move(owned);
    return *this;
  }

  /// The bytes [offset, offset + count), kept alive by the same owner.
  SharedBytes subspan(std::size_t offset, std::size_t count) const {
    AIC_CHECK(offset <= view_.size() && count <= view_.size() - offset);
    return {owner_, view_.subspan(offset, count)};
  }

  const std::uint8_t* data() const { return view_.data(); }
  std::size_t size() const { return view_.size(); }
  const_iterator begin() const { return view_.data(); }
  const_iterator end() const { return view_.data() + view_.size(); }
  operator ByteSpan() const { return view_; }

  friend bool operator==(const SharedBytes& a, ByteSpan b) {
    return std::ranges::equal(a.view_, b);
  }
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a == b.view_;
  }

 private:
  std::shared_ptr<const void> owner_;
  ByteSpan view_;
};

/// Appends encoded values to a Bytes buffer.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u16(std::uint16_t v) { fixed(v, 2); }
  void u32(std::uint32_t v) { fixed(v, 4); }
  void u64(std::uint64_t v) { fixed(v, 8); }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  /// Unsigned LEB128.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(std::uint8_t(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(std::uint8_t(v));
  }

  void raw(ByteSpan data) { out_.insert(out_.end(), data.begin(), data.end()); }

  /// Reserves a two-byte slot for the varint length (< 2^14) of the body
  /// written after it; returns the body's start for close_length_slot().
  /// Lets a record be encoded in place when its length is known only
  /// afterwards.
  std::size_t open_length_slot() {
    out_.push_back(0);
    out_.push_back(0);
    return out_.size();
  }

  /// Writes the length of everything appended since open_length_slot()
  /// into its slot, exactly as varint() would have written it up front: a
  /// one-byte length shifts the body left by one byte.
  void close_length_slot(std::size_t body) {
    const std::size_t len = out_.size() - body;
    AIC_CHECK_MSG(len < (1u << 14), "length slot holds two varint bytes");
    if (len < 0x80) {
      out_[body - 2] = std::uint8_t(len);
      std::memmove(out_.data() + body - 1, out_.data() + body, len);
      out_.pop_back();
    } else {
      out_[body - 2] = std::uint8_t(len) | 0x80;
      out_[body - 1] = std::uint8_t(len >> 7);
    }
  }

  /// Drops everything written after the first `n` bytes.
  void truncate(std::size_t n) {
    AIC_CHECK(n <= out_.size());
    out_.resize(n);
  }

  std::size_t size() const { return out_.size(); }

 private:
  void fixed(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) out_.push_back(std::uint8_t(v >> (8 * i)));
  }
  Bytes& out_;
};

/// Aliasing-checked copy for ranges that must not overlap. In-place
/// reconstruction paths use std::memmove for intentional overlap; every
/// other bulk copy in delta/ and ckpt/ goes through here so the L6 lint
/// rule can forbid raw memcpy on those layers outright.
inline void copy_no_overlap(std::uint8_t* dst, const std::uint8_t* src,
                            std::size_t n) {
  if (n == 0) return;
  const auto d = reinterpret_cast<std::uintptr_t>(dst);
  const auto s = reinterpret_cast<std::uintptr_t>(src);
  AIC_CHECK_MSG(d + n <= s || s + n <= d, "copy_no_overlap: ranges overlap");
  std::memcpy(dst, src, n);
}

/// Unaligned little-endian 64-bit load, for word-at-a-time scans.
inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  return v;
}

/// Reads encoded values from a byte span; bounds-checked via AIC_CHECK.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  std::uint8_t u8() {
    AIC_CHECK_MSG(pos_ < data_.size(), "byte stream underrun");
    return data_[pos_++];
  }

  std::uint16_t u16() { return std::uint16_t(fixed(2)); }
  std::uint32_t u32() { return std::uint32_t(fixed(4)); }
  std::uint64_t u64() { return fixed(8); }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      AIC_CHECK_MSG(shift < 64, "varint overlong");
      std::uint8_t b = u8();
      v |= std::uint64_t(b & 0x7F) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
    }
  }

  ByteSpan raw(std::size_t n) {
    // n comes from untrusted length fields: compare against the bytes
    // left rather than pos_ + n, which a hostile 2^63 length would wrap.
    AIC_CHECK_MSG(n <= data_.size() - pos_, "byte stream underrun");
    ByteSpan s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  std::size_t pos() const { return pos_; }

 private:
  std::uint64_t fixed(int n) {
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) v |= std::uint64_t(u8()) << (8 * i);
    return v;
  }
  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace aic
