// FNV-1a over a canonical byte stream, for golden tests that pin a
// timeline by digest: integers little-endian, doubles as their bit
// patterns, strings NUL-terminated, byte spans verbatim.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>

namespace aic::testing {

class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(std::uint8_t(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    for (char c : s) byte(std::uint8_t(c));
    byte(0);
  }
  void bytes(std::span<const std::uint8_t> s) {
    for (std::uint8_t b : s) byte(b);
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace aic::testing
