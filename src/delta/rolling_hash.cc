#include "delta/rolling_hash.h"

namespace aic::delta {

std::uint64_t fnv1a64(ByteSpan data) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace aic::delta
