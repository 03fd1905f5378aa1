// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) over
// byte spans — the checksum guarding checkpoint record bodies on disk
// (ckpt/checkpoint_file.h, format v2).
//
// CRC-32C is the conventional storage-integrity polynomial (iSCSI, ext4,
// Btrfs): its error-detection properties on short-to-medium records are
// well characterized, and every single-bit, double-bit, and burst error up
// to 32 bits in a checkpoint record is guaranteed to change the checksum.
//
// crc32c_update picks its implementation once, at first use: on x86-64
// hosts with SSE4.2 it runs the `crc32` instruction, which computes this
// same polynomial in hardware; elsewhere it runs a portable slice-by-8
// table walk. Both are exact implementations of one function — the
// reflected CRC register advanced byte by byte — so they return identical
// values for every input and split, and a record written on one host
// verifies on any other. The dispatch needs no build option.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace aic {

/// CRC-32C of `data`, with the standard init/xor-out (0xFFFFFFFF both).
std::uint32_t crc32c(ByteSpan data);

/// Streaming form: feed `crc32c_update` successive chunks starting from
/// `kCrc32cInit`, then finalize. crc32c(x) == crc32c_finalize(
/// crc32c_update(kCrc32cInit, x)).
inline constexpr std::uint32_t kCrc32cInit = 0xFFFFFFFFu;
std::uint32_t crc32c_update(std::uint32_t state, ByteSpan data);
inline std::uint32_t crc32c_finalize(std::uint32_t state) { return ~state; }

namespace detail {

/// The updaters crc32c_update dispatches between, exposed so tests can
/// hold them against each other. The slice-by-8 walk runs anywhere.
std::uint32_t crc32c_update_slice8(std::uint32_t state, ByteSpan data);
#if defined(__x86_64__)
/// The SSE4.2 `crc32` instruction path. Call only where the CPU reports
/// SSE4.2 (`__builtin_cpu_supports("sse4.2")`).
std::uint32_t crc32c_update_sse42(std::uint32_t state, ByteSpan data);
#endif

}  // namespace detail
}  // namespace aic
