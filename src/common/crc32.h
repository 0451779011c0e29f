// CRC-32C (Castagnoli) used to protect WAL records and wire frames.
//
// On x86-64 CPUs with SSE4.2 the crc32 instruction computes it, three
// interleaved streams at a time; elsewhere a byte-at-a-time table does.
// The choice is made once by CPU detection. Both give the same value (the
// polynomial is fixed), so frames and WAL records do not depend on it.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace dpfs {

/// One-shot CRC-32C of a byte span.
std::uint32_t Crc32c(ByteSpan data) noexcept;

/// Incremental form: crc = Crc32cExtend(crc_so_far, next_chunk).
/// Seed with 0 for a fresh computation.
std::uint32_t Crc32cExtend(std::uint32_t crc, ByteSpan data) noexcept;

}  // namespace dpfs
