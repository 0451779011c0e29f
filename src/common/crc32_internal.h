// The two CRC-32C implementations behind Crc32cExtend, exposed so tests can
// check them against each other. Production code calls crc32.h; which of
// these it runs is decided once, by CPU detection, with no runtime switch.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace dpfs::crc32_internal {

/// Byte-at-a-time table CRC-32C; the only fallback.
std::uint32_t ExtendPortable(std::uint32_t crc, ByteSpan data) noexcept;

/// Bytes each of the three interleaved hardware streams covers per step on
/// long inputs; inputs of 3 * kLongBlock bytes or more take that path.
inline constexpr std::size_t kLongBlock = 8192;
/// The same for the medium path (3 * kShortBlock bytes or more).
inline constexpr std::size_t kShortBlock = 256;

/// True when this CPU has the SSE4.2 crc32 instruction.
bool HardwareSupported() noexcept;

/// SSE4.2 CRC-32C with three interleaved streams. Call only when
/// HardwareSupported(); on other targets it forwards to ExtendPortable.
std::uint32_t ExtendHardware(std::uint32_t crc, ByteSpan data) noexcept;

}  // namespace dpfs::crc32_internal
