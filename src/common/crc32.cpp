#include "common/crc32.h"

#include <array>
#include <cstring>

#include "common/crc32_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dpfs {
namespace {

// CRC-32C polynomial 0x1EDC6F41, bit-reflected.
constexpr std::uint32_t kPoly = 0x82F63B78u;

// Table-driven CRC-32C, one byte per step.
constexpr std::array<std::uint32_t, 256> MakeTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = MakeTable();

// The hardware path runs three independent crc32 streams over adjacent
// blocks and joins them by shifting the first stream's register over the
// zero bytes of the blocks after it. A shift is a linear map over GF(2),
// kept as a 32x32 bit matrix and, for speed, as four byte-indexed tables
// (the scheme of Mark Adler's crc32c.c).
using Gf2Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t Gf2Times(const Gf2Matrix& mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (int n = 0; vec != 0; ++n, vec >>= 1) {
    if ((vec & 1) != 0) sum ^= mat[n];
  }
  return sum;
}

constexpr Gf2Matrix Gf2Square(const Gf2Matrix& mat) {
  Gf2Matrix square{};
  for (int n = 0; n < 32; ++n) square[n] = Gf2Times(mat, mat[n]);
  return square;
}

// The map that feeds `len` zero bytes (a power of two) through a raw CRC
// register.
constexpr Gf2Matrix ZerosOperator(std::size_t len) {
  Gf2Matrix op{};  // one zero bit
  op[0] = kPoly;
  for (int n = 1; n < 32; ++n) op[n] = 1u << (n - 1);
  for (int i = 0; i < 3; ++i) op = Gf2Square(op);  // one zero byte
  for (; len > 1; len >>= 1) op = Gf2Square(op);
  return op;
}

using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTable MakeShiftTable(std::size_t len) {
  const Gf2Matrix op = ZerosOperator(len);
  ShiftTable table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    for (int b = 0; b < 4; ++b) table[b][n] = Gf2Times(op, n << (8 * b));
  }
  return table;
}

[[maybe_unused]] constexpr ShiftTable kLongShift =
    MakeShiftTable(crc32_internal::kLongBlock);
[[maybe_unused]] constexpr ShiftTable kShortShift =
    MakeShiftTable(crc32_internal::kShortBlock);

[[maybe_unused]] inline std::uint32_t Shift(const ShiftTable& table,
                                            std::uint32_t crc) noexcept {
  return table[0][crc & 0xFF] ^ table[1][(crc >> 8) & 0xFF] ^
         table[2][(crc >> 16) & 0xFF] ^ table[3][crc >> 24];
}

#if defined(__x86_64__)

__attribute__((target("sse4.2"))) inline std::uint64_t Step(
    std::uint64_t crc, const std::uint8_t* at) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, at, sizeof(word));
  return _mm_crc32_u64(crc, word);
}

// Consumes 3 * kBlock bytes per round while at least that many remain.
template <std::size_t kBlock>
__attribute__((target("sse4.2"))) inline void Interleaved(
    const std::uint8_t*& next, std::size_t& len, std::uint64_t& crc0,
    const ShiftTable& shift) noexcept {
  while (len >= 3 * kBlock) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    const std::uint8_t* const end = next + kBlock;
    do {
      crc0 = Step(crc0, next);
      crc1 = Step(crc1, next + kBlock);
      crc2 = Step(crc2, next + 2 * kBlock);
      next += 8;
    } while (next < end);
    crc0 = Shift(shift, static_cast<std::uint32_t>(crc0)) ^ crc1;
    crc0 = Shift(shift, static_cast<std::uint32_t>(crc0)) ^ crc2;
    next += 2 * kBlock;
    len -= 3 * kBlock;
  }
}

#endif

using ExtendFn = std::uint32_t (*)(std::uint32_t, ByteSpan) noexcept;

ExtendFn ChooseExtend() noexcept {
  return crc32_internal::HardwareSupported() ? &crc32_internal::ExtendHardware
                                             : &crc32_internal::ExtendPortable;
}

}  // namespace

namespace crc32_internal {

std::uint32_t ExtendPortable(std::uint32_t crc, ByteSpan data) noexcept {
  crc = ~crc;
  for (const std::uint8_t byte : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xFF];
  }
  return ~crc;
}

#if defined(__x86_64__)

bool HardwareSupported() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) std::uint32_t ExtendHardware(
    std::uint32_t crc, ByteSpan data) noexcept {
  const std::uint8_t* next = data.data();
  std::size_t len = data.size();
  std::uint64_t crc0 = static_cast<std::uint32_t>(~crc);
  // Single bytes up to an 8-byte boundary, so the word loads are aligned.
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(next) & 7) != 0) {
    crc0 = _mm_crc32_u8(static_cast<std::uint32_t>(crc0), *next);
    ++next;
    --len;
  }
  Interleaved<kLongBlock>(next, len, crc0, kLongShift);
  Interleaved<kShortBlock>(next, len, crc0, kShortShift);
  for (; len >= 8; len -= 8, next += 8) crc0 = Step(crc0, next);
  for (; len > 0; --len, ++next) {
    crc0 = _mm_crc32_u8(static_cast<std::uint32_t>(crc0), *next);
  }
  return ~static_cast<std::uint32_t>(crc0);
}

#else

bool HardwareSupported() noexcept { return false; }

std::uint32_t ExtendHardware(std::uint32_t crc, ByteSpan data) noexcept {
  return ExtendPortable(crc, data);
}

#endif

}  // namespace crc32_internal

std::uint32_t Crc32cExtend(std::uint32_t crc, ByteSpan data) noexcept {
  // Chosen once, on first use (function-local, so a static initializer in
  // another file that checksums something still sees it set).
  static const ExtendFn extend = ChooseExtend();
  return extend(crc, data);
}

std::uint32_t Crc32c(ByteSpan data) noexcept { return Crc32cExtend(0, data); }

}  // namespace dpfs
