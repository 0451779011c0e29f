#include "common/crc32.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/crc32_internal.h"
#include "common/rng.h"

namespace dpfs {
namespace {

// Bit-at-a-time CRC-32C straight from the definition: the reference both
// implementations are checked against.
std::uint32_t BitwiseCrc32c(ByteSpan data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32cTest, EmptyIsZero) { EXPECT_EQ(Crc32c({}), 0u); }

TEST(Crc32cTest, KnownVector) {
  // RFC 3720 test vector: CRC-32C of "123456789" is 0xE3069283.
  EXPECT_EQ(Crc32c(AsBytes("123456789")), 0xE3069283u);
}

TEST(Crc32cTest, AllZeros32Bytes) {
  // Another RFC 3720 vector: 32 bytes of zeros → 0x8A9136AA.
  const Bytes zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, Rfc3720AllOnes32Bytes) {
  const Bytes ones(32, 0xFF);
  EXPECT_EQ(BitwiseCrc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32cTest, Rfc3720IncreasingBytes) {
  Bytes data(32);
  std::iota(data.begin(), data.end(), std::uint8_t{0});
  EXPECT_EQ(BitwiseCrc32c(data), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(data), 0x46DD794Eu);
}

TEST(Crc32cTest, Rfc3720DecreasingBytes) {
  Bytes data(32);
  std::iota(data.rbegin(), data.rend(), std::uint8_t{0});
  EXPECT_EQ(BitwiseCrc32c(data), 0x113FDB5Cu);
  EXPECT_EQ(Crc32c(data), 0x113FDB5Cu);
}

TEST(Crc32cTest, TableMatchesBitwiseReference) {
  SplitMix64 rng(3720);
  Bytes data(4099);
  for (std::uint8_t& byte : data) {
    byte = static_cast<std::uint8_t>(rng.NextU64());
  }
  for (const std::size_t len : {0, 1, 7, 8, 9, 255, 256, 1000, 4099}) {
    const ByteSpan span = ByteSpan(data).first(len);
    EXPECT_EQ(crc32_internal::ExtendPortable(0, span), BitwiseCrc32c(span))
        << "length " << len;
  }
}

// The hardware path against the table path: every length through the
// three-stream long path plus 17 bytes, at each start offset mod 8 (the
// hardware path aligns its word loads first). The table CRC of each
// prefix is extended one byte at a time, so the sweep stays linear.
TEST(Crc32cTest, HardwareMatchesTableAtEveryLengthAndOffset) {
  if (!crc32_internal::HardwareSupported()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  constexpr std::size_t kMaxLen = 3 * crc32_internal::kLongBlock + 17;
  SplitMix64 rng(42);
  Bytes data(kMaxLen + 8);
  for (std::uint8_t& byte : data) {
    byte = static_cast<std::uint8_t>(rng.NextU64());
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const ByteSpan base = ByteSpan(data).subspan(offset, kMaxLen);
    std::uint32_t expected = 0;
    std::size_t mismatches = 0;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) {
        expected = crc32_internal::ExtendPortable(expected,
                                                  base.subspan(len - 1, 1));
      }
      if (crc32_internal::ExtendHardware(0, base.first(len)) != expected &&
          ++mismatches <= 5) {
        ADD_FAILURE() << "offset " << offset << " length " << len;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "offset " << offset;
  }
}

TEST(Crc32cTest, HardwareExtendMatchesTableAtRandomSplits) {
  if (!crc32_internal::HardwareSupported()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  SplitMix64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes data(rng.NextBelow(4 * 3 * crc32_internal::kLongBlock));
    for (std::uint8_t& byte : data) {
    byte = static_cast<std::uint8_t>(rng.NextU64());
  }
    const std::uint32_t whole = crc32_internal::ExtendPortable(0, data);
    // Split into random pieces; each piece starts at an arbitrary address.
    std::uint32_t hardware = 0;
    std::size_t at = 0;
    while (at < data.size()) {
      const std::size_t piece = std::min<std::size_t>(
          data.size() - at, rng.NextBelow(2 * 3 * crc32_internal::kShortBlock +
                                           3 * crc32_internal::kLongBlock));
      hardware = crc32_internal::ExtendHardware(
          hardware, ByteSpan(data).subspan(at, piece));
      at += piece;
    }
    ASSERT_EQ(hardware, whole) << "trial " << trial;
    EXPECT_EQ(Crc32c(data), whole);
  }
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t one_shot = Crc32c(AsBytes(data));
  std::uint32_t crc = 0;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    const std::size_t len = std::min<std::size_t>(7, data.size() - i);
    crc = Crc32cExtend(crc, AsBytes(data.data() + i, len));
  }
  EXPECT_EQ(crc, one_shot);
}

TEST(Crc32cTest, SingleBitFlipChangesCrc) {
  Bytes data(100, 0x5A);
  const std::uint32_t before = Crc32c(data);
  data[50] ^= 0x01;
  EXPECT_NE(Crc32c(data), before);
}

TEST(Crc32cTest, DifferentLengthsDiffer) {
  const Bytes a(10, 0);
  const Bytes b(11, 0);
  EXPECT_NE(Crc32c(a), Crc32c(b));
}

}  // namespace
}  // namespace dpfs
