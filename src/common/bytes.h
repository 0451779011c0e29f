// Byte-buffer and binary serialization primitives.
//
// Everything that crosses the DPFS wire protocol or lands in the metadata
// write-ahead log is encoded with BinaryWriter and decoded with BinaryReader.
// Encoding is explicit little-endian with varint-free fixed-width integers,
// so frames are position-independent and trivially seekable.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dpfs {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;
using MutableByteSpan = std::span<std::uint8_t>;

/// Views arbitrary contiguous memory as bytes.
inline ByteSpan AsBytes(const void* data, std::size_t size) noexcept {
  return {static_cast<const std::uint8_t*>(data), size};
}
inline ByteSpan AsBytes(std::string_view s) noexcept {
  return AsBytes(s.data(), s.size());
}
inline std::string_view AsStringView(ByteSpan bytes) noexcept {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}
/// An owned copy of a view.
inline Bytes ToBytes(ByteSpan bytes) {
  return Bytes(bytes.begin(), bytes.end());
}

/// Appends fixed-width little-endian values to a growable byte vector.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  explicit BinaryWriter(Bytes initial) : buffer_(std::move(initial)) {}

  void WriteU8(std::uint8_t v) { buffer_.push_back(v); }
  void WriteU16(std::uint16_t v) { WriteLittleEndian(v); }
  void WriteU32(std::uint32_t v) { WriteLittleEndian(v); }
  void WriteU64(std::uint64_t v) { WriteLittleEndian(v); }
  void WriteI32(std::int32_t v) { WriteLittleEndian(static_cast<std::uint32_t>(v)); }
  void WriteI64(std::int64_t v) { WriteLittleEndian(static_cast<std::uint64_t>(v)); }
  void WriteF64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte string.
  void WriteBytes(ByteSpan bytes) {
    WriteU32(static_cast<std::uint32_t>(bytes.size()));
    WriteRaw(bytes);
  }
  void WriteString(std::string_view s) { WriteBytes(AsBytes(s)); }

  /// Raw bytes, no length prefix.
  void WriteRaw(ByteSpan bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] const Bytes& buffer() const noexcept { return buffer_; }
  [[nodiscard]] Bytes TakeBuffer() && { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

  /// Overwrites 4 bytes at `offset` (for back-patching frame lengths).
  void PatchU32(std::size_t offset, std::uint32_t v);

 private:
  template <typename T>
  void WriteLittleEndian(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  Bytes buffer_;
};

/// Reads fixed-width little-endian values off a non-owning byte view.
/// All accessors are checked: reading past the end returns kProtocolError.
class BinaryReader {
 public:
  explicit BinaryReader(ByteSpan data) noexcept : data_(data) {}

  Result<std::uint8_t> ReadU8();
  Result<std::uint16_t> ReadU16();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  Result<std::int32_t> ReadI32();
  Result<std::int64_t> ReadI64();
  Result<double> ReadF64();
  Result<bool> ReadBool();

  /// Length-prefixed byte string; returns a view into the underlying buffer.
  Result<ByteSpan> ReadBytes();
  Result<std::string> ReadString();

  /// Raw bytes, exact count.
  Result<ByteSpan> ReadRaw(std::size_t count);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool AtEnd() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  template <typename T>
  Result<T> ReadLittleEndian() {
    if (remaining() < sizeof(T)) {
      return ProtocolError("binary reader: truncated input");
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }
  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace dpfs
