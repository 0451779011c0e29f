// Length-prefixed, checksummed message framing over a TcpSocket.
//
// Frame layout: [u32 payload_len][u32 crc32c(payload)][payload bytes].
// The CRC catches corruption that TCP's 16-bit checksum can miss on the
// long-haul heterogeneous links DPFS targets.
//
// A payload may be handed over as several parts (an envelope, then body
// fields, then bulk bytes where they already live): the CRC is extended
// over the parts and the header and parts leave in one gathered send, so
// no part is copied into a frame buffer. The bytes on the wire are those of
// the concatenated payload.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/bytes.h"
#include "common/status.h"
#include "net/messages.h"
#include "net/socket.h"

namespace dpfs::net {

/// Hard cap on a single frame; combined brick requests stay well below.
inline constexpr std::uint64_t kMaxFrameBytes = 1ull << 30;  // 1 GiB

/// Frames up to this size get their whole payload buffer when the header
/// arrives; larger ones start here and double as bytes arrive. The buffer is
/// not zero-filled, so pages no byte has reached yet cost no memory, and a
/// peer that announces a huge frame and stops pins at most this much.
inline constexpr std::size_t kEagerFrameBytes = 8u << 20;

/// Sends one frame whose payload is `parts` back to back, as one gathered
/// send of [header][parts...].
Status SendFrame(TcpSocket& socket, std::span<const ByteSpan> parts);
Status SendFrame(TcpSocket& socket, ByteSpan payload);

/// Sends `reply` as one frame: its envelope, then its body.
Status SendReply(TcpSocket& socket, const Reply& reply);

/// Appends one frame (header, then `parts`) to `out`; the bytes equal
/// SendFrame's.
Status AppendFrame(Bytes& out, std::span<const ByteSpan> parts);

/// Encodes one frame (header + payload) into a single contiguous buffer.
Result<Bytes> EncodeFrame(ByteSpan payload);

/// One received frame payload (RecvFrame). Its storage is not zero-filled:
/// recv overwrites every byte. Move-only.
class FrameBuffer {
 public:
  [[nodiscard]] ByteSpan bytes() const noexcept { return {data_.get(), size_}; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  friend Status RecvFrame(TcpSocket& socket, FrameBuffer& payload);

  std::unique_ptr<std::uint8_t[]> data_;
  std::size_t size_ = 0;
};

/// Receives one frame into `payload`, replacing what it held. kUnavailable
/// on clean peer close before any byte of a frame, kProtocolError on a close
/// mid-frame or an over-cap length, kDataLoss on checksum mismatch. Memory is
/// committed only as payload bytes arrive (see kEagerFrameBytes).
Status RecvFrame(TcpSocket& socket, FrameBuffer& payload);
/// The same, copied into a vector (tests, recording proxies).
Status RecvFrame(TcpSocket& socket, Bytes& payload);

/// Incremental frame decoder (the perfbench trace replayer): feed whatever
/// bytes arrive with Append(), pull complete payloads with Next().
/// Byte-at-a-time delivery, frames split at any boundary, and several frames
/// per Append all decode identically to RecvFrame
/// (tests/net/socket_frame_test.cpp pins this).
class FrameDecoder {
 public:
  /// Buffers `data` for decoding.
  void Append(ByteSpan data);

  /// Extracts the next complete frame into `payload`. Ok(true): one frame
  /// produced (call again — Append may have completed several). Ok(false):
  /// need more bytes. kProtocolError on an over-cap length, kDataLoss on a
  /// checksum mismatch; both poison the stream (no resynchronization), so
  /// the caller must drop the connection.
  Result<bool> Next(Bytes& payload);

  /// True when a frame is partially buffered — a peer close now is a
  /// mid-message truncation, not a clean boundary disconnect.
  [[nodiscard]] bool mid_frame() const noexcept {
    return buffer_.size() > consumed_;
  }
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  Bytes buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
};

}  // namespace dpfs::net
