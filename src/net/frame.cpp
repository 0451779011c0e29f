#include "net/frame.h"

#include <array>
#include <cstring>

#include "common/crc32.h"

namespace dpfs::net {

namespace {

using FrameHeader = std::array<std::uint8_t, 8>;

// [u32 length][u32 crc32c] of the payload `parts` make up.
Result<FrameHeader> EncodeHeader(std::span<const ByteSpan> parts) {
  std::uint64_t length = 0;
  for (const ByteSpan part : parts) length += part.size();
  if (length > kMaxFrameBytes) {
    return InvalidArgumentError("frame exceeds maximum size");
  }
  std::uint32_t crc = 0;
  for (const ByteSpan part : parts) crc = Crc32cExtend(crc, part);
  BinaryWriter header;
  header.WriteU32(static_cast<std::uint32_t>(length));
  header.WriteU32(crc);
  FrameHeader out{};
  std::memcpy(out.data(), header.buffer().data(), out.size());
  return out;
}

}  // namespace

Status SendFrame(TcpSocket& socket, std::span<const ByteSpan> parts) {
  DPFS_ASSIGN_OR_RETURN(const FrameHeader header, EncodeHeader(parts));
  std::vector<ByteSpan> frame;
  frame.reserve(parts.size() + 1);
  frame.push_back(header);
  frame.insert(frame.end(), parts.begin(), parts.end());
  return socket.SendAll(frame);
}

Status SendFrame(TcpSocket& socket, ByteSpan payload) {
  return SendFrame(socket, std::span<const ByteSpan>(&payload, 1));
}

Status SendReply(TcpSocket& socket, const Reply& reply) {
  const Bytes envelope = EncodeReplyEnvelope(reply.status);
  const ByteSpan parts[] = {envelope, reply.body};
  return SendFrame(socket, parts);
}

Status AppendFrame(Bytes& out, std::span<const ByteSpan> parts) {
  DPFS_ASSIGN_OR_RETURN(const FrameHeader header, EncodeHeader(parts));
  std::size_t length = header.size();
  for (const ByteSpan part : parts) length += part.size();
  out.reserve(out.size() + length);
  out.insert(out.end(), header.begin(), header.end());
  for (const ByteSpan part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return Status::Ok();
}

Result<Bytes> EncodeFrame(ByteSpan payload) {
  Bytes frame;
  DPFS_RETURN_IF_ERROR(
      AppendFrame(frame, std::span<const ByteSpan>(&payload, 1)));
  return frame;
}

void FrameDecoder::Append(ByteSpan data) {
  // Reclaim the consumed prefix before growing: steady-state request
  // streams keep the buffer at roughly one frame.
  if (consumed_ > 0 && (consumed_ == buffer_.size() ||
                        consumed_ >= (64u << 10))) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

Result<bool> FrameDecoder::Next(Bytes& payload) {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 8) return false;
  BinaryReader reader(ByteSpan(buffer_).subspan(consumed_, 8));
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t length, reader.ReadU32());
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t crc, reader.ReadU32());
  if (length > kMaxFrameBytes) {
    return ProtocolError("frame length " + std::to_string(length) +
                         " exceeds maximum");
  }
  if (available < 8 + static_cast<std::size_t>(length)) return false;
  const ByteSpan body = ByteSpan(buffer_).subspan(consumed_ + 8, length);
  if (Crc32c(body) != crc) {
    return DataLossError("frame checksum mismatch");
  }
  payload.assign(body.begin(), body.end());
  consumed_ += 8 + static_cast<std::size_t>(length);
  return true;
}

Status RecvFrame(TcpSocket& socket, FrameBuffer& payload) {
  std::uint8_t header[8];
  DPFS_RETURN_IF_ERROR(socket.RecvExact({header, sizeof(header)}));
  BinaryReader reader(AsBytes(header, sizeof(header)));
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t length, reader.ReadU32());
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t crc, reader.ReadU32());
  if (length > kMaxFrameBytes) {
    return ProtocolError("frame length " + std::to_string(length) +
                         " exceeds maximum");
  }
  payload = FrameBuffer();  // release the previous frame first
  std::size_t capacity = std::min<std::size_t>(length, kEagerFrameBytes);
  payload.data_ = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
  while (payload.size_ < length) {
    if (payload.size_ == capacity) {
      capacity = std::min<std::size_t>(length, 2 * capacity);
      auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
      std::memcpy(grown.get(), payload.data_.get(), payload.size_);
      payload.data_ = std::move(grown);
    }
    const MutableByteSpan room(payload.data_.get() + payload.size_,
                               capacity - payload.size_);
    const Status received = socket.RecvExact(room);
    if (!received.ok()) {
      // The header is in, so a close from here on truncates the frame.
      if (received.code() == StatusCode::kUnavailable) {
        return ProtocolError("frame truncated: " + received.message());
      }
      return received;
    }
    payload.size_ += room.size();
  }
  if (Crc32c(payload.bytes()) != crc) {
    return DataLossError("frame checksum mismatch");
  }
  return Status::Ok();
}

Status RecvFrame(TcpSocket& socket, Bytes& payload) {
  FrameBuffer frame;
  DPFS_RETURN_IF_ERROR(RecvFrame(socket, frame));
  payload.assign(frame.bytes().begin(), frame.bytes().end());
  return Status::Ok();
}

}  // namespace dpfs::net
