#include "net/connection.h"

#include <sys/socket.h>

#include <cerrno>

#include "common/failpoint.h"

namespace dpfs::net {

Result<Endpoint> Endpoint::Parse(std::string_view text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return InvalidArgumentError("endpoint '" + std::string(text) +
                                "' is not host:port");
  }
  Endpoint endpoint;
  endpoint.host = std::string(text.substr(0, colon));
  const std::string port_text(text.substr(colon + 1));
  int port = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') {
      return InvalidArgumentError("endpoint port '" + port_text +
                                  "' is not a number");
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      return InvalidArgumentError("endpoint port '" + port_text +
                                  "' is out of range");
    }
  }
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

Result<ServerConnection> ServerConnection::Connect(const Endpoint& endpoint) {
  DPFS_ASSIGN_OR_RETURN(TcpSocket socket,
                        TcpSocket::Connect(endpoint.host, endpoint.port));
  return ServerConnection(std::move(socket), endpoint);
}

bool ServerConnection::PeerClosed() const noexcept {
  char byte = 0;
  const ssize_t peeked =
      ::recv(socket_.fd(), &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (peeked == 0) return true;  // orderly FIN
  if (peeked < 0) return errno != EAGAIN && errno != EWOULDBLOCK;
  return false;  // unread bytes pending — the next Call will sort it out
}

Result<ReplyBody> ServerConnection::Call(MessageType type, ByteSpan body) {
  return CallGathered(type, std::span<const ByteSpan>(&body, 1));
}

Result<ReplyBody> ServerConnection::CallGathered(
    MessageType type, std::span<const ByteSpan> body) {
  DPFS_FAILPOINT_RETURN("client.call");
  // The request envelope is the opcode byte, sent ahead of the body parts.
  const std::uint8_t opcode = static_cast<std::uint8_t>(type);
  std::vector<ByteSpan> request;
  request.reserve(body.size() + 1);
  request.push_back({&opcode, 1});
  request.insert(request.end(), body.begin(), body.end());
  DPFS_RETURN_IF_ERROR(
      SendFrame(socket_, request)
          .WithContext("send " + std::string(MessageTypeName(type)) + " to " +
                       endpoint_.ToString()));
  FrameBuffer reply_frame;
  const Status received = RecvFrame(socket_, reply_frame);
  if (!received.ok()) {
    // Any reply-path transport failure — clean close, mid-frame close
    // (kProtocolError), or CRC mismatch (kDataLoss) — means the server or
    // the connection died under us. Surface all of them as kUnavailable so
    // the caller's retry policy treats a torn reply like a dead server: the
    // connection is abandoned and the (idempotent) request re-issued.
    const Status context = received.WithContext(
        "recv " + std::string(MessageTypeName(type)) + " reply from " +
        endpoint_.ToString());
    if (received.code() == StatusCode::kProtocolError ||
        received.code() == StatusCode::kDataLoss) {
      return UnavailableError(context.message());
    }
    return context;
  }
  DPFS_ASSIGN_OR_RETURN(const DecodedReply reply,
                        DecodeReply(reply_frame.bytes()));
  if (!reply.status.ok()) return reply.status;
  const std::size_t offset = reply_frame.size() - reply.body.size();
  return ReplyBody(std::move(reply_frame), offset);
}

Result<ReplyBody> ServerConnection::Read(
    const std::string& subfile, const std::vector<ReadFragment>& fragments) {
  ReadRequest request;
  request.subfile = subfile;
  request.fragments = fragments;
  BinaryWriter body;
  request.Encode(body);
  return Call(MessageType::kRead, body.buffer());
}

Status ServerConnection::Write(const std::string& subfile,
                               std::vector<WriteFragment> fragments,
                               bool sync) {
  WriteRequest request;
  request.subfile = subfile;
  request.sync = sync;
  request.fragments = std::move(fragments);
  GatherWriter body;
  request.Encode(body);
  return CallGathered(MessageType::kWrite, body.Parts()).status();
}

Result<ReplyBody> ServerConnection::ListRead(
    const std::string& subfile, const std::vector<ReadFragment>& extents) {
  ListReadRequest request;
  request.subfile = subfile;
  request.extents = extents;
  BinaryWriter body;
  request.Encode(body);
  return Call(MessageType::kListRead, body.buffer());
}

Status ServerConnection::ListWrite(const std::string& subfile,
                                   const std::vector<ReadFragment>& extents,
                                   Bytes data, bool sync) {
  ListWriteRequest request;
  request.subfile = subfile;
  request.sync = sync;
  request.extents = extents;
  request.data = std::move(data);
  GatherWriter body;
  request.Encode(body);
  return CallGathered(MessageType::kListWrite, body.Parts()).status();
}

Result<StatReply> ServerConnection::Stat(const std::string& subfile) {
  BinaryWriter body;
  body.WriteString(subfile);
  DPFS_ASSIGN_OR_RETURN(const ReplyBody reply,
                        Call(MessageType::kStat, body.buffer()));
  BinaryReader reader(reply.bytes());
  StatReply stat;
  DPFS_ASSIGN_OR_RETURN(stat.exists, reader.ReadBool());
  DPFS_ASSIGN_OR_RETURN(stat.size, reader.ReadU64());
  return stat;
}

Result<StatsReply> ServerConnection::Stats() {
  DPFS_ASSIGN_OR_RETURN(const ReplyBody reply, Call(MessageType::kStats, {}));
  BinaryReader reader(reply.bytes());
  return StatsReply::Decode(reader);
}

Result<std::string> ServerConnection::Metrics() {
  DPFS_ASSIGN_OR_RETURN(const ReplyBody reply, Call(MessageType::kMetrics, {}));
  BinaryReader reader(reply.bytes());
  return reader.ReadString();
}

Status ServerConnection::Delete(const std::string& subfile) {
  BinaryWriter body;
  body.WriteString(subfile);
  return Call(MessageType::kDelete, body.buffer()).status();
}

Status ServerConnection::Truncate(const std::string& subfile,
                                  std::uint64_t size) {
  BinaryWriter body;
  body.WriteString(subfile);
  body.WriteU64(size);
  return Call(MessageType::kTruncate, body.buffer()).status();
}

Status ServerConnection::Rename(const std::string& from,
                                const std::string& to) {
  BinaryWriter body;
  body.WriteString(from);
  body.WriteString(to);
  return Call(MessageType::kRename, body.buffer()).status();
}

Result<std::vector<SubfileInfo>> ServerConnection::List() {
  DPFS_ASSIGN_OR_RETURN(const ReplyBody reply, Call(MessageType::kList, {}));
  BinaryReader reader(reply.bytes());
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  std::vector<SubfileInfo> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    SubfileInfo info;
    DPFS_ASSIGN_OR_RETURN(info.name, reader.ReadString());
    DPFS_ASSIGN_OR_RETURN(info.size, reader.ReadU64());
    out.push_back(std::move(info));
  }
  return out;
}

Status ServerConnection::Ping() {
  return Call(MessageType::kPing, {}).status();
}

Status ServerConnection::Shutdown() {
  return Call(MessageType::kShutdown, {}).status();
}

}  // namespace dpfs::net
