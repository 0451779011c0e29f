#include "net/messages.h"

namespace dpfs::net {

void GatherWriter::WriteBytes(ByteSpan bytes) {
  if (bytes.size() < kGatherMinBytes) {
    fields_.WriteBytes(bytes);
    return;
  }
  fields_.WriteU32(static_cast<std::uint32_t>(bytes.size()));
  refs_.push_back({fields_.size(), bytes});
}

std::vector<ByteSpan> GatherWriter::Parts() const {
  const ByteSpan fields = fields_.buffer();
  std::vector<ByteSpan> parts;
  parts.reserve(2 * refs_.size() + 1);
  std::size_t begin = 0;
  for (const Ref& ref : refs_) {
    if (ref.fields_end > begin) {
      parts.push_back(fields.subspan(begin, ref.fields_end - begin));
    }
    parts.push_back(ref.bytes);
    begin = ref.fields_end;
  }
  if (fields.size() > begin) parts.push_back(fields.subspan(begin));
  return parts;
}

std::string_view MessageTypeName(MessageType type) noexcept {
  switch (type) {
    case MessageType::kPing: return "ping";
    case MessageType::kRead: return "read";
    case MessageType::kWrite: return "write";
    case MessageType::kStat: return "stat";
    case MessageType::kDelete: return "delete";
    case MessageType::kTruncate: return "truncate";
    case MessageType::kShutdown: return "shutdown";
    case MessageType::kStats: return "stats";
    case MessageType::kRename: return "rename";
    case MessageType::kList: return "list";
    case MessageType::kMetrics: return "metrics";
    case MessageType::kMetaRegisterServer: return "meta_register_server";
    case MessageType::kMetaUnregisterServer: return "meta_unregister_server";
    case MessageType::kMetaListServers: return "meta_list_servers";
    case MessageType::kMetaLookupServer: return "meta_lookup_server";
    case MessageType::kMetaCreateFile: return "meta_create_file";
    case MessageType::kMetaLookupFile: return "meta_lookup_file";
    case MessageType::kMetaUpdateSize: return "meta_update_size";
    case MessageType::kMetaSetPermission: return "meta_set_permission";
    case MessageType::kMetaSetOwner: return "meta_set_owner";
    case MessageType::kMetaDeleteFile: return "meta_delete_file";
    case MessageType::kMetaFileExists: return "meta_file_exists";
    case MessageType::kMetaRenameFile: return "meta_rename_file";
    case MessageType::kMetaLogAccess: return "meta_log_access";
    case MessageType::kMetaSummarizeAccess: return "meta_summarize_access";
    case MessageType::kMetaClearAccessLog: return "meta_clear_access_log";
    case MessageType::kMetaMakeDirectory: return "meta_make_directory";
    case MessageType::kMetaRemoveDirectory: return "meta_remove_directory";
    case MessageType::kMetaDirectoryExists: return "meta_directory_exists";
    case MessageType::kMetaListDirectory: return "meta_list_directory";
    case MessageType::kListRead: return "list_read";
    case MessageType::kListWrite: return "list_write";
  }
  return "unknown";
}

void StatsReply::Encode(BinaryWriter& writer) const {
  writer.WriteU64(requests);
  writer.WriteU64(bytes_read);
  writer.WriteU64(bytes_written);
  writer.WriteU64(sessions_accepted);
  writer.WriteU64(errors);
  writer.WriteU64(fd_cache_hits);
  writer.WriteU64(fd_cache_misses);
  writer.WriteU64(stored_bytes);
}

Result<StatsReply> StatsReply::Decode(BinaryReader& reader) {
  StatsReply stats;
  DPFS_ASSIGN_OR_RETURN(stats.requests, reader.ReadU64());
  DPFS_ASSIGN_OR_RETURN(stats.bytes_read, reader.ReadU64());
  DPFS_ASSIGN_OR_RETURN(stats.bytes_written, reader.ReadU64());
  DPFS_ASSIGN_OR_RETURN(stats.sessions_accepted, reader.ReadU64());
  DPFS_ASSIGN_OR_RETURN(stats.errors, reader.ReadU64());
  DPFS_ASSIGN_OR_RETURN(stats.fd_cache_hits, reader.ReadU64());
  DPFS_ASSIGN_OR_RETURN(stats.fd_cache_misses, reader.ReadU64());
  DPFS_ASSIGN_OR_RETURN(stats.stored_bytes, reader.ReadU64());
  return stats;
}

std::uint64_t ReadRequest::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ReadFragment& fragment : fragments) total += fragment.length;
  return total;
}

void ReadRequest::Encode(BinaryWriter& writer) const {
  writer.WriteString(subfile);
  writer.WriteU32(static_cast<std::uint32_t>(fragments.size()));
  for (const ReadFragment& fragment : fragments) {
    writer.WriteU64(fragment.offset);
    writer.WriteU64(fragment.length);
  }
}

Result<ReadRequest> ReadRequest::Decode(BinaryReader& reader) {
  ReadRequest request;
  DPFS_ASSIGN_OR_RETURN(request.subfile, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  request.fragments.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ReadFragment fragment;
    DPFS_ASSIGN_OR_RETURN(fragment.offset, reader.ReadU64());
    DPFS_ASSIGN_OR_RETURN(fragment.length, reader.ReadU64());
    request.fragments.push_back(fragment);
  }
  return request;
}

std::uint64_t WriteRequest::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const WriteFragment& fragment : fragments) total += fragment.data.size();
  return total;
}

void WriteRequest::Encode(GatherWriter& writer) const {
  writer.fields().WriteString(subfile);
  writer.fields().WriteBool(sync);
  writer.fields().WriteU32(static_cast<std::uint32_t>(fragments.size()));
  for (const WriteFragment& fragment : fragments) {
    writer.fields().WriteU64(fragment.offset);
    writer.WriteBytes(fragment.data);
  }
}

void WriteRequest::Encode(BinaryWriter& writer) const {
  GatherWriter gathered;
  Encode(gathered);
  for (const ByteSpan part : gathered.Parts()) writer.WriteRaw(part);
}

Result<WriteRequest> WriteRequest::Decode(BinaryReader& reader) {
  WriteRequest request;
  DPFS_ASSIGN_OR_RETURN(request.subfile, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(request.sync, reader.ReadBool());
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  request.fragments.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WriteFragment fragment;
    DPFS_ASSIGN_OR_RETURN(fragment.offset, reader.ReadU64());
    DPFS_ASSIGN_OR_RETURN(const ByteSpan data, reader.ReadBytes());
    fragment.data.assign(data.begin(), data.end());
    request.fragments.push_back(std::move(fragment));
  }
  return request;
}

namespace {

void EncodeListExtents(BinaryWriter& writer,
                       const std::vector<ReadFragment>& extents) {
  writer.WriteU32(static_cast<std::uint32_t>(extents.size()));
  for (const ReadFragment& extent : extents) {
    writer.WriteU64(extent.offset);
    writer.WriteU64(extent.length);
  }
}

/// Shared decode + rejection rules for both list opcodes
/// (docs/WIRE_PROTOCOL.md "List I/O"): at least one extent, every extent
/// non-empty and non-overflowing, offsets strictly ascending with no
/// overlap. The count is checked against the remaining body before any
/// allocation, so a truncated or lying header cannot reserve gigabytes.
Result<std::vector<ReadFragment>> DecodeListExtents(BinaryReader& reader) {
  DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32());
  if (count == 0) {
    return ProtocolError("list request carries no extents");
  }
  if (count > reader.remaining() / 16) {
    return ProtocolError("list extent count " + std::to_string(count) +
                         " exceeds the request body");
  }
  std::vector<ReadFragment> extents;
  extents.reserve(count);
  std::uint64_t prev_end = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    ReadFragment extent;
    DPFS_ASSIGN_OR_RETURN(extent.offset, reader.ReadU64());
    DPFS_ASSIGN_OR_RETURN(extent.length, reader.ReadU64());
    if (extent.length == 0) {
      return ProtocolError("list extent has zero length");
    }
    if (extent.length > ~std::uint64_t{0} - extent.offset) {
      return ProtocolError("list extent overflows the subfile offset space");
    }
    if (i > 0 && extent.offset < prev_end) {
      return ProtocolError(
          "list extents must be ascending and non-overlapping");
    }
    prev_end = extent.offset + extent.length;
    extents.push_back(extent);
  }
  return extents;
}

}  // namespace

std::uint64_t ListReadRequest::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ReadFragment& extent : extents) total += extent.length;
  return total;
}

void ListReadRequest::Encode(BinaryWriter& writer) const {
  writer.WriteString(subfile);
  EncodeListExtents(writer, extents);
}

Result<ListReadRequest> ListReadRequest::Decode(BinaryReader& reader) {
  ListReadRequest request;
  DPFS_ASSIGN_OR_RETURN(request.subfile, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(request.extents, DecodeListExtents(reader));
  return request;
}

std::uint64_t ListWriteRequest::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ReadFragment& extent : extents) total += extent.length;
  return total;
}

void ListWriteRequest::Encode(GatherWriter& writer) const {
  writer.fields().WriteString(subfile);
  writer.fields().WriteBool(sync);
  EncodeListExtents(writer.fields(), extents);
  writer.WriteBytes(data);
}

void ListWriteRequest::Encode(BinaryWriter& writer) const {
  GatherWriter gathered;
  Encode(gathered);
  for (const ByteSpan part : gathered.Parts()) writer.WriteRaw(part);
}

Result<ListWriteRequest> ListWriteRequest::Decode(BinaryReader& reader) {
  ListWriteRequest request;
  DPFS_ASSIGN_OR_RETURN(request.subfile, reader.ReadString());
  DPFS_ASSIGN_OR_RETURN(request.sync, reader.ReadBool());
  DPFS_ASSIGN_OR_RETURN(request.extents, DecodeListExtents(reader));
  DPFS_ASSIGN_OR_RETURN(const ByteSpan payload, reader.ReadBytes());
  const std::uint64_t expected = request.total_bytes();
  if (payload.size() != expected) {
    return ProtocolError("list write payload carries " +
                         std::to_string(payload.size()) + " bytes for " +
                         std::to_string(expected) + " bytes of extents");
  }
  request.data.assign(payload.begin(), payload.end());
  return request;
}

Bytes EncodeRequest(MessageType type, ByteSpan body) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(type));
  writer.WriteRaw(body);
  return std::move(writer).TakeBuffer();
}

Bytes EncodeReplyEnvelope(const Status& status) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(status.code()));
  writer.WriteString(status.message());
  return std::move(writer).TakeBuffer();
}

Bytes EncodeReply(const Status& status, ByteSpan body) {
  BinaryWriter writer(EncodeReplyEnvelope(status));
  writer.WriteRaw(body);
  return std::move(writer).TakeBuffer();
}

Result<DecodedRequest> DecodeRequest(ByteSpan payload) {
  BinaryReader reader(payload);
  DPFS_ASSIGN_OR_RETURN(const std::uint8_t type, reader.ReadU8());
  if (type < 1 || type > kMaxMessageType) {
    return ProtocolError("bad message type " + std::to_string(type));
  }
  return DecodedRequest{static_cast<MessageType>(type),
                        payload.subspan(reader.position())};
}

Result<DecodedReply> DecodeReply(ByteSpan payload) {
  BinaryReader reader(payload);
  DPFS_ASSIGN_OR_RETURN(const std::uint8_t code, reader.ReadU8());
  DPFS_ASSIGN_OR_RETURN(std::string message, reader.ReadString());
  return DecodedReply{Status(static_cast<StatusCode>(code), std::move(message)),
                      payload.subspan(reader.position())};
}

}  // namespace dpfs::net
