// The DPFS client↔server wire protocol.
//
// Every message travels as one frame (frame.h). A request payload is
// [u8 MessageType][type-specific body]; a reply payload is
// [u8 StatusCode][string message][type-specific body].
//
// The server operates on *subfiles* — ordinary files in its local file
// system (§2: "the server ... uses the local file system API to actually
// perform I/O"). Brick placement and offsets are entirely client-side
// knowledge derived from metadata; the server just reads and writes
// (offset, length) fragments of named subfiles. A combined request (§4.2)
// is simply a fragment list with more than one entry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace dpfs::net {

enum class MessageType : std::uint8_t {
  kPing = 1,
  kRead = 2,
  kWrite = 3,
  kStat = 4,
  kDelete = 5,
  kTruncate = 6,
  kShutdown = 7,
  kStats = 8,    // server-wide statistics (fixed counter struct)
  kRename = 9,   // rename a subfile (body: old name string, new name string)
  kList = 10,    // list all subfiles (fsck support)
  kMetrics = 11, // full metrics text snapshot (docs/OBSERVABILITY.md)

  // Metadata-service opcodes (extension: dpfs-metad, docs/WIRE_PROTOCOL.md
  // "Metadata protocol"). Served only by the metadata server; an I/O server
  // answers them with kProtocolError. Body schemas are owned by the client
  // layer (client/meta_wire.h) because they are expressed in terms of
  // FileMeta/FileRecord; net stays ignorant of them.
  kMetaRegisterServer = 12,
  kMetaUnregisterServer = 13,
  kMetaListServers = 14,
  kMetaLookupServer = 15,
  kMetaCreateFile = 16,
  kMetaLookupFile = 17,
  kMetaUpdateSize = 18,
  kMetaSetPermission = 19,
  kMetaSetOwner = 20,
  kMetaDeleteFile = 21,
  kMetaFileExists = 22,
  kMetaRenameFile = 23,
  kMetaLogAccess = 24,
  kMetaSummarizeAccess = 25,
  kMetaClearAccessLog = 26,
  kMetaMakeDirectory = 27,
  kMetaRemoveDirectory = 28,
  kMetaDirectoryExists = 29,
  kMetaListDirectory = 30,

  // List-I/O opcodes (extension, docs/NONCONTIGUOUS_IO.md): one request
  // names many (offset, length) extents of a subfile — a noncontiguous
  // access in a single round trip, with one batched payload for writes.
  // Served by I/O servers; the metadata server refuses them.
  kListRead = 31,
  kListWrite = 32,
};

/// Highest valid MessageType value; DecodeRequest rejects anything above.
inline constexpr std::uint8_t kMaxMessageType =
    static_cast<std::uint8_t>(MessageType::kListWrite);

/// Last opcode of the contiguous kMeta* block. The metadata server serves
/// [kMetaRegisterServer, kMaxMetaMessageType] (plus ping/shutdown/metrics)
/// and refuses everything else as an I/O opcode.
inline constexpr std::uint8_t kMaxMetaMessageType =
    static_cast<std::uint8_t>(MessageType::kMetaListDirectory);

/// One entry of a kList reply.
struct SubfileInfo {
  std::string name;  // normalized ("/home/x/file")
  std::uint64_t size = 0;

  friend bool operator==(const SubfileInfo&, const SubfileInfo&) = default;
};

std::string_view MessageTypeName(MessageType type) noexcept;

/// Encodes a message body as parts for a gathered send (frame.h
/// SendFrame): fixed-width fields go into an owned buffer, and byte strings
/// of kGatherMinBytes or more are referenced where they live, not copied.
class GatherWriter {
 public:
  /// Shorter byte strings are copied: an iovec per few bytes costs more
  /// than the copy.
  static constexpr std::size_t kGatherMinBytes = 512;

  /// Fixed-width fields and short strings (copied).
  BinaryWriter& fields() noexcept { return fields_; }

  /// A length-prefixed byte string. A referenced string must outlive every
  /// use of Parts().
  void WriteBytes(ByteSpan bytes);

  /// The body so far, in order: views into this writer and the referenced
  /// strings.
  [[nodiscard]] std::vector<ByteSpan> Parts() const;

 private:
  struct Ref {
    std::size_t fields_end;  // fields_ bytes that precede `bytes`
    ByteSpan bytes;
  };
  BinaryWriter fields_;
  std::vector<Ref> refs_;
};

/// One contiguous piece of a subfile.
struct ReadFragment {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  friend bool operator==(const ReadFragment&, const ReadFragment&) = default;
};

struct ReadRequest {
  std::string subfile;
  std::vector<ReadFragment> fragments;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept;
  void Encode(BinaryWriter& writer) const;
  static Result<ReadRequest> Decode(BinaryReader& reader);
};

struct WriteFragment {
  std::uint64_t offset = 0;
  Bytes data;

  friend bool operator==(const WriteFragment&, const WriteFragment&) = default;
};

struct WriteRequest {
  std::string subfile;
  bool sync = false;  // fsync after writing
  std::vector<WriteFragment> fragments;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept;
  /// Fragment data is referenced, not copied (the client's send path).
  void Encode(GatherWriter& writer) const;
  /// The same bytes, flattened into one buffer.
  void Encode(BinaryWriter& writer) const;
  static Result<WriteRequest> Decode(BinaryReader& reader);
};

/// Noncontiguous list read: fetch every extent of `subfile` in order; the
/// reply body is the concatenated extent bytes (past-EOF bytes read back as
/// zeroes, like kRead). Decode enforces the docs/WIRE_PROTOCOL.md rejection
/// rules: at least one extent, no zero-length extents, offsets strictly
/// ascending and non-overlapping.
struct ListReadRequest {
  std::string subfile;
  std::vector<ReadFragment> extents;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept;
  void Encode(BinaryWriter& writer) const;
  static Result<ListReadRequest> Decode(BinaryReader& reader);
};

/// Noncontiguous list write: scatter one batched payload into the extents of
/// `subfile` in order. Same extent rules as ListReadRequest; additionally the
/// payload size must equal the sum of the extent lengths (count-mismatch
/// rejection, like meta_create_file's bricklist count).
struct ListWriteRequest {
  std::string subfile;
  bool sync = false;  // fsync after writing
  std::vector<ReadFragment> extents;
  Bytes data;  // batched payload, scattered in extent order

  [[nodiscard]] std::uint64_t total_bytes() const noexcept;
  /// The payload is referenced, not copied (the client's send path).
  void Encode(GatherWriter& writer) const;
  /// The same bytes, flattened into one buffer.
  void Encode(BinaryWriter& writer) const;
  static Result<ListWriteRequest> Decode(BinaryReader& reader);
};

struct StatReply {
  bool exists = false;
  std::uint64_t size = 0;
};

/// Server-wide counters returned by kStats.
struct StatsReply {
  std::uint64_t requests = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t sessions_accepted = 0;
  std::uint64_t errors = 0;
  std::uint64_t fd_cache_hits = 0;
  std::uint64_t fd_cache_misses = 0;
  std::uint64_t stored_bytes = 0;

  void Encode(BinaryWriter& writer) const;
  static Result<StatsReply> Decode(BinaryReader& reader);
};

/// A reply as a server handler returns it: the status and the body apart.
/// The envelope is encoded when the reply is framed, and the body follows
/// it without being copied behind it (frame.h SendReply).
struct Reply {
  Status status;
  Bytes body;
};

/// Envelope helpers.
Bytes EncodeRequest(MessageType type, ByteSpan body);
/// [u8 StatusCode][string message]: the reply payload up to its body.
Bytes EncodeReplyEnvelope(const Status& status);
/// The envelope and the body in one buffer.
Bytes EncodeReply(const Status& status, ByteSpan body);

struct DecodedRequest {
  MessageType type;
  ByteSpan body;  // view into the frame buffer
};
Result<DecodedRequest> DecodeRequest(ByteSpan payload);

struct DecodedReply {
  Status status;
  ByteSpan body;  // view into the frame buffer
};
Result<DecodedReply> DecodeReply(ByteSpan payload);

}  // namespace dpfs::net
