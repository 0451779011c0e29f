#include "net/messages.h"

#include <gtest/gtest.h>

namespace dpfs::net {
namespace {

TEST(ReadRequestTest, EncodeDecodeRoundTrip) {
  ReadRequest request;
  request.subfile = "/home/x/data.dpfs";
  request.fragments = {{0, 1024}, {4096, 512}, {1 << 20, 64}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const ReadRequest decoded = ReadRequest::Decode(reader).value();
  EXPECT_EQ(decoded.subfile, request.subfile);
  EXPECT_EQ(decoded.fragments, request.fragments);
  EXPECT_EQ(decoded.total_bytes(), 1600u);
}

TEST(ReadRequestTest, EmptyFragments) {
  ReadRequest request;
  request.subfile = "f";
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const ReadRequest decoded = ReadRequest::Decode(reader).value();
  EXPECT_TRUE(decoded.fragments.empty());
  EXPECT_EQ(decoded.total_bytes(), 0u);
}

TEST(WriteRequestTest, EncodeDecodeRoundTrip) {
  WriteRequest request;
  request.subfile = "/a/b";
  request.sync = true;
  request.fragments.push_back({128, Bytes{1, 2, 3, 4}});
  request.fragments.push_back({0, Bytes{9}});
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const WriteRequest decoded = WriteRequest::Decode(reader).value();
  EXPECT_EQ(decoded.subfile, "/a/b");
  EXPECT_TRUE(decoded.sync);
  ASSERT_EQ(decoded.fragments.size(), 2u);
  EXPECT_EQ(decoded.fragments[0].offset, 128u);
  EXPECT_EQ(decoded.fragments[0].data, (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(decoded.total_bytes(), 5u);
}

TEST(WriteRequestTest, GatheredEncodeReferencesLongFragments) {
  // Fragments of GatherWriter::kGatherMinBytes or more go out from where
  // they live; shorter ones are copied into the fields. Either way the
  // parts concatenate to the flattened encoding.
  WriteRequest request;
  request.subfile = "/g";
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{10}, GatherWriter::kGatherMinBytes - 1,
        GatherWriter::kGatherMinBytes, std::size_t{70000}}) {
    request.fragments.push_back(
        {size * 3, Bytes(size, static_cast<std::uint8_t>(size))});
  }
  GatherWriter gathered;
  request.Encode(gathered);
  const std::vector<ByteSpan> parts = gathered.Parts();
  Bytes joined;
  std::size_t referenced = 0;
  for (const ByteSpan part : parts) {
    joined.insert(joined.end(), part.begin(), part.end());
    for (const WriteFragment& fragment : request.fragments) {
      if (!fragment.data.empty() && part.data() == fragment.data.data()) {
        ++referenced;
      }
    }
  }
  EXPECT_EQ(referenced, 2u);
  BinaryWriter flat;
  request.Encode(flat);
  EXPECT_EQ(joined, flat.buffer());
  BinaryReader reader(joined);
  EXPECT_EQ(WriteRequest::Decode(reader).value().fragments, request.fragments);
}

TEST(EnvelopeTest, ReplyEnvelopeThenBodyIsTheReply) {
  const Status status = NotFoundError("no such subfile");
  const Bytes body = {4, 5, 6};
  Bytes joined = EncodeReplyEnvelope(status);
  joined.insert(joined.end(), body.begin(), body.end());
  EXPECT_EQ(joined, EncodeReply(status, body));
}

TEST(EnvelopeTest, RequestRoundTrip) {
  const Bytes body = {10, 20, 30};
  const Bytes frame = EncodeRequest(MessageType::kRead, body);
  const DecodedRequest decoded = DecodeRequest(frame).value();
  EXPECT_EQ(decoded.type, MessageType::kRead);
  EXPECT_EQ(Bytes(decoded.body.begin(), decoded.body.end()), body);
}

TEST(EnvelopeTest, BadTypeRejected) {
  Bytes frame = {0x7F};
  EXPECT_FALSE(DecodeRequest(frame).ok());
  Bytes empty;
  EXPECT_FALSE(DecodeRequest(empty).ok());
}

TEST(EnvelopeTest, FirstTypePastTheRangeRejected) {
  // One past kMaxMessageType (currently kListWrite): keeps the
  // DecodeRequest range check honest when a new opcode is added (bump the
  // check, then extend this test).
  Bytes frame = {static_cast<std::uint8_t>(kMaxMessageType + 1)};
  EXPECT_FALSE(DecodeRequest(frame).ok());
  Bytes zero = {0};
  EXPECT_FALSE(DecodeRequest(zero).ok());
  // Every type up to the max decodes (the body is opaque at this layer).
  for (std::uint8_t type = 1; type <= kMaxMessageType; ++type) {
    Bytes in_range = {type};
    EXPECT_TRUE(DecodeRequest(in_range).ok()) << static_cast<int>(type);
  }
}

TEST(EnvelopeTest, OkReplyRoundTrip) {
  const Bytes body = {1, 2};
  const Bytes frame = EncodeReply(Status::Ok(), body);
  const DecodedReply decoded = DecodeReply(frame).value();
  EXPECT_TRUE(decoded.status.ok());
  EXPECT_EQ(Bytes(decoded.body.begin(), decoded.body.end()), body);
}

TEST(EnvelopeTest, ErrorReplyCarriesCodeAndMessage) {
  const Bytes frame = EncodeReply(NotFoundError("no subfile"), {});
  const DecodedReply decoded = DecodeReply(frame).value();
  EXPECT_EQ(decoded.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.status.message(), "no subfile");
}

TEST(EnvelopeTest, AllMessageTypesDecodable) {
  for (const MessageType type :
       {MessageType::kPing, MessageType::kRead, MessageType::kWrite,
        MessageType::kStat, MessageType::kDelete, MessageType::kTruncate,
        MessageType::kShutdown, MessageType::kStats, MessageType::kRename,
        MessageType::kList, MessageType::kMetrics, MessageType::kListRead,
        MessageType::kListWrite}) {
    const Bytes frame = EncodeRequest(type, {});
    EXPECT_EQ(DecodeRequest(frame).value().type, type);
    EXPECT_NE(MessageTypeName(type), "unknown");
  }
}

// --- list I/O (docs/WIRE_PROTOCOL.md "List I/O") ---------------------------

TEST(ListReadRequestTest, EncodeDecodeRoundTrip) {
  ListReadRequest request;
  request.subfile = "/home/x/data.dpfs";
  request.extents = {{0, 16}, {64, 8}, {4096, 128}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const ListReadRequest decoded = ListReadRequest::Decode(reader).value();
  EXPECT_EQ(decoded.subfile, request.subfile);
  EXPECT_EQ(decoded.extents, request.extents);
  EXPECT_EQ(decoded.total_bytes(), 152u);
}

TEST(ListReadRequestTest, AdjacentExtentsAccepted) {
  // Adjacent (touching) extents are legal — only overlap is rejected.
  ListReadRequest request;
  request.subfile = "f";
  request.extents = {{0, 8}, {8, 8}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(ListReadRequest::Decode(reader).ok());
}

TEST(ListReadRequestTest, RejectsEmptyExtentList) {
  ListReadRequest request;
  request.subfile = "f";
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(ListReadRequest::Decode(reader).status().code(),
            StatusCode::kProtocolError);
}

TEST(ListReadRequestTest, RejectsZeroLengthExtent) {
  ListReadRequest request;
  request.subfile = "f";
  request.extents = {{0, 8}, {32, 0}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListReadRequest::Decode(reader).ok());
}

TEST(ListReadRequestTest, RejectsOverlappingExtents) {
  ListReadRequest request;
  request.subfile = "f";
  request.extents = {{0, 16}, {8, 16}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListReadRequest::Decode(reader).ok());
}

TEST(ListReadRequestTest, RejectsDescendingExtents) {
  ListReadRequest request;
  request.subfile = "f";
  request.extents = {{64, 8}, {0, 8}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListReadRequest::Decode(reader).ok());
}

TEST(ListReadRequestTest, RejectsExtentOverflowingOffsetSpace) {
  ListReadRequest request;
  request.subfile = "f";
  request.extents = {{~std::uint64_t{0} - 4, 8}};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListReadRequest::Decode(reader).ok());
}

TEST(ListReadRequestTest, RejectsLyingCountBeforeAllocating) {
  // A count claiming far more extents than the body holds must fail the
  // remaining-bytes check, not attempt a giant reserve.
  BinaryWriter writer;
  writer.WriteString("f");
  writer.WriteU32(0xFFFFFFFFu);
  writer.WriteU64(0);  // one extent's worth of bytes, not 4 billion
  writer.WriteU64(8);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListReadRequest::Decode(reader).ok());
}

TEST(ListReadRequestTest, RejectsTruncatedExtentList) {
  ListReadRequest request;
  request.subfile = "f";
  request.extents = {{0, 8}, {16, 8}};
  BinaryWriter writer;
  request.Encode(writer);
  const ByteSpan whole(writer.buffer());
  BinaryReader reader(whole.subspan(0, whole.size() - 5));
  EXPECT_FALSE(ListReadRequest::Decode(reader).ok());
}

TEST(ListWriteRequestTest, EncodeDecodeRoundTrip) {
  ListWriteRequest request;
  request.subfile = "/a/b";
  request.sync = true;
  request.extents = {{128, 4}, {256, 2}};
  request.data = {1, 2, 3, 4, 9, 8};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  const ListWriteRequest decoded = ListWriteRequest::Decode(reader).value();
  EXPECT_EQ(decoded.subfile, "/a/b");
  EXPECT_TRUE(decoded.sync);
  EXPECT_EQ(decoded.extents, request.extents);
  EXPECT_EQ(decoded.data, request.data);
  EXPECT_EQ(decoded.total_bytes(), 6u);
}

TEST(ListWriteRequestTest, RejectsPayloadShorterThanExtentSum) {
  ListWriteRequest request;
  request.subfile = "f";
  request.extents = {{0, 8}};
  request.data = {1, 2, 3};  // 3 bytes for 8 bytes of extents
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(ListWriteRequest::Decode(reader).status().code(),
            StatusCode::kProtocolError);
}

TEST(ListWriteRequestTest, RejectsPayloadLongerThanExtentSum) {
  ListWriteRequest request;
  request.subfile = "f";
  request.extents = {{0, 2}};
  request.data = {1, 2, 3};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListWriteRequest::Decode(reader).ok());
}

TEST(ListWriteRequestTest, RejectsOverlappingExtents) {
  ListWriteRequest request;
  request.subfile = "f";
  request.extents = {{0, 4}, {2, 4}};
  request.data = {1, 2, 3, 4, 5, 6, 7, 8};
  BinaryWriter writer;
  request.Encode(writer);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(ListWriteRequest::Decode(reader).ok());
}

}  // namespace
}  // namespace dpfs::net
