// Real loopback TCP: sockets, framing, CRC detection.
#include <fcntl.h>
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "common/failpoint.h"
#include "net/connection.h"
#include "net/frame.h"
#include "net/socket.h"

namespace dpfs::net {
namespace {

// Peak resident set size of this process (VmHWM), in KiB.
std::uint64_t PeakRssKiB() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 10, '\n');
  }
  return 0;
}

TEST(SocketTest, ConnectToListener) {
  TcpListener listener = TcpListener::Bind(0).value();
  EXPECT_GT(listener.port(), 0u);

  std::thread server([&listener] {
    const Result<TcpSocket> accepted = listener.Accept();
    EXPECT_TRUE(accepted.ok());
  });
  const Result<TcpSocket> client =
      TcpSocket::Connect("127.0.0.1", listener.port());
  EXPECT_TRUE(client.ok());
  server.join();
}

TEST(SocketTest, ConnectToClosedPortFails) {
  // Bind then immediately close to get a (very likely) dead port.
  std::uint16_t port = 0;
  {
    TcpListener listener = TcpListener::Bind(0).value();
    port = listener.port();
  }
  const Result<TcpSocket> client = TcpSocket::Connect("127.0.0.1", port);
  EXPECT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
}

TEST(SocketTest, SendAllRecvExactRoundTrip) {
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread server([&listener] {
    TcpSocket conn = listener.Accept().value();
    Bytes buf(1 << 20);
    ASSERT_TRUE(conn.RecvExact({buf.data(), buf.size()}).ok());
    // Echo back.
    ASSERT_TRUE(conn.SendAll(buf).ok());
  });

  TcpSocket client = TcpSocket::Connect("localhost", listener.port()).value();
  Bytes data(1 << 20);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  ASSERT_TRUE(client.SendAll(data).ok());
  Bytes echoed(data.size());
  ASSERT_TRUE(client.RecvExact({echoed.data(), echoed.size()}).ok());
  EXPECT_EQ(echoed, data);
  server.join();
}

TEST(SocketTest, CleanPeerCloseIsUnavailable) {
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread server([&listener] {
    TcpSocket conn = listener.Accept().value();
    conn.Close();
  });
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  Bytes buf(16);
  const Status received = client.RecvExact({buf.data(), buf.size()});
  EXPECT_FALSE(received.ok());
  EXPECT_EQ(received.code(), StatusCode::kUnavailable);
  server.join();
}

TEST(FrameTest, RoundTripSmallAndLarge) {
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread server([&listener] {
    TcpSocket conn = listener.Accept().value();
    for (int i = 0; i < 3; ++i) {
      Bytes payload;
      ASSERT_TRUE(RecvFrame(conn, payload).ok());
      ASSERT_TRUE(SendFrame(conn, payload).ok());  // echo
    }
  });

  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  for (const std::size_t size : {std::size_t{0}, std::size_t{17},
                                 std::size_t{3 << 20}}) {
    Bytes payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::uint8_t>(i);
    }
    ASSERT_TRUE(SendFrame(client, payload).ok());
    Bytes echoed;
    ASSERT_TRUE(RecvFrame(client, echoed).ok());
    EXPECT_EQ(echoed, payload);
  }
  server.join();
}

TEST(FrameTest, CorruptedPayloadDetected) {
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread server([&listener] {
    TcpSocket conn = listener.Accept().value();
    // Hand-craft a frame with a wrong CRC.
    BinaryWriter writer;
    writer.WriteU32(4);
    writer.WriteU32(0xBAD0BAD0);  // wrong checksum
    writer.WriteRaw(AsBytes("abcd"));
    ASSERT_TRUE(conn.SendAll(writer.buffer()).ok());
  });
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  Bytes payload;
  const Status received = RecvFrame(client, payload);
  EXPECT_FALSE(received.ok());
  EXPECT_EQ(received.code(), StatusCode::kDataLoss);
  server.join();
}

TEST(FrameTest, OversizeFrameRejectedOnSendAndRecv) {
  // Send side refuses without touching the socket.
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread server([&listener] {
    TcpSocket conn = listener.Accept().value();
    // Claim an absurd length; the receiver must bail before allocating.
    BinaryWriter writer;
    writer.WriteU32(0xFFFFFFFF);
    writer.WriteU32(0);
    ASSERT_TRUE(conn.SendAll(writer.buffer()).ok());
  });
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  Bytes payload;
  const Status received = RecvFrame(client, payload);
  EXPECT_FALSE(received.ok());
  EXPECT_EQ(received.code(), StatusCode::kProtocolError);
  server.join();
}

TEST(FrameTest, AnnouncedFrameCommitsMemoryOnlyAsBytesArrive) {
  // A peer announces a 256 MiB frame, sends none of it and closes. The
  // receiver must fail without committing memory for the announced size.
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread peer([&listener] {
    TcpSocket conn = listener.Accept().value();
    BinaryWriter writer;
    writer.WriteU32(256u << 20);
    writer.WriteU32(0);
    ASSERT_TRUE(conn.SendAll(writer.buffer()).ok());
    conn.Close();
  });
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  const std::uint64_t before = PeakRssKiB();
  Bytes payload;
  const Status received = RecvFrame(client, payload);
  const std::uint64_t after = PeakRssKiB();
  peer.join();
  EXPECT_FALSE(received.ok());
  ASSERT_GT(before, 0u) << "VmHWM missing from /proc/self/status";
  EXPECT_LT(after - before, 16u << 10) << "KiB of peak RSS added";
}

TEST(FrameTest, FrameLargerThanTheEagerBufferRoundTrips) {
  // Past kEagerFrameBytes the receive buffer grows as bytes arrive.
  TcpListener listener = TcpListener::Bind(0).value();
  const std::size_t size = 2 * kEagerFrameBytes + 17;
  Bytes payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + (i >> 13));
  }
  std::thread peer([&listener, &payload] {
    TcpSocket conn = listener.Accept().value();
    ASSERT_TRUE(SendFrame(conn, payload).ok());
  });
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  FrameBuffer received;
  ASSERT_TRUE(RecvFrame(client, received).ok());
  peer.join();
  EXPECT_EQ(ToBytes(received.bytes()), payload);
}

TEST(FrameTest, GatheredPartsEqualTheConcatenatedFrame) {
  // SendFrame over parts (empty ones included) puts the same bytes on the
  // wire as EncodeFrame of their concatenation.
  const Bytes a(3, 0xA1);
  const Bytes b(70000, 0xB2);
  const Bytes c(1, 0xC3);
  Bytes whole;
  for (const Bytes* part : {&a, &b, &c}) {
    whole.insert(whole.end(), part->begin(), part->end());
  }
  const Bytes expected = EncodeFrame(whole).value();
  const ByteSpan parts[] = {a, {}, b, c, {}};
  Bytes appended = {0xEE};
  ASSERT_TRUE(AppendFrame(appended, parts).ok());
  EXPECT_EQ(Bytes(appended.begin() + 1, appended.end()), expected);

  TcpListener listener = TcpListener::Bind(0).value();
  std::thread peer([&listener, &parts] {
    TcpSocket conn = listener.Accept().value();
    ASSERT_TRUE(SendFrame(conn, parts).ok());
  });
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  Bytes wire(expected.size());
  ASSERT_TRUE(client.RecvExact({wire.data(), wire.size()}).ok());
  peer.join();
  EXPECT_EQ(wire, expected);
}

TEST(SocketTest, SendAllCoversMorePartsThanOneSendmsgTakes) {
  // 300 parts: several sendmsg calls, each resuming mid-list.
  std::vector<Bytes> pieces;
  Bytes whole;
  for (int i = 0; i < 300; ++i) {
    pieces.emplace_back(static_cast<std::size_t>(1 + (i * 37) % 900),
                        static_cast<std::uint8_t>(i));
    whole.insert(whole.end(), pieces.back().begin(), pieces.back().end());
  }
  std::vector<ByteSpan> parts(pieces.begin(), pieces.end());
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread peer([&listener, &parts] {
    TcpSocket conn = listener.Accept().value();
    ASSERT_TRUE(conn.SendAll(parts).ok());
  });
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  Bytes received(whole.size());
  ASSERT_TRUE(client.RecvExact({received.data(), received.size()}).ok());
  peer.join();
  EXPECT_EQ(received, whole);
}

TEST(ListenerTest, CloseUnblocksAccept) {
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread acceptor([&listener] {
    const Result<TcpSocket> accepted = listener.Accept();
    EXPECT_FALSE(accepted.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  listener.Close();
  acceptor.join();
}

TEST(EndpointTest, ToStringFormat) {
  const Endpoint endpoint{"127.0.0.1", 9090};
  EXPECT_EQ(endpoint.ToString(), "127.0.0.1:9090");
}

// ---------------------------------------------------------------------------
// Incremental decoding (FrameDecoder) — must match RecvFrame byte for byte
// no matter how the stream is sliced.

Bytes TestFrame(std::size_t size, std::uint8_t seed) {
  Bytes payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>(seed + i);
  }
  return EncodeFrame(payload).value();
}

TEST(FrameDecoderTest, ByteAtATimeProducesIdenticalPayloads) {
  const Bytes payload = {1, 2, 3, 4, 5};
  const Bytes frame = EncodeFrame(payload).value();
  FrameDecoder decoder;
  Bytes out;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Append({&frame[i], 1});
    EXPECT_FALSE(decoder.Next(out).value());
    EXPECT_TRUE(decoder.mid_frame());
  }
  decoder.Append({&frame.back(), 1});
  ASSERT_TRUE(decoder.Next(out).value());
  EXPECT_EQ(out, payload);
  EXPECT_FALSE(decoder.mid_frame());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, SeveralFramesInOneAppend) {
  Bytes wire = TestFrame(10, 1);
  const Bytes second = TestFrame(0, 0);
  const Bytes third = TestFrame(100, 7);
  wire.insert(wire.end(), second.begin(), second.end());
  wire.insert(wire.end(), third.begin(), third.end());

  FrameDecoder decoder;
  decoder.Append(wire);
  Bytes out;
  ASSERT_TRUE(decoder.Next(out).value());
  EXPECT_EQ(out.size(), 10u);
  ASSERT_TRUE(decoder.Next(out).value());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(decoder.Next(out).value());
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(out[0], 7);
  EXPECT_FALSE(decoder.Next(out).value());
}

TEST(FrameDecoderTest, ChecksumMismatchIsDataLoss) {
  Bytes frame = TestFrame(16, 3);
  frame.back() ^= 0xFF;  // corrupt the payload, keep the length
  FrameDecoder decoder;
  decoder.Append(frame);
  Bytes out;
  const Result<bool> next = decoder.Next(out);
  EXPECT_EQ(next.status().code(), StatusCode::kDataLoss);
}

TEST(FrameDecoderTest, OversizeLengthIsProtocolError) {
  BinaryWriter writer;
  writer.WriteU32(0xFFFFFFFF);
  writer.WriteU32(0);
  FrameDecoder decoder;
  decoder.Append(writer.buffer());
  Bytes out;
  const Result<bool> next = decoder.Next(out);
  EXPECT_EQ(next.status().code(), StatusCode::kProtocolError);
}

TEST(FrameDecoderTest, SteadyStateCompactionKeepsDecoding) {
  // Enough traffic to trigger the consumed-prefix compaction repeatedly.
  FrameDecoder decoder;
  Bytes out;
  for (int i = 0; i < 200; ++i) {
    const Bytes frame = TestFrame(1024, static_cast<std::uint8_t>(i));
    decoder.Append(frame);
    ASSERT_TRUE(decoder.Next(out).value());
    ASSERT_EQ(out.size(), 1024u);
    ASSERT_EQ(out[0], static_cast<std::uint8_t>(i));
  }
}

// ---------------------------------------------------------------------------
// RecvSome on a nonblocking socket, and its failpoint.

TEST(NonBlockingSocketTest, RecvSomeWouldBlockThenDelivers) {
  TcpListener listener = TcpListener::Bind(0).value();
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  TcpSocket served = listener.Accept().value();
  ASSERT_EQ(::fcntl(served.fd(), F_SETFL,
                    ::fcntl(served.fd(), F_GETFL, 0) | O_NONBLOCK),
            0);

  std::uint8_t buf[64];
  // Nothing sent yet: would-block, not an error, not a close.
  Result<TcpSocket::SomeIo> got = served.RecvSome({buf, sizeof(buf)});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().bytes, 0u);
  EXPECT_FALSE(got.value().closed);

  ASSERT_TRUE(client.SendAll(Bytes{1, 2, 3}).ok());
  for (int i = 0; i < 200; ++i) {
    got = served.RecvSome({buf, sizeof(buf)});
    ASSERT_TRUE(got.ok());
    if (got.value().bytes > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(got.value().bytes, 3u);
  EXPECT_EQ(buf[0], 1);

  client.Close();
  for (int i = 0; i < 200; ++i) {
    got = served.RecvSome({buf, sizeof(buf)});
    ASSERT_TRUE(got.ok());
    if (got.value().closed) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(got.value().closed);
}

class NonBlockingFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(NonBlockingFailpointTest, RecvSomeShortIoClampsTransfer) {
  TcpListener listener = TcpListener::Bind(0).value();
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  TcpSocket served = listener.Accept().value();
  ASSERT_TRUE(client.SendAll(Bytes(32, 0xEE)).ok());

  failpoint::Spec spec;
  spec.action = failpoint::Action::kShortIo;
  spec.arg = 5;
  failpoint::Arm("net.recv_some", spec);
  std::uint8_t buf[32];
  const Result<TcpSocket::SomeIo> got = served.RecvSome({buf, sizeof(buf)});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().bytes, 5u);  // kernel has 32 queued; site honors arg
  EXPECT_GE(failpoint::HitCount("net.recv_some"), 1u);
}

TEST_F(NonBlockingFailpointTest, RecvSomeSpuriousWakeupAndError) {
  TcpListener listener = TcpListener::Bind(0).value();
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  TcpSocket served = listener.Accept().value();
  ASSERT_TRUE(client.SendAll(Bytes(8, 1)).ok());

  failpoint::Spec spurious;
  spurious.action = failpoint::Action::kShortIo;
  spurious.arg = 0;  // arg=0: report would-block despite queued bytes
  spurious.count = 1;
  failpoint::Arm("net.recv_some", spurious);
  std::uint8_t buf[8];
  Result<TcpSocket::SomeIo> got = served.RecvSome({buf, sizeof(buf)});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().bytes, 0u);
  EXPECT_FALSE(got.value().closed);

  failpoint::Spec error;
  error.action = failpoint::Action::kReturnError;
  error.code = StatusCode::kIoError;
  failpoint::Arm("net.recv_some", error);
  got = served.RecvSome({buf, sizeof(buf)});
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace dpfs::net
