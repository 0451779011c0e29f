// A live IoServer on loopback, driven through ServerConnection and raw
// sockets: every opcode, pipelined and fragmented requests, the session cap
// and its failpoint, shutdown, and the periodic metrics dump.
#include "server/io_server.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/temp_dir.h"
#include "net/connection.h"
#include "net/frame.h"
#include "net/messages.h"

namespace dpfs::server {
namespace {

bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

Bytes RequestFrame(net::MessageType type, const BinaryWriter& body) {
  return net::EncodeFrame(net::EncodeRequest(type, body.buffer())).value();
}

class IoServerTest : public ::testing::Test {
 protected:
  IoServerTest() : dir_(TempDir::Create("dpfs-server").value()) {
    ServerOptions options;
    options.root_dir = dir_.path();
    server_ = IoServer::Start(std::move(options)).value();
  }

  void TearDown() override { failpoint::DisarmAll(); }

  net::ServerConnection Connect() {
    return net::ServerConnection::Connect(server_->endpoint()).value();
  }

  TempDir dir_;
  std::unique_ptr<IoServer> server_;
};

TEST_F(IoServerTest, Ping) {
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Ping().ok());
}

TEST_F(IoServerTest, WriteThenRead) {
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{1, 2, 3, 4, 5, 6, 7, 8}});
  ASSERT_TRUE(conn.Write("/data", std::move(writes)).ok());
  const Bytes data = ToBytes(conn.Read("/data", {{2, 4}}).value().bytes());
  EXPECT_EQ(data, (Bytes{3, 4, 5, 6}));
}

TEST_F(IoServerTest, MultiFragmentReadConcatenates) {
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{10, 11, 12, 13, 14, 15}});
  ASSERT_TRUE(conn.Write("/f", std::move(writes)).ok());
  const Bytes data = ToBytes(conn.Read("/f", {{4, 2}, {0, 2}}).value().bytes());
  EXPECT_EQ(data, (Bytes{14, 15, 10, 11}));
}

TEST_F(IoServerTest, StatAndDelete) {
  net::ServerConnection conn = Connect();
  EXPECT_FALSE(conn.Stat("/f").value().exists);
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{1, 2, 3}});
  ASSERT_TRUE(conn.Write("/f", std::move(writes)).ok());
  const net::StatReply stat = conn.Stat("/f").value();
  EXPECT_TRUE(stat.exists);
  EXPECT_EQ(stat.size, 3u);
  EXPECT_TRUE(conn.Delete("/f").ok());
  EXPECT_FALSE(conn.Stat("/f").value().exists);
  EXPECT_EQ(conn.Delete("/f").code(), StatusCode::kNotFound);
}

TEST_F(IoServerTest, Truncate) {
  net::ServerConnection conn = Connect();
  ASSERT_TRUE(conn.Truncate("/f", 512).ok());
  EXPECT_EQ(conn.Stat("/f").value().size, 512u);
}

TEST_F(IoServerTest, PathEscapeReturnsErrorNotCrash) {
  net::ServerConnection conn = Connect();
  const Result<net::ReplyBody> data =
      conn.Read("/../../etc/passwd", {{0, 4}});
  EXPECT_FALSE(data.ok());
  // The connection survives the error reply.
  EXPECT_TRUE(conn.Ping().ok());
}

TEST_F(IoServerTest, ConcurrentClients) {
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 20;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      Result<net::ServerConnection> conn =
          net::ServerConnection::Connect(server_->endpoint());
      if (!conn.ok()) {
        failures.fetch_add(1);
        return;
      }
      net::ServerConnection connection = std::move(conn).value();
      const std::string subfile = "/client" + std::to_string(c);
      for (int op = 0; op < kOpsPerClient; ++op) {
        Bytes payload(256, static_cast<std::uint8_t>(c * 16 + op));
        std::vector<net::WriteFragment> writes;
        writes.push_back({static_cast<std::uint64_t>(op) * 256, payload});
        if (!connection.Write(subfile, std::move(writes)).ok()) {
          failures.fetch_add(1);
          return;
        }
        const Result<net::ReplyBody> read =
            connection.Read(subfile,
                            {{static_cast<std::uint64_t>(op) * 256, 256}});
        if (!read.ok() || ToBytes(read.value().bytes()) != payload) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->stats().sessions_accepted.load(), 8u);
}

TEST_F(IoServerTest, ConcurrentClientsLeaveNoServerErrors) {
  // Clients interleave writes and reads on separate connections and separate
  // subfiles; every session is accepted and none counts an error.
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 20;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      Result<net::ServerConnection> conn =
          net::ServerConnection::Connect(server_->endpoint());
      if (!conn.ok()) {
        failures.fetch_add(1);
        return;
      }
      net::ServerConnection connection = std::move(conn).value();
      const std::string subfile = "/client" + std::to_string(c);
      for (int op = 0; op < kOpsPerClient; ++op) {
        const std::uint64_t offset = static_cast<std::uint64_t>(op) * 256;
        Bytes payload(256, static_cast<std::uint8_t>(c * 16 + op));
        std::vector<net::WriteFragment> writes;
        writes.push_back({offset, payload});
        if (!connection.Write(subfile, std::move(writes)).ok()) {
          failures.fetch_add(1);
          return;
        }
        const Result<net::ReplyBody> read =
            connection.Read(subfile, {{offset, 256}});
        if (!read.ok() || ToBytes(read.value().bytes()) != payload) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->stats().sessions_accepted.load(),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(server_->stats().errors.load(), 0u);
}

TEST_F(IoServerTest, StatsCountBytes) {
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes(1000, 1)});
  ASSERT_TRUE(conn.Write("/f", std::move(writes)).ok());
  ASSERT_TRUE(conn.Read("/f", {{0, 400}}).ok());
  EXPECT_EQ(server_->stats().bytes_written.load(), 1000u);
  EXPECT_EQ(server_->stats().bytes_read.load(), 400u);
  EXPECT_GE(server_->stats().requests.load(), 2u);
}

TEST_F(IoServerTest, StatsRpcReportsCounters) {
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes(500, 3)});
  ASSERT_TRUE(conn.Write("/s", std::move(writes)).ok());
  ASSERT_TRUE(conn.Read("/s", {{0, 200}}).ok());

  const net::StatsReply stats = conn.Stats().value();
  EXPECT_EQ(stats.bytes_written, 500u);
  EXPECT_EQ(stats.bytes_read, 200u);
  EXPECT_GE(stats.requests, 3u);  // write + read + stats
  EXPECT_GE(stats.sessions_accepted, 1u);
  EXPECT_EQ(stats.stored_bytes, 500u);
  // The fd cache served the read without a second open.
  EXPECT_GE(stats.fd_cache_hits, 1u);
  EXPECT_GE(stats.fd_cache_misses, 1u);
}

TEST_F(IoServerTest, StopIsIdempotentAndUnblocksClients) {
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Ping().ok());
  server_->Stop();
  server_->Stop();  // second call must be safe
  // New connections are refused after stop.
  EXPECT_FALSE(net::ServerConnection::Connect(server_->endpoint()).ok());
}

TEST_F(IoServerTest, ShutdownMessageStopsAccepting) {
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Shutdown().ok());
  // Give the accept loop a moment to wind down.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(net::ServerConnection::Connect(server_->endpoint()).ok());
}

TEST_F(IoServerTest, StopIsIdempotentAndRefusesNewConnections) {
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Ping().ok());
  server_->Stop();
  server_->Stop();
  EXPECT_FALSE(net::ServerConnection::Connect(server_->endpoint()).ok());
  // Stop() shut the open session down; its client sees the socket closed.
  EXPECT_FALSE(conn.Ping().ok());
}

TEST_F(IoServerTest, ShutdownOpcodeRepliesThenStopsAccepting) {
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Shutdown().ok());  // the reply arrives before the close
  EXPECT_TRUE(WaitFor([&] {
    return !net::ServerConnection::Connect(server_->endpoint()).ok();
  }));
  server_->Stop();
}

TEST_F(IoServerTest, SubfilesLandUnderServerRoot) {
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{1}});
  ASSERT_TRUE(conn.Write("/home/user/file.dpfs", std::move(writes)).ok());
  EXPECT_TRUE(
      std::filesystem::exists(dir_.path() / "home/user/file.dpfs"));
}

TEST_F(IoServerTest, AllOpcodesRoundTrip) {
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Ping().ok());

  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{1, 2, 3, 4, 5, 6, 7, 8}});
  ASSERT_TRUE(conn.Write("/data", std::move(writes)).ok());
  EXPECT_EQ(ToBytes(conn.Read("/data", {{2, 4}}).value().bytes()),
            (Bytes{3, 4, 5, 6}));

  const net::StatReply stat = conn.Stat("/data").value();
  EXPECT_TRUE(stat.exists);
  EXPECT_EQ(stat.size, 8u);
  EXPECT_TRUE(conn.Truncate("/data", 4).ok());
  EXPECT_TRUE(conn.Rename("/data", "/renamed").ok());
  const std::vector<net::SubfileInfo> listing = conn.List().value();
  ASSERT_EQ(listing.size(), 1u);
  EXPECT_EQ(listing[0].name, "/renamed");
  EXPECT_EQ(listing[0].size, 4u);
  EXPECT_TRUE(conn.Delete("/renamed").ok());

  const net::StatsReply stats = conn.Stats().value();
  EXPECT_GE(stats.requests, 8u);
  EXPECT_GE(stats.sessions_accepted, 1u);
  const std::string metrics_text = conn.Metrics().value();
  EXPECT_NE(metrics_text.find("io_server.requests.rename"), std::string::npos);
}

TEST_F(IoServerTest, ErrorRepliesKeepConnectionAlive) {
  net::ServerConnection conn = Connect();
  EXPECT_FALSE(conn.Read("/../../etc/passwd", {{0, 4}}).ok());
  EXPECT_EQ(conn.Delete("/missing").code(), StatusCode::kNotFound);
  EXPECT_TRUE(conn.Ping().ok());
}

TEST_F(IoServerTest, PipelinedRequestsReplyInOrder) {
  std::vector<net::WriteFragment> seed;
  seed.push_back({0, Bytes{10, 20, 30, 40}});
  {
    net::ServerConnection conn = Connect();
    ASSERT_TRUE(conn.Write("/p", std::move(seed)).ok());
  }

  // Raw socket: queue several requests before reading any reply. The
  // session serves them one by one, and replies come back in request order.
  net::TcpSocket raw =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  constexpr int kPipelined = 8;
  Bytes wire;
  for (int i = 0; i < kPipelined; ++i) {
    BinaryWriter body;
    net::ReadRequest request;
    request.subfile = "/p";
    request.fragments = {{static_cast<std::uint64_t>(i % 4), 1}};
    request.Encode(body);
    const Bytes frame = RequestFrame(net::MessageType::kRead, body);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(raw.SendAll(wire).ok());
  for (int i = 0; i < kPipelined; ++i) {
    Bytes payload;
    ASSERT_TRUE(net::RecvFrame(raw, payload).ok());
    const net::DecodedReply reply = net::DecodeReply(payload).value();
    ASSERT_TRUE(reply.status.ok());
    const Bytes expected{static_cast<std::uint8_t>(10 * (i % 4) + 10)};
    EXPECT_EQ(Bytes(reply.body.begin(), reply.body.end()), expected);
  }
}

TEST_F(IoServerTest, ShortReadsAreReassembled) {
  // The request arrives 3 bytes per send, so the session's receive sees it
  // in pieces; the bytes must land whole.
  net::TcpSocket raw =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  BinaryWriter body;
  net::WriteRequest request;
  request.subfile = "/short";
  request.fragments.push_back({0, Bytes(100, 7)});
  request.Encode(body);
  const Bytes frame = RequestFrame(net::MessageType::kWrite, body);
  for (std::size_t off = 0; off < frame.size(); off += 3) {
    const std::size_t len = std::min<std::size_t>(3, frame.size() - off);
    ASSERT_TRUE(raw.SendAll(ByteSpan(frame).subspan(off, len)).ok());
  }
  Bytes payload;
  ASSERT_TRUE(net::RecvFrame(raw, payload).ok());
  EXPECT_TRUE(net::DecodeReply(payload).value().status.ok());

  net::ServerConnection conn = Connect();
  EXPECT_EQ(ToBytes(conn.Read("/short", {{0, 100}}).value().bytes()),
            Bytes(100, 7));
  EXPECT_EQ(server_->stats().errors.load(), 0u);
}

TEST_F(IoServerTest, ByteAtATimeDeliveryStillDecodes) {
  // A request with a body, one byte per send: the session reassembles the
  // header and the body before decoding, and the bytes land whole.
  net::TcpSocket raw =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  BinaryWriter body;
  net::WriteRequest request;
  request.subfile = "/bytewise";
  request.fragments.push_back({0, Bytes{9, 8, 7, 6}});
  request.Encode(body);
  const Bytes frame = RequestFrame(net::MessageType::kWrite, body);
  for (const std::uint8_t byte : frame) {
    ASSERT_TRUE(raw.SendAll({&byte, 1}).ok());
  }
  Bytes payload;
  ASSERT_TRUE(net::RecvFrame(raw, payload).ok());
  EXPECT_TRUE(net::DecodeReply(payload).value().status.ok());

  net::ServerConnection conn = Connect();
  EXPECT_EQ(ToBytes(conn.Read("/bytewise", {{0, 4}}).value().bytes()),
            (Bytes{9, 8, 7, 6}));
}

TEST_F(IoServerTest, InflightGaugeTracksSessions) {
  const metrics::Gauge& inflight =
      metrics::GetGauge("io_server.inflight_sessions");
  const std::int64_t baseline = inflight.value();
  {
    net::ServerConnection conn = Connect();
    ASSERT_TRUE(conn.Ping().ok());  // serving for sure once replied
    EXPECT_GE(inflight.value(), baseline + 1);
  }
  // The session notices the disconnect on its own thread.
  EXPECT_TRUE(WaitFor([&] { return inflight.value() <= baseline; }));
}

TEST_F(IoServerTest, SessionCapRejectsBusyAndRecovers) {
  const TempDir dir = TempDir::Create("dpfs-server-cap").value();
  ServerOptions options;
  options.root_dir = dir.path();
  options.max_sessions = 1;
  std::unique_ptr<IoServer> capped = IoServer::Start(std::move(options)).value();
  std::optional<net::ServerConnection> first =
      net::ServerConnection::Connect(capped->endpoint()).value();
  ASSERT_TRUE(first->Ping().ok());  // occupies the single slot

  net::ServerConnection second =
      net::ServerConnection::Connect(capped->endpoint()).value();
  EXPECT_EQ(second.Ping().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(capped->stats().sessions_rejected_busy.load(), 1u);

  // The slot frees once the first session goes away; a new session serves.
  first.reset();
  EXPECT_TRUE(WaitFor([&] {
    net::ServerConnection retry =
        net::ServerConnection::Connect(capped->endpoint()).value();
    return retry.Ping().ok();
  }));
}

TEST_F(IoServerTest, FailpointBusyStormRejectsEverySession) {
  failpoint::Spec busy;
  busy.action = failpoint::Action::kBusy;
  failpoint::Arm("server.session", busy);
  net::ServerConnection conn = Connect();
  EXPECT_EQ(conn.Ping().code(), StatusCode::kResourceExhausted);
  failpoint::DisarmAll();
  net::ServerConnection after = Connect();
  EXPECT_TRUE(after.Ping().ok());
}

TEST_F(IoServerTest, BeforeReplyDisconnectCountsError) {
  net::ServerConnection conn = Connect();
  ASSERT_TRUE(conn.Ping().ok());
  failpoint::Spec drop;
  drop.action = failpoint::Action::kDisconnect;
  drop.count = 1;
  failpoint::Arm("server.before_reply", drop);
  EXPECT_FALSE(conn.Ping().ok());
  EXPECT_TRUE(WaitFor([&] { return server_->stats().errors.load() >= 1; }));
  failpoint::DisarmAll();
  net::ServerConnection fresh = Connect();
  EXPECT_TRUE(fresh.Ping().ok());
}

TEST_F(IoServerTest, StopLeavesOtherConnectionsAlone) {
  // Servers and clients share one process, so a descriptor a finished
  // session closed is soon reused by an unrelated connection. Stop() must
  // shut down only the sessions still open on this server.
  const TempDir other_dir = TempDir::Create("dpfs-server-other").value();
  ServerOptions options;
  options.root_dir = other_dir.path();
  std::unique_ptr<IoServer> other = IoServer::Start(std::move(options)).value();

  const metrics::Gauge& inflight =
      metrics::GetGauge("io_server.inflight_sessions");
  const std::int64_t baseline = inflight.value();
  {
    net::ServerConnection conn = Connect();
    ASSERT_TRUE(conn.Ping().ok());
  }
  ASSERT_TRUE(WaitFor([&] { return inflight.value() <= baseline; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // fd closed

  std::vector<net::ServerConnection> conns;
  for (int i = 0; i < 4; ++i) {
    conns.push_back(net::ServerConnection::Connect(other->endpoint()).value());
    ASSERT_TRUE(conns.back().Ping().ok());
  }
  server_->Stop();
  for (net::ServerConnection& conn : conns) EXPECT_TRUE(conn.Ping().ok());
}

// ---------------------------------------------------------------------------
// Periodic metrics dump (docs/OBSERVABILITY.md).

TEST(MetricsDumpTest, WritesSnapshotsWhileRunningAndOnStop) {
  const TempDir dir = TempDir::Create("dpfs-dump").value();
  const std::filesystem::path path = dir.path() / "snap.txt";
  ServerOptions options;
  options.root_dir = dir.path() / "root";
  options.metrics_dump_interval = std::chrono::milliseconds(10);
  options.metrics_dump_path = path;
  std::unique_ptr<IoServer> server =
      IoServer::Start(std::move(options)).value();

  net::ServerConnection conn =
      net::ServerConnection::Connect(server->endpoint()).value();
  ASSERT_TRUE(conn.Ping().ok());
  ASSERT_TRUE(WaitFor([&] { return std::filesystem::exists(path); }));
  server->Stop();  // final snapshot lands before Stop returns

  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string text = contents.str();
  EXPECT_NE(text.find("counter io_server.requests.ping"), std::string::npos);
  EXPECT_NE(text.find("gauge io_server.inflight_sessions"),
            std::string::npos);
  EXPECT_NE(text.find("histogram io_server.service_time_us.ping"),
            std::string::npos);
  // Atomic publication: the tmp file never lingers.
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
}

TEST(MetricsDumpTest, DefaultsToMetricsTxtUnderRoot) {
  const TempDir dir = TempDir::Create("dpfs-dump2").value();
  ServerOptions options;
  options.root_dir = dir.path();
  options.metrics_dump_interval = std::chrono::milliseconds(10);
  std::unique_ptr<IoServer> server =
      IoServer::Start(std::move(options)).value();
  server->Stop();
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "metrics.txt"));
}

}  // namespace
}  // namespace dpfs::server
