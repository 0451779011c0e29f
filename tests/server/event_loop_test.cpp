// The epoll engine (ServerEngine::kEventLoop) end to end: every opcode over
// real loopback TCP, request batching and coalescing, the session cap, the
// inflight/batch/wake metrics, shutdown semantics, chaos failpoints on the
// nonblocking socket paths, and the periodic metrics dump.
#include "server/event_loop.h"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/temp_dir.h"
#include "core/cluster.h"
#include "net/connection.h"
#include "net/frame.h"
#include "net/messages.h"
#include "server/io_server.h"

namespace dpfs::server {
namespace {

bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Coalescing is pure math; pin its merge rules directly.

TEST(CoalesceTest, AdjacentReadsMerge) {
  const std::vector<net::ReadFragment> merged = CoalesceAdjacentReads(
      {{0, 64}, {64, 64}, {128, 32}, {512, 16}, {528, 16}});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], (net::ReadFragment{0, 160}));
  EXPECT_EQ(merged[1], (net::ReadFragment{512, 32}));
}

TEST(CoalesceTest, NonAdjacentAndOutOfOrderReadsUntouched) {
  const std::vector<net::ReadFragment> fragments = {
      {64, 32}, {0, 32}, {200, 8}};  // out of order / gaps: reply order
  EXPECT_EQ(CoalesceAdjacentReads(fragments), fragments);
  EXPECT_TRUE(CoalesceAdjacentReads({}).empty());
}

TEST(CoalesceTest, OverlappingReadsNeverMerge) {
  const std::vector<net::ReadFragment> fragments = {{0, 64}, {32, 64}};
  EXPECT_EQ(CoalesceAdjacentReads(fragments), fragments);
}

TEST(CoalesceTest, AdjacentWritesMergeBytes) {
  std::vector<net::WriteFragment> fragments;
  fragments.push_back({0, Bytes{1, 2}});
  fragments.push_back({2, Bytes{3, 4}});
  fragments.push_back({10, Bytes{9}});
  const std::vector<net::WriteFragment> merged =
      CoalesceAdjacentWrites(std::move(fragments));
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].offset, 0u);
  EXPECT_EQ(merged[0].data, (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(merged[1].offset, 10u);
  EXPECT_EQ(merged[1].data, (Bytes{9}));
}

TEST(CoalesceTest, OverlappingWritesKeepLastWriterWinsOrder) {
  // {0,"ab"} then {1,"cd"} overlap: merging would change the final bytes.
  std::vector<net::WriteFragment> fragments;
  fragments.push_back({0, Bytes{'a', 'b'}});
  fragments.push_back({1, Bytes{'c', 'd'}});
  const std::vector<net::WriteFragment> merged =
      CoalesceAdjacentWrites(std::move(fragments));
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[1].offset, 1u);
}

// ---------------------------------------------------------------------------
// A live event-loop server on loopback.

class EventLoopServerTest : public ::testing::Test {
 protected:
  EventLoopServerTest() : dir_(TempDir::Create("dpfs-evloop").value()) {}

  void StartServer(std::size_t max_sessions = 0) {
    ServerOptions options;
    options.root_dir = dir_.path();
    options.engine = ServerEngine::kEventLoop;
    options.max_sessions = max_sessions;
    server_ = IoServer::Start(std::move(options)).value();
    ASSERT_EQ(server_->engine(), ServerEngine::kEventLoop);
  }

  void TearDown() override { failpoint::DisarmAll(); }

  net::ServerConnection Connect() {
    return net::ServerConnection::Connect(server_->endpoint()).value();
  }

  TempDir dir_;
  std::unique_ptr<IoServer> server_;
};

TEST_F(EventLoopServerTest, AllOpcodesRoundTrip) {
  StartServer();
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Ping().ok());

  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{1, 2, 3, 4, 5, 6, 7, 8}});
  ASSERT_TRUE(conn.Write("/data", std::move(writes)).ok());
  EXPECT_EQ(ToBytes(conn.Read("/data", {{2, 4}}).value().bytes()),
            (Bytes{3, 4, 5, 6}));
  // Out-of-order fragments must concatenate in request order (coalescing
  // must not reorder them).
  EXPECT_EQ(ToBytes(conn.Read("/data", {{4, 2}, {0, 2}}).value().bytes()),
            (Bytes{5, 6, 1, 2}));

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
  EXPECT_NE(metrics_text.find("io_server.epoll_wake"), std::string::npos);
}

TEST_F(EventLoopServerTest, ErrorRepliesKeepConnectionAlive) {
  StartServer();
  net::ServerConnection conn = Connect();
  EXPECT_FALSE(conn.Read("/../../etc/passwd", {{0, 4}}).ok());
  EXPECT_EQ(conn.Delete("/missing").code(), StatusCode::kNotFound);
  EXPECT_TRUE(conn.Ping().ok());
}

TEST_F(EventLoopServerTest, PipelinedRequestsBatchAndReplyInOrder) {
  StartServer();
  std::vector<net::WriteFragment> seed;
  seed.push_back({0, Bytes{10, 20, 30, 40}});
  {
    net::ServerConnection conn = Connect();
    ASSERT_TRUE(conn.Write("/p", std::move(seed)).ok());
  }

  const metrics::Histogram& batch =
      metrics::GetHistogram("io_server.batch_size");
  const std::uint64_t batches_before = batch.GetSnapshot().count;

  // Raw socket: queue several requests before reading any reply, so the
  // reactor drains >1 frame in one readable wake and services them as a
  // batch. Replies must come back in request order.
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
    const Bytes frame = net::EncodeFrame(
        net::EncodeRequest(net::MessageType::kRead, body.buffer())).value();
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
  EXPECT_GT(batch.GetSnapshot().count, batches_before);
}

TEST_F(EventLoopServerTest, ByteAtATimeDeliveryStillDecodes) {
  StartServer();
  net::TcpSocket raw =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  const Bytes frame = net::EncodeFrame(
      net::EncodeRequest(net::MessageType::kPing, {})).value();
  for (const std::uint8_t byte : frame) {
    ASSERT_TRUE(raw.SendAll({&byte, 1}).ok());
  }
  Bytes payload;
  ASSERT_TRUE(net::RecvFrame(raw, payload).ok());
  EXPECT_TRUE(net::DecodeReply(payload).value().status.ok());
}

TEST_F(EventLoopServerTest, AdjacentFragmentsCoalesceWithIdenticalBytes) {
  StartServer();
  net::ServerConnection conn = Connect();
  Bytes content(256);
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<std::uint8_t>(i);
  }
  const metrics::Counter& coalesced =
      metrics::GetCounter("io_server.coalesced_fragments");
  const std::uint64_t before = coalesced.value();

  // Four adjacent write bricks -> one pwrite; bytes must land identically.
  std::vector<net::WriteFragment> writes;
  for (int i = 0; i < 4; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * 64;
    writes.push_back({off, Bytes(content.begin() + off,
                                 content.begin() + off + 64)});
  }
  ASSERT_TRUE(conn.Write("/c", std::move(writes)).ok());
  // Four adjacent read bricks -> one pread; concatenation unchanged.
  EXPECT_EQ(ToBytes(conn.Read("/c", {{0, 64}, {64, 64}, {128, 64}, {192, 64}})
                .value().bytes()),
            content);
  EXPECT_GE(coalesced.value(), before + 6);  // 3 merges each way
}

TEST_F(EventLoopServerTest, ConcurrentClients) {
  StartServer();
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
        const Result<net::ReplyBody> read = connection.Read(
            subfile, {{static_cast<std::uint64_t>(op) * 256, 256}});
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

TEST_F(EventLoopServerTest, InflightGaugeTracksSessions) {
  StartServer();
  const metrics::Gauge& inflight =
      metrics::GetGauge("io_server.inflight_sessions");
  const std::int64_t baseline = inflight.value();
  {
    net::ServerConnection conn = Connect();
    ASSERT_TRUE(conn.Ping().ok());  // serving for sure once replied
    EXPECT_GE(inflight.value(), baseline + 1);
  }
  // Disconnect is noticed asynchronously by the loop.
  EXPECT_TRUE(WaitFor([&] { return inflight.value() <= baseline; }));
}

TEST_F(EventLoopServerTest, SessionCapRejectsBusyAndRecovers) {
  StartServer(/*max_sessions=*/1);
  std::optional<net::ServerConnection> first = Connect();
  ASSERT_TRUE(first->Ping().ok());  // occupies the single slot

  net::ServerConnection second = Connect();
  const Status busy = second.Ping();
  EXPECT_EQ(busy.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(server_->stats().sessions_rejected_busy.load(), 1u);

  // Slot frees once the first session goes away; a new session serves.
  first.reset();
  EXPECT_TRUE(WaitFor([&] {
    net::ServerConnection retry =
        net::ServerConnection::Connect(server_->endpoint()).value();
    return retry.Ping().ok();
  }));
}

TEST_F(EventLoopServerTest, FailpointBusyStormRejectsEverySession) {
  StartServer();
  failpoint::Spec busy;
  busy.action = failpoint::Action::kBusy;
  failpoint::Arm("server.session", busy);
  net::ServerConnection conn = Connect();
  EXPECT_EQ(conn.Ping().code(), StatusCode::kResourceExhausted);
  failpoint::DisarmAll();
  net::ServerConnection after = Connect();
  EXPECT_TRUE(after.Ping().ok());
}

TEST_F(EventLoopServerTest, ShutdownOpcodeRepliesThenStopsAccepting) {
  StartServer();
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Shutdown().ok());  // the queued reply must still flush
  EXPECT_TRUE(WaitFor([&] {
    return !net::ServerConnection::Connect(server_->endpoint()).ok();
  }));
  server_->Stop();
}

TEST_F(EventLoopServerTest, StopIsIdempotentAndRefusesNewConnections) {
  StartServer();
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Ping().ok());
  server_->Stop();
  server_->Stop();
  EXPECT_FALSE(net::ServerConnection::Connect(server_->endpoint()).ok());
}

// ---------------------------------------------------------------------------
// Chaos on the nonblocking socket paths (docs/FAULT_INJECTION.md).

TEST_F(EventLoopServerTest, ShortReadsAreReassembled) {
  StartServer();
  // Server-side recv hands back at most 3 bytes per call; only the reactor
  // uses RecvSome, so client traffic is unaffected.
  failpoint::Spec short_io;
  short_io.action = failpoint::Action::kShortIo;
  short_io.arg = 3;
  failpoint::Arm("net.recv_some", short_io);

  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes(100, 7)});
  ASSERT_TRUE(conn.Write("/short", std::move(writes)).ok());
  EXPECT_EQ(ToBytes(conn.Read("/short", {{0, 100}}).value().bytes()),
            Bytes(100, 7));
  EXPECT_EQ(server_->stats().errors.load(), 0u);
}

TEST_F(EventLoopServerTest, SpuriousWakeupsAreHarmless) {
  StartServer();
  failpoint::Spec spurious;
  spurious.action = failpoint::Action::kShortIo;
  spurious.arg = 0;  // report would-block without transferring anything
  spurious.count = 5;
  failpoint::Arm("net.recv_some", spurious);
  net::ServerConnection conn = Connect();
  EXPECT_TRUE(conn.Ping().ok());
}

TEST_F(EventLoopServerTest, ShortWritesResumeMidFrame) {
  StartServer();
  net::ServerConnection conn = Connect();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes(4096, 9)});
  ASSERT_TRUE(conn.Write("/sw", std::move(writes)).ok());

  // Replies now dribble out 7 bytes per send; the write buffer must carry
  // the frame across calls without corruption.
  failpoint::Spec short_io;
  short_io.action = failpoint::Action::kShortIo;
  short_io.arg = 7;
  failpoint::Arm("net.send_some", short_io);
  EXPECT_EQ(ToBytes(conn.Read("/sw", {{0, 4096}}).value().bytes()),
            Bytes(4096, 9));
  EXPECT_EQ(server_->stats().errors.load(), 0u);
}

TEST_F(EventLoopServerTest, RecvDisconnectDropsSessionServerSurvives) {
  StartServer();
  net::ServerConnection conn = Connect();
  ASSERT_TRUE(conn.Ping().ok());

  failpoint::Spec disconnect;
  disconnect.action = failpoint::Action::kDisconnect;
  disconnect.count = 1;
  failpoint::Arm("net.recv_some", disconnect);
  EXPECT_FALSE(conn.Ping().ok());
  failpoint::DisarmAll();

  net::ServerConnection fresh = Connect();
  EXPECT_TRUE(fresh.Ping().ok());
}

TEST_F(EventLoopServerTest, BeforeReplyDisconnectCountsError) {
  StartServer();
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

// ---------------------------------------------------------------------------
// Session-scaling acceptance: one event-loop server holds 4x the sessions a
// capped thread server allows, every one of them live.

TEST(EventLoopScalingTest, FourTimesTheThreadCapAllServed) {
  constexpr std::size_t kThreadCap = 16;
  constexpr std::size_t kEventSessions = 4 * kThreadCap;

  core::ClusterOptions thread_options;
  thread_options.num_servers = 1;
  thread_options.max_sessions = kThreadCap;
  std::unique_ptr<core::LocalCluster> thread_cluster =
      core::LocalCluster::Start(std::move(thread_options)).value();

  core::ClusterOptions event_options;
  event_options.num_servers = 1;
  event_options.engine = ServerEngine::kEventLoop;
  event_options.max_sessions = kEventSessions;
  std::unique_ptr<core::LocalCluster> event_cluster =
      core::LocalCluster::Start(std::move(event_options)).value();

  // The thread engine's cap bites within kThreadCap+1 held-open sessions.
  {
    std::vector<net::ServerConnection> held;
    bool rejected = false;
    for (std::size_t i = 0; i <= kThreadCap && !rejected; ++i) {
      net::ServerConnection conn =
          net::ServerConnection::Connect(
              thread_cluster->server(0).endpoint())
              .value();
      rejected = conn.Ping().code() == StatusCode::kResourceExhausted;
      if (!rejected) held.push_back(std::move(conn));
    }
    EXPECT_TRUE(rejected);
  }

  // The reactor serves 4x that cap concurrently: every session live at the
  // same time, every request answered, nothing rejected.
  std::vector<net::ServerConnection> held;
  held.reserve(kEventSessions);
  for (std::size_t i = 0; i < kEventSessions; ++i) {
    net::ServerConnection conn =
        net::ServerConnection::Connect(event_cluster->server(0).endpoint())
            .value();
    ASSERT_TRUE(conn.Ping().ok()) << "session " << i;
    held.push_back(std::move(conn));
  }
  const metrics::Gauge& inflight =
      metrics::GetGauge("io_server.inflight_sessions");
  EXPECT_GE(inflight.value(), static_cast<std::int64_t>(kEventSessions));
  // And they are all still serving, not just connected.
  for (std::size_t i = 0; i < kEventSessions; ++i) {
    ASSERT_TRUE(held[i].Ping().ok()) << "session " << i;
  }
  EXPECT_EQ(event_cluster->server(0).stats().sessions_rejected_busy.load(),
            0u);
}

// ---------------------------------------------------------------------------
// Periodic metrics dump (docs/OBSERVABILITY.md).

TEST(MetricsDumpTest, WritesSnapshotsWhileRunningAndOnStop) {
  const TempDir dir = TempDir::Create("dpfs-dump").value();
  const std::filesystem::path path = dir.path() / "snap.txt";
  ServerOptions options;
  options.root_dir = dir.path() / "root";
  options.engine = ServerEngine::kEventLoop;
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
  EXPECT_NE(text.find("histogram io_server.batch_size"), std::string::npos);
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
