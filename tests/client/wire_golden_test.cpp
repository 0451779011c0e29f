// Golden wire frames of the client data path. A recording proxy sits in
// front of every I/O server and logs each request frame (opcode and body)
// the client sends, after the server has answered it. Every access mode is
// pinned: whole-brick reads (combined and general, warm and cold cache),
// sieve reads, coalescing writes, list reads and writes, replicated writes
// and failover reads. Each logged line decodes the body for readability and
// ends with the CRC-32C of the raw body bytes, so the expectations pin the
// frames byte for byte.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/datatype.h"
#include "common/crc32.h"
#include "common/mutex.h"
#include "core/cluster.h"
#include "net/frame.h"
#include "net/messages.h"
#include "net/socket.h"

namespace dpfs {
namespace {

using client::CreateOptions;
using client::Datatype;
using client::FileHandle;
using client::IoOptions;
using Log = std::vector<std::string>;

std::string Hex(std::uint32_t value) {
  char text[16];
  std::snprintf(text, sizeof(text), "%08x", value);
  return text;
}

std::string Extents(const std::vector<net::ReadFragment>& fragments) {
  std::string out;
  for (const net::ReadFragment& fragment : fragments) {
    out += " " + std::to_string(fragment.offset) + "+" +
           std::to_string(fragment.length);
  }
  return out;
}

/// One request frame as a golden line: the decoded body, then the CRC of
/// the raw body.
std::string Describe(ByteSpan frame) {
  const Result<net::DecodedRequest> decoded = net::DecodeRequest(frame);
  if (!decoded.ok()) return "undecodable " + decoded.status().ToString();
  std::string line(net::MessageTypeName(decoded.value().type));
  BinaryReader reader(decoded.value().body);
  switch (decoded.value().type) {
    case net::MessageType::kRead: {
      const auto request = net::ReadRequest::Decode(reader);
      if (request.ok()) {
        line += " " + request.value().subfile +
                Extents(request.value().fragments);
      }
      break;
    }
    case net::MessageType::kWrite: {
      const auto request = net::WriteRequest::Decode(reader);
      if (request.ok()) {
        line += " " + request.value().subfile;
        for (const net::WriteFragment& fragment : request.value().fragments) {
          line += " " + std::to_string(fragment.offset) + "+" +
                  std::to_string(fragment.data.size()) + ":" +
                  Hex(Crc32c(fragment.data));
        }
      }
      break;
    }
    case net::MessageType::kListRead: {
      const auto request = net::ListReadRequest::Decode(reader);
      if (request.ok()) {
        line += " " + request.value().subfile +
                Extents(request.value().extents);
      }
      break;
    }
    case net::MessageType::kListWrite: {
      const auto request = net::ListWriteRequest::Decode(reader);
      if (request.ok()) {
        line += " " + request.value().subfile +
                Extents(request.value().extents) + " :" +
                Hex(Crc32c(request.value().data));
      }
      break;
    }
    default:
      break;
  }
  return line + " #" + Hex(Crc32c(decoded.value().body));
}

/// Frame-level TCP proxy in front of one I/O server. Each client connection
/// gets its own upstream connection; request frames and replies are
/// forwarded verbatim, and a request is logged once its reply arrived, so
/// attempts that never reached a live server leave no line. The client
/// dispatches sequentially, so the shared log is in send order.
class RecordingProxy {
 public:
  RecordingProxy(net::Endpoint upstream, Mutex& mu, Log& log)
      : upstream_(std::move(upstream)), mu_(mu), log_(log) {
    listener_ = net::TcpListener::Bind(0).value();
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  RecordingProxy(const RecordingProxy&) = delete;
  RecordingProxy& operator=(const RecordingProxy&) = delete;

  ~RecordingProxy() {
    listener_.Close();
    accept_thread_.join();
    {
      MutexLock lock(mu_);
      for (const int fd : session_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& session : sessions_) session.join();
  }

  [[nodiscard]] net::Endpoint endpoint() const {
    return net::Endpoint{"127.0.0.1", listener_.port()};
  }

 private:
  void AcceptLoop() {
    while (true) {
      Result<net::TcpSocket> accepted = listener_.Accept();
      if (!accepted.ok()) return;
      auto client =
          std::make_shared<net::TcpSocket>(std::move(accepted).value());
      MutexLock lock(mu_);
      session_fds_.push_back(client->fd());
      sessions_.emplace_back([this, client] { Session(client); });
    }
  }

  void Session(const std::shared_ptr<net::TcpSocket>& client) {
    net::TcpSocket upstream;
    Forward(*client, upstream);
    // Unregister before the sockets close so Stop never shuts down a
    // reused descriptor.
    MutexLock lock(mu_);
    std::erase(session_fds_, client->fd());
    if (upstream.valid()) std::erase(session_fds_, upstream.fd());
  }

  void Forward(net::TcpSocket& client, net::TcpSocket& upstream) {
    Result<net::TcpSocket> connected =
        net::TcpSocket::Connect(upstream_.host, upstream_.port);
    if (!connected.ok()) return;  // server down: the client sees a close
    upstream = std::move(connected).value();
    {
      MutexLock lock(mu_);
      session_fds_.push_back(upstream.fd());
    }
    Bytes request;
    Bytes reply;
    while (net::RecvFrame(client, request).ok() &&
           net::SendFrame(upstream, request).ok() &&
           net::RecvFrame(upstream, reply).ok()) {
      {
        MutexLock lock(mu_);
        log_.push_back(Describe(request));
      }
      if (!net::SendFrame(client, reply).ok()) return;
    }
  }

  const net::Endpoint upstream_;
  Mutex& mu_;
  Log& log_;
  net::TcpListener listener_;
  // Guarded by mu_ (a reference, so not annotatable).
  std::vector<int> session_fds_;
  std::vector<std::thread> sessions_;
  std::thread accept_thread_;
};

Bytes Pattern(std::size_t size, std::uint8_t seed) {
  Bytes data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + seed + i / 251);
  }
  return data;
}

class WireGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ClusterOptions options;
    options.num_servers = 3;
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    fs_ = cluster_->fs();
  }

  void TearDown() override {
    proxies_.clear();
    fs_.reset();
    cluster_.reset();
  }

  /// Points every server of `handle` at its recording proxy.
  FileHandle Proxied(FileHandle handle) {
    for (client::ServerInfo& server : handle.record.servers) {
      std::unique_ptr<RecordingProxy>& proxy =
          proxies_[server.endpoint.ToString()];
      if (proxy == nullptr) {
        proxy = std::make_unique<RecordingProxy>(server.endpoint, mu_, log_);
      }
      server.endpoint = proxy->endpoint();
    }
    return handle;
  }

  FileHandle CreateLinear(const std::string& path, std::uint64_t total_bytes,
                          std::uint64_t brick_bytes,
                          std::uint32_t replication = 1) {
    CreateOptions create;
    create.total_bytes = total_bytes;
    create.brick_bytes = brick_bytes;
    create.replication = replication;
    return Proxied(fs_->Create(path, create).value());
  }

  /// The frames logged since the last call.
  Log Take() {
    MutexLock lock(mu_);
    Log taken;
    taken.swap(log_);
    return taken;
  }

  /// Checks the frames logged since the last Take() against `expected`;
  /// on a mismatch, prints the actual frames as pasteable literals.
  void ExpectFrames(const Log& expected) {
    const Log actual = Take();
    if (actual == expected) return;
    std::string text;
    for (const std::string& line : actual) text += "      \"" + line + "\",\n";
    ADD_FAILURE() << "wire frames differ; actual:\n" << text;
  }

  std::unique_ptr<core::LocalCluster> cluster_;
  std::shared_ptr<client::FileSystem> fs_;
  Mutex mu_;
  Log log_;
  std::map<std::string, std::unique_ptr<RecordingProxy>> proxies_;
};

// 10 bricks of 1 KiB (the last one short, 784 bytes) over 3 servers; with
// max_request_bytes = 2 KiB every combined request splits into batches.
TEST_F(WireGoldenTest, WholeBrickReadCombinedAndGeneral) {
  FileHandle handle = CreateLinear("/golden_whole", 10000, 1024);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Pattern(10000, 1)).ok());
  Take();

  IoOptions io;
  io.max_request_bytes = 2048;
  Bytes out(9800);
  ASSERT_TRUE(fs_->ReadBytes(handle, 100, out, io).ok());
  ExpectFrames({
      "read /golden_whole 0+1024 1024+1024 #ed722083",
      "read /golden_whole 2048+1024 3072+784 #8dad75de",
      "read /golden_whole 0+1024 1024+1024 #ed722083",
      "read /golden_whole 2048+1024 #8adf0f97",
      "read /golden_whole 0+1024 1024+1024 #ed722083",
      "read /golden_whole 2048+1024 #8adf0f97"
  });

  io.combine = false;
  ASSERT_TRUE(fs_->ReadBytes(handle, 100, out, io).ok());
  ExpectFrames({
      "read /golden_whole 0+1024 #b89c7c8c",
      "read /golden_whole 0+1024 #b89c7c8c",
      "read /golden_whole 0+1024 #b89c7c8c",
      "read /golden_whole 1024+1024 #234bfe79",
      "read /golden_whole 1024+1024 #234bfe79",
      "read /golden_whole 1024+1024 #234bfe79",
      "read /golden_whole 2048+1024 #8adf0f97",
      "read /golden_whole 2048+1024 #8adf0f97",
      "read /golden_whole 2048+1024 #8adf0f97",
      "read /golden_whole 3072+784 #889b345f"
  });
}

TEST_F(WireGoldenTest, WholeBrickReadWithPartlyWarmCache) {
  FileHandle handle = CreateLinear("/golden_cached", 10000, 1024);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Pattern(10000, 2)).ok());
  fs_->EnableBrickCache(1 << 20);
  Bytes warm(2500);
  ASSERT_TRUE(fs_->ReadBytes(handle, 500, warm).ok());
  Take();

  IoOptions io;
  io.max_request_bytes = 2048;
  Bytes out(10000);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, out, io).ok());
  EXPECT_EQ(out, Pattern(10000, 2));
  ExpectFrames({
      "read /golden_cached 1024+1024 2048+1024 #3a471f82",
      "read /golden_cached 3072+784 #c6e13648",
      "read /golden_cached 1024+1024 2048+1024 #3a471f82",
      "read /golden_cached 1024+1024 2048+1024 #3a471f82"
  });
}

TEST_F(WireGoldenTest, SieveRead) {
  FileHandle handle = CreateLinear("/golden_sieve", 10000, 1024);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Pattern(10000, 3)).ok());
  Take();

  IoOptions io;
  io.whole_brick_reads = false;
  io.max_request_bytes = 1500;
  Bytes out(9800);
  ASSERT_TRUE(fs_->ReadBytes(handle, 100, out, io).ok());
  ExpectFrames({
      "read /golden_sieve 100+3656 #05935dc8",
      "read /golden_sieve 0+3072 #3f7e94d9",
      "read /golden_sieve 0+3072 #3f7e94d9"
  });

  // A tile of a 2-D array: several runs per brick, some coalescing.
  CreateOptions create;
  create.level = layout::FileLevel::kMultidim;
  create.array_shape = {48, 48};
  create.brick_shape = {16, 16};
  create.element_size = 2;
  FileHandle grid = Proxied(fs_->Create("/golden_grid", create).value());
  ASSERT_TRUE(
      fs_->WriteRegion(grid, {{0, 0}, {48, 48}}, Pattern(4608, 4)).ok());
  Take();
  Bytes tile(20 * 20 * 2);
  ASSERT_TRUE(fs_->ReadRegion(grid, {{6, 10}, {20, 20}}, tile, io).ok());
  ExpectFrames({
      "read /golden_grid 212+12 244+12 276+12 308+12 340+12 372+12 404+12 "
          "436+12 468+12 500+12 532+12 564+12 596+12 628+12 660+12 692+12 "
          "724+12 756+12 788+12 820+12 #ebc6918c",
      "read /golden_grid 192+28 224+28 256+28 288+28 320+28 352+28 384+28 "
          "416+28 448+28 480+28 512+28 544+28 576+28 608+28 640+28 672+28 "
          "704+28 736+28 768+28 800+28 #a7f7d091"
  });
}

TEST_F(WireGoldenTest, WriteCoalescesAcrossAdjacentSlots) {
  FileHandle handle = CreateLinear("/golden_write", 10000, 1024);
  IoOptions io;
  io.max_request_bytes = 2048;
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Pattern(10000, 5), io).ok());
  ExpectFrames({
      "write /golden_write 0+3856:507a85ee #c04008cb",
      "write /golden_write 0+3072:b8d48414 #de307ce5",
      "write /golden_write 0+3072:9e2f14c1 #f8cbec30"
  });

  io.combine = false;
  ASSERT_TRUE(fs_->WriteBytes(handle, 300, Pattern(5000, 6), io).ok());
  ExpectFrames({
      "write /golden_write 300+724:5bc7daa5 #46cab176",
      "write /golden_write 0+1024:23c57687 #6a17c3e6",
      "write /golden_write 0+1024:0a64fea4 #43b64bc5",
      "write /golden_write 1024+1024:1bdc0425 #171fb08c",
      "write /golden_write 1024+1024:6b6a6ab8 #67a9de11",
      "write /golden_write 1024+180:111524e9 #c7d636e0"
  });

  // Column strip of a 2-D array: a brick's runs are not contiguous in the
  // caller's buffer but coalesce on the wire wherever the brick rows meet.
  CreateOptions create;
  create.level = layout::FileLevel::kMultidim;
  create.array_shape = {32, 32};
  create.brick_shape = {8, 32};
  create.element_size = 1;
  FileHandle grid = Proxied(fs_->Create("/golden_strip", create).value());
  ASSERT_TRUE(
      fs_->WriteRegion(grid, {{0, 0}, {32, 32}}, Pattern(1024, 7)).ok());
  ExpectFrames({
      "write /golden_strip 0+512:88f79c40 #bb1660de",
      "write /golden_strip 0+256:27d10433 #de9acb4a",
      "write /golden_strip 0+256:cb5ce71e #32172867"
  });
  ASSERT_TRUE(fs_->WriteRegion(grid, {{4, 8}, {24, 16}}, Pattern(384, 8)).ok());
  ExpectFrames({
      "write /golden_strip 136+16:944ed207 168+16:c755bb12 200+16:c672c2b0 "
          "232+16:7bf11ae0 264+16:383a4b28 296+16:fa84feea 328+16:2e52941c "
          "360+16:a7b38b71 #d56b9fc9",
      "write /golden_strip 8+16:72196563 40+16:8dfc531c 72+16:1ec6bd2d "
          "104+16:d0cb2687 136+16:6c48dd14 168+16:3f53b401 200+16:3e74cda3 "
          "232+16:83f715f3 #08c2fd09",
      "write /golden_strip 8+16:8a1f6a70 40+16:75fa5c0f 72+16:e6c0b23e "
          "104+16:c9b93c32 136+16:de6dfc4c 168+16:b02d16e4 200+16:0388e575 "
          "232+16:0c89b716 #1d242fa2"
  });
}

TEST_F(WireGoldenTest, ListReadAndWrite) {
  FileHandle handle = CreateLinear("/golden_list", 10000, 1024);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Pattern(10000, 9)).ok());
  Take();

  const Datatype type =
      Datatype::Vector(20, 100, 450, Datatype::Bytes(1)).value();
  IoOptions io;
  io.list_io = true;
  io.max_request_bytes = 512;
  ASSERT_TRUE(fs_->WriteType(handle, 50, type, Pattern(type.size(), 10), io)
                  .ok());
  ExpectFrames({
      "list_write /golden_list 50+100 500+100 950+74 1152+100 1602+100 "
          ":e707aa3a #34b95f94",
      "list_write /golden_list 2254+100 2704+100 :6ed5670c #21ba89bb",
      "list_write /golden_list 0+26 376+100 826+100 1028+100 1478+100 "
          ":81a47fb0 #13817c9d",
      "list_write /golden_list 1928+100 2130+100 2580+100 3030+42 :58e1ec9a "
          "#d66b2d87",
      "list_write /golden_list 252+100 702+100 1354+100 1804+100 2048+58 "
          ":04b2c58c #d514ad30",
      "list_write /golden_list 2456+100 :b4e95bc9 #74c8c77f"
  });

  Bytes out(type.size());
  ASSERT_TRUE(fs_->ReadType(handle, 50, type, out, io).ok());
  EXPECT_EQ(out, Pattern(type.size(), 10));
  ExpectFrames({
      "list_read /golden_list 50+100 500+100 950+74 1152+100 1602+100 "
          "#db0c5ea8",
      "list_read /golden_list 2254+100 2704+100 #f4a8f36c",
      "list_read /golden_list 0+26 376+100 826+100 1028+100 1478+100 #8abf1f0f",
      "list_read /golden_list 1928+100 2130+100 2580+100 3030+42 #5e25f919",
      "list_read /golden_list 252+100 702+100 1354+100 1804+100 2048+58 "
          "#2e23c303",
      "list_read /golden_list 2456+100 #44af934d"
  });
}

TEST_F(WireGoldenTest, ReplicatedWriteAndFailoverRead) {
  FileHandle handle = CreateLinear("/golden_replicated", 8000, 1024, 2);
  const Bytes data = Pattern(8000, 11);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data).ok());
  ExpectFrames({
      "write /golden_replicated 0+3072:7a52bb70 #54c25b6c",
      "write /golden_replicated#r1 0+3072:7a52bb70 #649ff3ba",
      "write /golden_replicated 0+2880:a3d3aaff #07478e00",
      "write /golden_replicated#r1 0+2880:a3d3aaff #97b1cd18",
      "write /golden_replicated 0+2048:23d0072a #91930c8d",
      "write /golden_replicated#r1 0+2048:23d0072a #c5510a8c"
  });

  cluster_->server(0).Stop();
  IoOptions io;
  io.max_retries = 0;
  Bytes out(7000);
  ASSERT_TRUE(fs_->ReadBytes(handle, 500, out, io).ok());
  EXPECT_EQ(out, Bytes(data.begin() + 500, data.begin() + 7500));
  ExpectFrames({
      "read /golden_replicated#r1 0+1024 1024+1024 2048+1024 #e169ceb2",
      "read /golden_replicated 0+1024 1024+1024 2048+832 #74f8d740",
      "read /golden_replicated 0+1024 1024+1024 #bce79abd"
  });
}

}  // namespace
}  // namespace dpfs
