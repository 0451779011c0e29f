// The DPFS I/O server (§2): accepts client connections over TCP and services
// brick read/write requests against its local subfile store.
//
// Concurrency model follows the paper: the server handles concurrent client
// requests "by spawning multiple processes or threads to handle them" — here
// one session thread per accepted connection, all sharing the SubfileStore
// (kernel pread/pwrite make fragment I/O thread-safe).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/connection.h"
#include "net/socket.h"
#include "server/subfile_store.h"

namespace dpfs::server {

class EventLoop;
class MetricsHttpServer;

/// Connection-handling engine. The paper's model (one thread per accepted
/// connection, §2) is the default; the epoll reactor with request batching
/// is the opt-in extension (docs/ASYNC_SERVER.md).
enum class ServerEngine : std::uint8_t {
  kThreadPerConnection,
  kEventLoop,
};

/// DPFS_SERVER_ENGINE=thread|event forces every server in the process
/// (I/O and metadata alike) onto one engine — how CI runs the full suite
/// against the reactor.
ServerEngine ApplyEngineOverride(ServerEngine configured);

struct ServerOptions {
  std::filesystem::path root_dir;  // subfile storage root
  std::uint16_t port = 0;          // 0 = ephemeral
  /// Concurrent session cap; sessions beyond it get a "server busy" error
  /// reply and are dropped, and the client "has to try again later" (§4.2).
  /// 0 = unlimited.
  std::size_t max_sessions = 0;
  /// Engine selection; the DPFS_SERVER_ENGINE env var ("thread" | "event")
  /// overrides it process-wide so the whole test suite can be forced onto
  /// either engine without code changes.
  ServerEngine engine = ServerEngine::kThreadPerConnection;
  /// > 0: a background thread writes the process-wide metrics text snapshot
  /// to `metrics_dump_path` every interval (atomic tmp+rename), so long
  /// runs are observable without a DPFS client (docs/OBSERVABILITY.md).
  std::chrono::milliseconds metrics_dump_interval{0};
  /// Snapshot target; empty = root_dir / "metrics.txt".
  std::filesystem::path metrics_dump_path;
  /// != 0: also serve the metrics snapshot over plain HTTP on this port
  /// (`GET /metrics`, server/metrics_http.h) so external scrapers can pull
  /// without speaking the DPFS protocol. 0 = no HTTP endpoint. Use
  /// kEphemeralMetricsPort to bind an ephemeral port (tests).
  std::uint16_t metrics_port = 0;
};

/// Sentinel for ServerOptions/MetadOptions::metrics_port: start the HTTP
/// endpoint on an ephemeral port (query it via metrics_http_port()).
inline constexpr std::uint16_t kEphemeralMetricsPort = 0xffff;

/// Monotonic counters exposed for tests and the shell's `df`.
struct ServerStats {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> bytes_read{0};     // payload bytes served
  std::atomic<std::uint64_t> bytes_written{0};  // payload bytes stored
  std::atomic<std::uint64_t> sessions_accepted{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> sessions_rejected_busy{0};
};

class IoServer {
 public:
  /// Binds, starts the accept loop, and returns a running server.
  static Result<std::unique_ptr<IoServer>> Start(ServerOptions options);

  ~IoServer();
  IoServer(const IoServer&) = delete;
  IoServer& operator=(const IoServer&) = delete;

  [[nodiscard]] net::Endpoint endpoint() const noexcept { return endpoint_; }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] SubfileStore& store() noexcept { return store_; }
  /// The engine actually running (options + DPFS_SERVER_ENGINE override).
  [[nodiscard]] ServerEngine engine() const noexcept {
    return options_.engine;
  }
  /// Bound HTTP scrape port (metrics_port != 0 only); 0 when disabled.
  [[nodiscard]] std::uint16_t metrics_http_port() const noexcept;

  /// Stops accepting, unblocks in-flight sessions, joins all threads.
  /// Idempotent.
  void Stop();

 private:
  IoServer(ServerOptions options, net::TcpListener listener);

  void AcceptLoop();
  void Session(net::TcpSocket socket);
  /// Decodes one request frame, counts/times it per opcode, and dispatches.
  net::Reply HandleRequest(ByteSpan frame);
  /// The per-opcode service switch; returns the reply status and body.
  net::Reply Dispatch(net::MessageType type, BinaryReader& reader);
  /// kShutdown's engine-appropriate "stop taking connections" signal.
  void StopAcceptingAsync();
  void MetricsDumpLoop();

  ServerOptions options_;
  SubfileStore store_;
  net::TcpListener listener_;
  net::Endpoint endpoint_;
  ServerStats stats_;

  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> active_sessions_{0};
  std::thread accept_thread_;
  Mutex sessions_mu_;
  std::vector<std::thread> sessions_ DPFS_GUARDED_BY(sessions_mu_);
  std::vector<int> session_fds_
      DPFS_GUARDED_BY(sessions_mu_);  // for unblocking on Stop

  std::unique_ptr<EventLoop> event_loop_;  // engine == kEventLoop only

  std::thread dump_thread_;  // metrics_dump_interval > 0 only
  Mutex dump_mu_;
  CondVar dump_cv_;
  bool dump_stop_ DPFS_GUARDED_BY(dump_mu_) = false;

  std::unique_ptr<MetricsHttpServer> metrics_http_;  // metrics_port != 0 only
};

}  // namespace dpfs::server
