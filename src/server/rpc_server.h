// The server skeleton shared by dpfsd (IoServer) and dpfs-metad
// (MetadService): a TCP listener, an accept thread, and one session thread
// per accepted connection — the paper's "spawning multiple processes or
// threads" model (§2). A session receives a frame, services it and sends
// the reply, in order, until the client goes away.
//
// Everything both services answer alike lives here: the max_sessions busy
// reply (§4.2), session accounting and ServerStats, the per-opcode
// `<prefix>.requests.<op>` counters and `<prefix>.service_time_us.<op>`
// histograms (docs/OBSERVABILITY.md), refusing opcodes the service does
// not serve, kPing / kShutdown / kMetrics, the session and reply failpoints
// (docs/FAULT_INJECTION.md), and the optional `/metrics` HTTP endpoint. A
// service supplies its constants (RpcServer::Config) and a handler for its
// own opcodes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/connection.h"
#include "net/messages.h"
#include "net/socket.h"

namespace dpfs::server {

class MetricsHttpServer;

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

class RpcServer {
 public:
  struct Config {
    std::uint16_t port = 0;  // 0 = ephemeral
    /// Concurrent session cap; a session beyond it gets one "server busy"
    /// reply and is dropped, and the client "has to try again later"
    /// (§4.2). 0 = unlimited.
    std::size_t max_sessions = 0;
    /// != 0: serve `GET /metrics` on this port (server/metrics_http.h);
    /// kEphemeralMetricsPort binds an ephemeral one.
    std::uint16_t metrics_port = 0;
    /// Metric name prefix: "io_server" or "metad".
    std::string metric_prefix;
    /// The opcodes the handler serves. kPing, kShutdown and kMetrics are
    /// always served; every other opcode is refused as a bad request.
    std::vector<net::MessageType> opcodes;
    /// Appended to the opcode name in the refusal's kProtocolError.
    std::string refusal;
    /// Checked once per session; kBusy turns the session away as if the
    /// cap were reached. Null = no session failpoint.
    const char* session_failpoint = nullptr;
    /// Checked between servicing a request and sending its reply.
    const char* reply_failpoint = nullptr;
  };

  /// Services one request of a served opcode; `reader` holds its body.
  using Handler = std::function<net::Reply(net::MessageType, BinaryReader&)>;

  /// Binds the listener; nothing is served until Serve().
  static Result<std::unique_ptr<RpcServer>> Bind(Config config);

  ~RpcServer();
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Starts the accept thread (and the HTTP endpoint, if configured). The
  /// handler may run on several session threads at once.
  Status Serve(Handler handler);

  [[nodiscard]] net::Endpoint endpoint() const noexcept { return endpoint_; }
  [[nodiscard]] ServerStats& stats() noexcept { return stats_; }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  /// Bound HTTP scrape port (metrics_port != 0 only); 0 when disabled.
  [[nodiscard]] std::uint16_t metrics_http_port() const noexcept;

  /// Stops taking connections without waiting for anything; callable from
  /// a session thread (kShutdown, a crash failpoint). Open sessions keep
  /// being served until their client leaves or Stop() runs.
  void StopAccepting();

  /// Stops accepting, unblocks in-flight sessions, joins all threads.
  /// Idempotent.
  void Stop();

 private:
  explicit RpcServer(Config config, net::TcpListener listener);

  void AcceptLoop();
  /// Body of one session thread; leaves sessions_ before its socket closes.
  void RunSession(std::uint64_t id, net::TcpSocket socket);
  /// Serves `socket` until the client leaves, a send fails or Stop().
  void ServeSession(net::TcpSocket& socket);
  /// Over the cap (or at a kBusy session failpoint): answers one request
  /// with "server busy" and returns true so the session ends.
  bool RejectIfBusy(net::TcpSocket& socket, std::size_t concurrent);
  /// Decodes one request frame, counts/times it per opcode, and dispatches.
  net::Reply HandleRequest(ByteSpan frame);
  /// Joins the threads of sessions that have ended.
  void ReapFinished();

  struct Session {
    int fd = -1;  // shut down by Stop() to unblock the session's recv
    std::thread thread;
  };

  const Config config_;
  Handler handler_;
  net::TcpListener listener_;
  net::Endpoint endpoint_;
  ServerStats stats_;

  // Resolved once from the prefix; a null slot is an opcode not served.
  metrics::Counter* requests_[net::kMaxMessageType + 1] = {};
  metrics::Histogram* service_time_us_[net::kMaxMessageType + 1] = {};
  metrics::Counter& bad_requests_;
  metrics::Counter& busy_rejects_;
  metrics::Gauge& inflight_;

  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> active_sessions_{0};
  Mutex sessions_mu_;
  CondVar sessions_cv_;  // signalled as sessions_ shrinks
  std::uint64_t next_session_ DPFS_GUARDED_BY(sessions_mu_) = 0;
  std::map<std::uint64_t, Session> sessions_ DPFS_GUARDED_BY(sessions_mu_);
  std::vector<std::thread> finished_ DPFS_GUARDED_BY(sessions_mu_);
  std::thread accept_thread_;

  std::unique_ptr<MetricsHttpServer> metrics_http_;  // metrics_port != 0
};

}  // namespace dpfs::server
