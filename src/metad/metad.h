// dpfs-metad — the standalone DPFS metadata server (extension:
// `metadata_endpoint`, docs/METADATA_SCHEMA.md "Remote access").
//
// The paper embeds metadata access in every client; since metadb::Database
// holds an advisory flock, that limits a namespace to one process. This
// service is the unlock (HopsFS-style): it owns the ShardedDatabase and
// serves the kMeta* namespace opcodes over the same frame envelope as the
// I/O servers, so any number of client processes share one mutable
// namespace through their RemoteMetadataManager (client/remote_metadata.h).
//
// Both connection engines run here: the paper's thread-per-connection model
// by default, or the epoll reactor (server::EventLoop) when
// MetadOptions::engine selects it — the loop is handed "metad.reply" as its
// reply failpoint site so chaos schedules target this service specifically.
//
// Crash recovery is inherited, not reimplemented: Start attaches a
// MetadataManager, whose Attach rolls forward any cross-shard intent
// records a previous incarnation left mid-mutation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "client/metadata.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "metadb/sharded_database.h"
#include "net/connection.h"
#include "net/socket.h"
#include "server/io_server.h"

namespace dpfs::server {
class EventLoop;
class MetricsHttpServer;
}  // namespace dpfs::server

namespace dpfs::metad {

struct MetadOptions {
  std::uint16_t port = 0;  // 0 = ephemeral
  /// Concurrent session cap (thread engine rejects with "server busy" like
  /// the I/O server; the event engine enforces it in the reactor). 0 =
  /// unlimited.
  std::size_t max_sessions = 0;
  /// Engine selection; DPFS_SERVER_ENGINE overrides it process-wide.
  server::ServerEngine engine = server::ServerEngine::kThreadPerConnection;
  /// != 0: serve `GET /metrics` over plain HTTP on this port
  /// (server/metrics_http.h); 0 = no HTTP endpoint;
  /// server::kEphemeralMetricsPort = ephemeral.
  std::uint16_t metrics_port = 0;
};

class MetadService {
 public:
  /// Attaches a MetadataManager to `db` (creating tables and rolling
  /// forward pending cross-shard intents), binds, and starts serving.
  static Result<std::unique_ptr<MetadService>> Start(
      std::shared_ptr<metadb::ShardedDatabase> db, MetadOptions options = {});

  ~MetadService();
  MetadService(const MetadService&) = delete;
  MetadService& operator=(const MetadService&) = delete;

  [[nodiscard]] net::Endpoint endpoint() const noexcept { return endpoint_; }
  [[nodiscard]] const server::ServerStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] server::ServerEngine engine() const noexcept {
    return options_.engine;
  }
  /// Bound HTTP scrape port (metrics_port != 0 only); 0 when disabled.
  [[nodiscard]] std::uint16_t metrics_http_port() const noexcept;
  /// The embedded manager actually serving requests (tests reach through
  /// this to inspect the database the service owns).
  [[nodiscard]] client::MetadataManager& metadata() noexcept {
    return *metadata_;
  }

  /// Stops accepting, unblocks in-flight sessions, joins all threads.
  /// Idempotent. The database handle is released on destruction, so a
  /// successor service can re-open the directory (flock) afterwards.
  void Stop();

 private:
  MetadService(MetadOptions options, net::TcpListener listener,
               std::shared_ptr<metadb::ShardedDatabase> db,
               std::unique_ptr<client::MetadataManager> metadata);

  void AcceptLoop();
  void Session(net::TcpSocket socket);
  /// Decodes one request frame, counts/times it per opcode, and dispatches.
  net::Reply HandleRequest(ByteSpan frame);
  /// The per-opcode service switch; returns the reply status and body.
  net::Reply Dispatch(net::MessageType type, BinaryReader& reader);
  /// kShutdown's engine-appropriate "stop taking connections" signal.
  void StopAcceptingAsync();

  MetadOptions options_;
  net::TcpListener listener_;
  net::Endpoint endpoint_;
  std::shared_ptr<metadb::ShardedDatabase> db_;
  std::unique_ptr<client::MetadataManager> metadata_;
  server::ServerStats stats_;

  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> active_sessions_{0};
  std::thread accept_thread_;
  Mutex sessions_mu_;
  std::vector<std::thread> sessions_ DPFS_GUARDED_BY(sessions_mu_);
  std::vector<int> session_fds_
      DPFS_GUARDED_BY(sessions_mu_);  // for unblocking on Stop

  std::unique_ptr<server::EventLoop> event_loop_;  // engine == kEventLoop
  std::unique_ptr<server::MetricsHttpServer>
      metrics_http_;  // metrics_port != 0 only
};

}  // namespace dpfs::metad
