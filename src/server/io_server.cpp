#include "server/io_server.h"

#include <sys/socket.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/metrics.h"
#include "net/frame.h"
#include "net/messages.h"
#include "server/event_loop.h"
#include "server/metrics_http.h"

namespace dpfs::server {

namespace {
// Per-opcode request counters and service-time histograms, indexed by the
// numeric MessageType. Only the opcodes an I/O server actually serves get a
// slot (ping..metrics plus the list-I/O pair); a null slot is how
// HandleRequest recognizes a metadata opcode aimed at the wrong server.
// Resolved once; names follow docs/OBSERVABILITY.md
// (io_server.requests.read, ...).
struct OpMetrics {
  metrics::Counter* requests[net::kMaxMessageType + 1] = {};
  metrics::Histogram* service_time_us[net::kMaxMessageType + 1] = {};
  metrics::Counter& bad_requests =
      metrics::GetCounter("io_server.bad_requests");
  metrics::Counter& busy_rejects =
      metrics::GetCounter("io_server.busy_rejects");
  metrics::Gauge& inflight =
      metrics::GetGauge("io_server.inflight_sessions");
  metrics::Counter& coalesced_fragments =
      metrics::GetCounter("io_server.coalesced_fragments");
  metrics::Counter& list_extents =
      metrics::GetCounter("io_server.list_extents");

  OpMetrics() {
    const auto add = [this](net::MessageType type) {
      const int op = static_cast<int>(type);
      const auto name = std::string(net::MessageTypeName(type));
      requests[op] = &metrics::GetCounter("io_server.requests." + name);
      service_time_us[op] =
          &metrics::GetHistogram("io_server.service_time_us." + name);
    };
    for (int op = static_cast<int>(net::MessageType::kPing);
         op <= static_cast<int>(net::MessageType::kMetrics); ++op) {
      add(static_cast<net::MessageType>(op));
    }
    add(net::MessageType::kListRead);
    add(net::MessageType::kListWrite);
  }
};
OpMetrics& Metrics() {
  static OpMetrics m;
  return m;
}

/// Atomic (tmp + rename) text-snapshot dump; partial files never appear at
/// the published path.
void DumpSnapshot(const std::filesystem::path& path) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      DPFS_LOG_WARN << "metrics dump: cannot open " << tmp.string();
      return;
    }
    out << metrics::Registry::Global().TextSnapshot();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    DPFS_LOG_WARN << "metrics dump: rename to " << path.string() << ": "
                  << ec.message();
  }
}
}  // namespace

ServerEngine ApplyEngineOverride(ServerEngine configured) {
  const char* env = std::getenv("DPFS_SERVER_ENGINE");
  if (env == nullptr) return configured;
  const std::string_view value(env);
  if (value == "event") return ServerEngine::kEventLoop;
  if (value == "thread") return ServerEngine::kThreadPerConnection;
  if (!value.empty()) {
    DPFS_LOG_WARN << "DPFS_SERVER_ENGINE='" << value
                  << "' is not 'thread' or 'event'; ignoring";
  }
  return configured;
}

Result<std::unique_ptr<IoServer>> IoServer::Start(ServerOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(options.root_dir, ec);
  if (ec) {
    return IoError("create server root '" + options.root_dir.string() +
                   "': " + ec.message());
  }
  DPFS_ASSIGN_OR_RETURN(net::TcpListener listener,
                        net::TcpListener::Bind(options.port));
  options.engine = ApplyEngineOverride(options.engine);
  std::unique_ptr<IoServer> server(
      new IoServer(std::move(options), std::move(listener)));
  if (server->options_.engine == ServerEngine::kEventLoop) {
    EventLoop::Options loop_options;
    loop_options.max_sessions = server->options_.max_sessions;
    // The reactor owns the listener from here; endpoint_ was captured in
    // the constructor, and the moved-from listener_ is a safe no-op Close.
    Result<std::unique_ptr<EventLoop>> loop = EventLoop::Start(
        std::move(server->listener_),
        [raw = server.get()](ByteSpan frame) {
          return raw->HandleRequest(frame);
        },
        &server->stats_, loop_options);
    if (!loop.ok()) return loop.status();
    server->event_loop_ = std::move(loop).value();
  } else {
    server->accept_thread_ = std::thread([raw = server.get()] {
      raw->AcceptLoop();
    });
  }
  if (server->options_.metrics_dump_interval.count() > 0) {
    server->dump_thread_ = std::thread([raw = server.get()] {
      raw->MetricsDumpLoop();
    });
  }
  if (server->options_.metrics_port != 0) {
    DPFS_ASSIGN_OR_RETURN(
        server->metrics_http_,
        MetricsHttpServer::Start(
            server->options_.metrics_port == kEphemeralMetricsPort
                ? 0
                : server->options_.metrics_port));
  }
  return server;
}

std::uint16_t IoServer::metrics_http_port() const noexcept {
  return metrics_http_ == nullptr ? 0 : metrics_http_->port();
}

IoServer::IoServer(ServerOptions options, net::TcpListener listener)
    : options_(std::move(options)),
      store_(options_.root_dir),
      listener_(std::move(listener)),
      endpoint_{"127.0.0.1", listener_.port()} {}

IoServer::~IoServer() { Stop(); }

void IoServer::Stop() {
  if (stopping_.exchange(true)) {
    // Already stopping; still join if the first caller was another thread.
  }
  if (dump_thread_.joinable()) {
    {
      MutexLock lock(dump_mu_);
      dump_stop_ = true;
    }
    dump_cv_.NotifyAll();
    dump_thread_.join();
  }
  if (metrics_http_) metrics_http_->Stop();
  if (event_loop_) event_loop_->Stop();
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    MutexLock lock(sessions_mu_);
    for (const int fd : session_fds_) {
      ::shutdown(fd, SHUT_RDWR);  // unblocks RecvExact in session threads
    }
  }
  std::vector<std::thread> sessions;
  {
    MutexLock lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (std::thread& session : sessions) {
    if (session.joinable()) session.join();
  }
}

void IoServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<net::TcpSocket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      DPFS_LOG_WARN << "accept failed: " << accepted.status().ToString();
      return;
    }
    stats_.sessions_accepted.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(sessions_mu_);
    session_fds_.push_back(accepted.value().fd());
    sessions_.emplace_back(
        [this, socket = std::move(accepted).value()]() mutable {
          Session(std::move(socket));
        });
  }
}

void IoServer::Session(net::TcpSocket socket) {
  const std::size_t concurrent =
      active_sessions_.fetch_add(1, std::memory_order_relaxed) + 1;
  struct SessionGuard {
    std::atomic<std::size_t>& counter;
    ~SessionGuard() { counter.fetch_sub(1, std::memory_order_relaxed); }
  } guard{active_sessions_};

  bool reject_busy =
      options_.max_sessions > 0 && concurrent > options_.max_sessions;
  if (!reject_busy) {
    // "server.session" kBusy simulates §4.2's overloaded server without
    // needing max_sessions pressure (busy-storm chaos schedules).
    if (const auto fp = failpoint::Check("server.session");
        fp.has_value() && fp->action == failpoint::Action::kBusy) {
      reject_busy = true;
    }
  }
  if (reject_busy) {
    // §4.2's overloaded server: answer one request with "busy" so the
    // client backs off and retries, then drop the session.
    stats_.sessions_rejected_busy.fetch_add(1, std::memory_order_relaxed);
    Metrics().busy_rejects.Add();
    if (net::FrameBuffer frame; net::RecvFrame(socket, frame).ok()) {
      // dpfs:unchecked(best-effort courtesy reply before dropping the
      // session; the client treats a vanished connection the same way)
      (void)net::SendReply(
          socket, {ResourceExhaustedError("server busy, retry later"), {}});
    }
    return;
  }

  // Serving for real from here: show up in the inflight_sessions gauge
  // (rejected-busy sessions above deliberately don't).
  Metrics().inflight.Add(1);
  struct InflightGuard {
    metrics::Gauge& gauge;
    ~InflightGuard() { gauge.Sub(1); }
  } inflight_guard{Metrics().inflight};

  while (!stopping_.load(std::memory_order_relaxed)) {
    // Per request, so an idle session holds no frame buffer.
    net::FrameBuffer frame;
    const Status received = net::RecvFrame(socket, frame);
    if (!received.ok()) {
      // kUnavailable at a frame boundary is a normal client disconnect.
      if (received.code() != StatusCode::kUnavailable) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        DPFS_LOG_DEBUG << "session recv: " << received.ToString();
      }
      return;
    }
    net::Reply reply = HandleRequest(frame.bytes());
    if (auto fp = failpoint::Check("server.before_reply")) {
      if (fp->action == failpoint::Action::kDisconnect) {
        // Drop the session with the reply unsent: the client sees a dead
        // connection after a request it cannot know the fate of.
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (fp->action == failpoint::Action::kReturnError) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        reply = net::Reply{fp->status, {}};
      }
    }
    const Status sent = net::SendReply(socket, reply);
    if (!sent.ok()) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

net::Reply IoServer::HandleRequest(ByteSpan frame) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  const Result<net::DecodedRequest> decoded = net::DecodeRequest(frame);
  if (!decoded.ok()) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    Metrics().bad_requests.Add();
    return net::Reply{decoded.status(), {}};
  }
  const net::MessageType type = decoded.value().type;
  BinaryReader reader(decoded.value().body);
  const int op = static_cast<int>(type);
  if (Metrics().requests[op] == nullptr) {
    // Metadata opcodes (kMeta*) decode fine but are served by dpfs-metad,
    // not an I/O server — their slots in the per-op arrays stay null.
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    Metrics().bad_requests.Add();
    return net::Reply{
        ProtocolError(std::string(net::MessageTypeName(type)) +
                      " is a metadata opcode; not served by an I/O server"),
        {}};
  }
  Metrics().requests[op]->Add();
  metrics::ScopedTimer timer(*Metrics().service_time_us[op]);
  return Dispatch(type, reader);
}

net::Reply IoServer::Dispatch(net::MessageType type,
                               BinaryReader& reader) {
  switch (type) {
    case net::MessageType::kPing:
      return net::Reply{Status::Ok(), {}};

    case net::MessageType::kRead: {
      Result<net::ReadRequest> request = net::ReadRequest::Decode(reader);
      if (!request.ok()) return net::Reply{request.status(), {}};
      if (options_.engine == ServerEngine::kEventLoop) {
        // Server-side request batching (docs/ASYNC_SERVER.md): adjacent
        // bricks collapse to one store op; reply bytes are unchanged, so
        // this stays inside the opt-in engine.
        const std::size_t before = request.value().fragments.size();
        request.value().fragments =
            CoalesceAdjacentReads(std::move(request.value().fragments));
        Metrics().coalesced_fragments.Add(
            before - request.value().fragments.size());
      }
      Result<Bytes> data =
          store_.ReadFragments(request.value().subfile,
                               request.value().fragments);
      if (!data.ok()) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        return net::Reply{data.status(), {}};
      }
      stats_.bytes_read.fetch_add(data.value().size(),
                                  std::memory_order_relaxed);
      return net::Reply{Status::Ok(), std::move(data).value()};
    }

    case net::MessageType::kWrite: {
      Result<net::WriteRequest> request = net::WriteRequest::Decode(reader);
      if (!request.ok()) return net::Reply{request.status(), {}};
      const std::uint64_t payload = request.value().total_bytes();
      if (options_.engine == ServerEngine::kEventLoop) {
        const std::size_t before = request.value().fragments.size();
        request.value().fragments =
            CoalesceAdjacentWrites(std::move(request.value().fragments));
        Metrics().coalesced_fragments.Add(
            before - request.value().fragments.size());
      }
      const Status written = store_.WriteFragments(request.value().subfile,
                                                   request.value().fragments,
                                                   request.value().sync);
      if (!written.ok()) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        return net::Reply{written, {}};
      }
      stats_.bytes_written.fetch_add(payload, std::memory_order_relaxed);
      return net::Reply{Status::Ok(), {}};
    }

    case net::MessageType::kListRead: {
      // Noncontiguous list read (docs/NONCONTIGUOUS_IO.md): the decoder has
      // already enforced the extent rules, so the store can iterate the
      // extents directly — same fragment machinery as kRead, one reply.
      Result<net::ListReadRequest> request =
          net::ListReadRequest::Decode(reader);
      if (!request.ok()) return net::Reply{request.status(), {}};
      Metrics().list_extents.Add(request.value().extents.size());
      if (options_.engine == ServerEngine::kEventLoop) {
        const std::size_t before = request.value().extents.size();
        request.value().extents =
            CoalesceAdjacentReads(std::move(request.value().extents));
        Metrics().coalesced_fragments.Add(
            before - request.value().extents.size());
      }
      Result<Bytes> data = store_.ReadFragments(request.value().subfile,
                                                request.value().extents);
      if (!data.ok()) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        return net::Reply{data.status(), {}};
      }
      stats_.bytes_read.fetch_add(data.value().size(),
                                  std::memory_order_relaxed);
      return net::Reply{Status::Ok(), std::move(data).value()};
    }

    case net::MessageType::kListWrite: {
      Result<net::ListWriteRequest> request =
          net::ListWriteRequest::Decode(reader);
      if (!request.ok()) return net::Reply{request.status(), {}};
      Metrics().list_extents.Add(request.value().extents.size());
      const std::uint64_t payload = request.value().total_bytes();
      // Scatter the batched payload into per-extent fragments (the decoder
      // guarantees the payload size equals the extent sum); the store's
      // write path is shared with kWrite from here.
      std::vector<net::WriteFragment> fragments;
      fragments.reserve(request.value().extents.size());
      std::size_t cursor = 0;
      for (const net::ReadFragment& extent : request.value().extents) {
        net::WriteFragment fragment;
        fragment.offset = extent.offset;
        fragment.data.assign(
            request.value().data.begin() + static_cast<std::ptrdiff_t>(cursor),
            request.value().data.begin() +
                static_cast<std::ptrdiff_t>(cursor + extent.length));
        cursor += extent.length;
        fragments.push_back(std::move(fragment));
      }
      if (options_.engine == ServerEngine::kEventLoop) {
        const std::size_t before = fragments.size();
        fragments = CoalesceAdjacentWrites(std::move(fragments));
        Metrics().coalesced_fragments.Add(before - fragments.size());
      }
      const Status written = store_.WriteFragments(
          request.value().subfile, fragments, request.value().sync);
      if (!written.ok()) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        return net::Reply{written, {}};
      }
      stats_.bytes_written.fetch_add(payload, std::memory_order_relaxed);
      return net::Reply{Status::Ok(), {}};
    }

    case net::MessageType::kStat: {
      const Result<std::string> subfile = reader.ReadString();
      if (!subfile.ok()) return net::Reply{subfile.status(), {}};
      const Result<net::StatReply> stat = store_.Stat(subfile.value());
      if (!stat.ok()) return net::Reply{stat.status(), {}};
      BinaryWriter body;
      body.WriteBool(stat.value().exists);
      body.WriteU64(stat.value().size);
      return net::Reply{Status::Ok(), std::move(body).TakeBuffer()};
    }

    case net::MessageType::kDelete: {
      const Result<std::string> subfile = reader.ReadString();
      if (!subfile.ok()) return net::Reply{subfile.status(), {}};
      return net::Reply{store_.Delete(subfile.value()), {}};
    }

    case net::MessageType::kTruncate: {
      const Result<std::string> subfile = reader.ReadString();
      if (!subfile.ok()) return net::Reply{subfile.status(), {}};
      const Result<std::uint64_t> size = reader.ReadU64();
      if (!size.ok()) return net::Reply{size.status(), {}};
      return net::Reply{
          store_.Truncate(subfile.value(), size.value()), {}};
    }

    case net::MessageType::kList: {
      const Result<std::vector<net::SubfileInfo>> listing =
          store_.ListSubfiles();
      if (!listing.ok()) return net::Reply{listing.status(), {}};
      BinaryWriter body;
      body.WriteU32(static_cast<std::uint32_t>(listing.value().size()));
      for (const net::SubfileInfo& info : listing.value()) {
        body.WriteString(info.name);
        body.WriteU64(info.size);
      }
      return net::Reply{Status::Ok(), std::move(body).TakeBuffer()};
    }

    case net::MessageType::kRename: {
      const Result<std::string> from = reader.ReadString();
      if (!from.ok()) return net::Reply{from.status(), {}};
      const Result<std::string> to = reader.ReadString();
      if (!to.ok()) return net::Reply{to.status(), {}};
      return net::Reply{store_.Rename(from.value(), to.value()), {}};
    }

    case net::MessageType::kShutdown:
      stopping_.store(true, std::memory_order_relaxed);
      StopAcceptingAsync();
      return net::Reply{Status::Ok(), {}};

    case net::MessageType::kStats: {
      net::StatsReply stats;
      stats.requests = stats_.requests.load(std::memory_order_relaxed);
      stats.bytes_read = stats_.bytes_read.load(std::memory_order_relaxed);
      stats.bytes_written =
          stats_.bytes_written.load(std::memory_order_relaxed);
      stats.sessions_accepted =
          stats_.sessions_accepted.load(std::memory_order_relaxed);
      stats.errors = stats_.errors.load(std::memory_order_relaxed);
      stats.fd_cache_hits = store_.fd_cache().hits();
      stats.fd_cache_misses = store_.fd_cache().misses();
      const Result<std::uint64_t> stored = store_.TotalBytesStored();
      stats.stored_bytes = stored.ok() ? stored.value() : 0;
      BinaryWriter body;
      stats.Encode(body);
      return net::Reply{Status::Ok(), std::move(body).TakeBuffer()};
    }

    case net::MessageType::kMetrics: {
      // The full text exposition of the process-wide registry (every
      // component, not just this server's counters); in the multi-process
      // deployment each dpfsd answers with its own process's snapshot.
      BinaryWriter body;
      body.WriteString(metrics::Registry::Global().TextSnapshot());
      return net::Reply{Status::Ok(), std::move(body).TakeBuffer()};
    }

    default:
      // kMeta* — rejected in HandleRequest before the per-op metric arrays;
      // unreachable here, but the switch must stay total under -Wswitch.
      break;
  }
  return net::Reply{ProtocolError("unhandled message type"), {}};
}

void IoServer::StopAcceptingAsync() {
  if (event_loop_) {
    // Runs on the loop thread itself (kShutdown is serviced there), so only
    // signal; the reactor flushes the shutdown reply during its drain and
    // the eventual Stop() joins.
    event_loop_->SignalStop();
  } else {
    listener_.Close();  // unblocks the accept thread
  }
}

void IoServer::MetricsDumpLoop() {
  const std::filesystem::path path = options_.metrics_dump_path.empty()
                                         ? options_.root_dir / "metrics.txt"
                                         : options_.metrics_dump_path;
  {
    MutexLock lock(dump_mu_);
    while (!dump_stop_) {
      if (dump_cv_.WaitFor(dump_mu_, options_.metrics_dump_interval)) {
        continue;  // notified: re-check dump_stop_
      }
      DumpSnapshot(path);
    }
  }
  // Final snapshot on shutdown so even a short run leaves one behind.
  DumpSnapshot(path);
}

}  // namespace dpfs::server
