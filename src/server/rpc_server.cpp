#include "server/rpc_server.h"

#include <sys/socket.h>

#include "common/failpoint.h"
#include "common/log.h"
#include "net/frame.h"
#include "server/metrics_http.h"

namespace dpfs::server {

Result<std::unique_ptr<RpcServer>> RpcServer::Bind(Config config) {
  DPFS_ASSIGN_OR_RETURN(net::TcpListener listener,
                        net::TcpListener::Bind(config.port));
  return std::unique_ptr<RpcServer>(
      new RpcServer(std::move(config), std::move(listener)));
}

RpcServer::RpcServer(Config config, net::TcpListener listener)
    : config_(std::move(config)),
      listener_(std::move(listener)),
      endpoint_{"127.0.0.1", listener_.port()},
      bad_requests_(
          metrics::GetCounter(config_.metric_prefix + ".bad_requests")),
      busy_rejects_(
          metrics::GetCounter(config_.metric_prefix + ".busy_rejects")),
      inflight_(
          metrics::GetGauge(config_.metric_prefix + ".inflight_sessions")) {
  std::vector<net::MessageType> served = config_.opcodes;
  served.insert(served.end(), {net::MessageType::kPing,
                               net::MessageType::kShutdown,
                               net::MessageType::kMetrics});
  for (const net::MessageType type : served) {
    const int op = static_cast<int>(type);
    const std::string name(net::MessageTypeName(type));
    requests_[op] =
        &metrics::GetCounter(config_.metric_prefix + ".requests." + name);
    service_time_us_[op] = &metrics::GetHistogram(
        config_.metric_prefix + ".service_time_us." + name);
  }
}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Serve(Handler handler) {
  handler_ = std::move(handler);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (config_.metrics_port != 0) {
    DPFS_ASSIGN_OR_RETURN(
        metrics_http_,
        MetricsHttpServer::Start(config_.metrics_port == kEphemeralMetricsPort
                                     ? 0
                                     : config_.metrics_port));
  }
  return Status::Ok();
}

std::uint16_t RpcServer::metrics_http_port() const noexcept {
  return metrics_http_ == nullptr ? 0 : metrics_http_->port();
}

void RpcServer::StopAccepting() {
  stopping_.store(true, std::memory_order_relaxed);
  listener_.Close();  // unblocks the accept thread
}

void RpcServer::Stop() {
  if (metrics_http_) metrics_http_->Stop();
  StopAccepting();
  if (accept_thread_.joinable()) accept_thread_.join();
  MutexLock lock(sessions_mu_);
  for (const auto& [id, session] : sessions_) {
    ::shutdown(session.fd, SHUT_RDWR);  // unblocks RecvFrame in the session
  }
  while (!sessions_.empty()) sessions_cv_.Wait(sessions_mu_);
  for (std::thread& thread : finished_) thread.join();
  finished_.clear();
}

void RpcServer::ReapFinished() {
  std::vector<std::thread> finished;
  {
    MutexLock lock(sessions_mu_);
    finished.swap(finished_);
  }
  for (std::thread& thread : finished) thread.join();
}

void RpcServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<net::TcpSocket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      DPFS_LOG_WARN << config_.metric_prefix
                    << " accept failed: " << accepted.status().ToString();
      return;
    }
    stats_.sessions_accepted.fetch_add(1, std::memory_order_relaxed);
    ReapFinished();
    MutexLock lock(sessions_mu_);
    const std::uint64_t id = next_session_++;
    Session& session = sessions_[id];
    session.fd = accepted.value().fd();
    // The new thread blocks on sessions_mu_ at its end, so the handle is
    // stored before the session can retire it.
    session.thread = std::thread(
        [this, id, socket = std::move(accepted).value()]() mutable {
          RunSession(id, std::move(socket));
        });
  }
}

void RpcServer::RunSession(std::uint64_t id, net::TcpSocket socket) {
  ServeSession(socket);
  MutexLock lock(sessions_mu_);
  // Deregister before the socket closes: once closed, its fd number may be
  // reused by another connection that Stop() must not shut down.
  auto node = sessions_.extract(id);
  finished_.push_back(std::move(node.mapped().thread));
  socket.Close();
  sessions_cv_.NotifyAll();
}

bool RpcServer::RejectIfBusy(net::TcpSocket& socket, std::size_t concurrent) {
  bool busy = config_.max_sessions > 0 && concurrent > config_.max_sessions;
  if (!busy && config_.session_failpoint != nullptr) {
    // kBusy simulates §4.2's overloaded server without needing
    // max_sessions pressure (busy-storm chaos schedules).
    const auto fp = failpoint::Check(config_.session_failpoint);
    busy = fp.has_value() && fp->action == failpoint::Action::kBusy;
  }
  if (!busy) return false;
  // §4.2's overloaded server: answer one request with "busy" so the client
  // backs off and retries, then drop the session.
  stats_.sessions_rejected_busy.fetch_add(1, std::memory_order_relaxed);
  busy_rejects_.Add();
  if (net::FrameBuffer frame; net::RecvFrame(socket, frame).ok()) {
    // dpfs:unchecked(best-effort courtesy reply before dropping the
    // session; the client treats a vanished connection the same way)
    (void)net::SendReply(
        socket, {ResourceExhaustedError("server busy, retry later"), {}});
  }
  return true;
}

void RpcServer::ServeSession(net::TcpSocket& socket) {
  const std::size_t concurrent =
      active_sessions_.fetch_add(1, std::memory_order_relaxed) + 1;
  struct SessionGuard {
    std::atomic<std::size_t>& counter;
    ~SessionGuard() { counter.fetch_sub(1, std::memory_order_relaxed); }
  } guard{active_sessions_};
  if (RejectIfBusy(socket, concurrent)) return;

  // Serving for real from here: show up in the inflight_sessions gauge
  // (rejected-busy sessions above deliberately don't).
  inflight_.Add(1);
  struct InflightGuard {
    metrics::Gauge& gauge;
    ~InflightGuard() { gauge.Sub(1); }
  } inflight_guard{inflight_};

  while (!stopping_.load(std::memory_order_relaxed)) {
    // Per request, so an idle session holds no frame buffer.
    net::FrameBuffer frame;
    const Status received = net::RecvFrame(socket, frame);
    if (!received.ok()) {
      // kUnavailable at a frame boundary is a normal client disconnect.
      if (received.code() != StatusCode::kUnavailable) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        DPFS_LOG_DEBUG << config_.metric_prefix
                       << " session recv: " << received.ToString();
      }
      return;
    }
    net::Reply reply = HandleRequest(frame.bytes());
    if (auto fp = failpoint::Check(config_.reply_failpoint)) {
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
    if (!net::SendReply(socket, reply).ok()) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

net::Reply RpcServer::HandleRequest(ByteSpan frame) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  const Result<net::DecodedRequest> decoded = net::DecodeRequest(frame);
  if (!decoded.ok()) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    bad_requests_.Add();
    return net::Reply{decoded.status(), {}};
  }
  const net::MessageType type = decoded.value().type;
  const int op = static_cast<int>(type);
  if (requests_[op] == nullptr) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    bad_requests_.Add();
    return net::Reply{
        ProtocolError(std::string(net::MessageTypeName(type)) +
                      config_.refusal),
        {}};
  }
  requests_[op]->Add();
  metrics::ScopedTimer timer(*service_time_us_[op]);
  switch (type) {
    case net::MessageType::kPing:
      return net::Reply{Status::Ok(), {}};
    case net::MessageType::kShutdown:
      StopAccepting();
      return net::Reply{Status::Ok(), {}};
    case net::MessageType::kMetrics: {
      // The full text exposition of the process-wide registry (every
      // component, not just this server's counters); in the multi-process
      // deployment each daemon answers with its own process's snapshot.
      BinaryWriter body;
      body.WriteString(metrics::Registry::Global().TextSnapshot());
      return net::Reply{Status::Ok(), std::move(body).TakeBuffer()};
    }
    default: {
      BinaryReader reader(decoded.value().body);
      return handler_(type, reader);
    }
  }
}

}  // namespace dpfs::server
