#include "server/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/metrics.h"
#include "server/io_server.h"

namespace dpfs::server {

namespace {

/// Reactor instruments (docs/OBSERVABILITY.md). inflight_sessions and
/// busy_rejects are shared with the thread engine by name.
struct LoopMetrics {
  metrics::Gauge& inflight =
      metrics::GetGauge("io_server.inflight_sessions");
  metrics::Histogram& batch_size =
      metrics::GetHistogram("io_server.batch_size");
  metrics::Counter& epoll_wake = metrics::GetCounter("io_server.epoll_wake");
  metrics::Counter& busy_rejects =
      metrics::GetCounter("io_server.busy_rejects");
};
LoopMetrics& Metrics() {
  static LoopMetrics m;
  return m;
}

/// Per-RecvSome scratch size; a wake drains at most kMaxReadPerWake bytes
/// from one connection before servicing, so one firehose client cannot
/// monopolize the loop (level-triggered epoll re-arms immediately).
constexpr std::size_t kReadChunk = 64u << 10;
constexpr std::size_t kMaxReadPerWake = 1u << 20;

/// How long Stop()/kShutdown waits for queued replies to reach slow readers
/// before closing their connections anyway.
constexpr std::chrono::milliseconds kDrainBudget{500};

}  // namespace

std::vector<net::ReadFragment> CoalesceAdjacentReads(
    std::vector<net::ReadFragment> fragments) {
  std::vector<net::ReadFragment> merged;
  merged.reserve(fragments.size());
  for (const net::ReadFragment& fragment : fragments) {
    if (!merged.empty() &&
        merged.back().length <= UINT64_MAX - merged.back().offset &&
        merged.back().offset + merged.back().length == fragment.offset) {
      merged.back().length += fragment.length;
    } else {
      merged.push_back(fragment);
    }
  }
  return merged;
}

std::vector<net::WriteFragment> CoalesceAdjacentWrites(
    std::vector<net::WriteFragment> fragments) {
  std::vector<net::WriteFragment> merged;
  merged.reserve(fragments.size());
  for (net::WriteFragment& fragment : fragments) {
    if (!merged.empty() &&
        merged.back().data.size() <= UINT64_MAX - merged.back().offset &&
        merged.back().offset + merged.back().data.size() == fragment.offset) {
      merged.back().data.insert(merged.back().data.end(),
                                fragment.data.begin(), fragment.data.end());
    } else {
      merged.push_back(std::move(fragment));
    }
  }
  return merged;
}

EventLoop::EventLoop(net::TcpListener listener, Handler handler,
                     ServerStats* stats, Options options)
    : listener_(std::move(listener)),
      handler_(std::move(handler)),
      stats_(stats),
      options_(options) {}

Result<std::unique_ptr<EventLoop>> EventLoop::Start(net::TcpListener listener,
                                                    Handler handler,
                                                    ServerStats* stats,
                                                    Options options) {
  DPFS_RETURN_IF_ERROR(listener.SetNonBlocking());
  std::unique_ptr<EventLoop> loop(new EventLoop(
      std::move(listener), std::move(handler), stats, options));
  loop->epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (loop->epoll_fd_ < 0) return IoErrnoError("epoll_create1", "event_loop");
  loop->wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (loop->wake_fd_ < 0) return IoErrnoError("eventfd", "event_loop");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = loop->listener_.fd();
  if (::epoll_ctl(loop->epoll_fd_, EPOLL_CTL_ADD, loop->listener_.fd(),
                  &ev) != 0) {
    return IoErrnoError("epoll_ctl add listener", "event_loop");
  }
  ev.data.fd = loop->wake_fd_;
  if (::epoll_ctl(loop->epoll_fd_, EPOLL_CTL_ADD, loop->wake_fd_, &ev) != 0) {
    return IoErrnoError("epoll_ctl add eventfd", "event_loop");
  }
  loop->thread_ = std::thread([raw = loop.get()] { raw->Run(); });
  return loop;
}

EventLoop::~EventLoop() {
  Stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::SignalStop() {
  stopping_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) ::eventfd_write(wake_fd_, 1);
}

void EventLoop::Stop() {
  SignalStop();
  if (thread_.joinable()) thread_.join();
}

void EventLoop::Run() {
  const int listen_fd = listener_.fd();
  std::chrono::steady_clock::time_point drain_deadline{};
  epoll_event events[64];
  for (;;) {
    if (stopping_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain();
      drain_deadline = std::chrono::steady_clock::now() + kDrainBudget;
    }
    int timeout_ms = -1;
    if (draining_) {
      if (conns_.empty()) break;
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              drain_deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) break;
      timeout_ms = static_cast<int>(std::min<long long>(remaining, 50));
    }
    const int n = ::epoll_wait(epoll_fd_, events, std::size(events),
                               timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      DPFS_LOG_WARN << "epoll_wait: " << std::strerror(errno);
      break;
    }
    Metrics().epoll_wake.Add();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        eventfd_t value = 0;
        ::eventfd_read(wake_fd_, &value);
        continue;
      }
      if (fd == listen_fd) {
        if (!draining_) HandleAccept();
        continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(fd);
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 &&
          conns_.count(fd) != 0) {
        HandleReadable(fd);
      }
    }
  }
  // Whatever survives the drain budget is cut off here.
  while (!conns_.empty()) CloseConn(conns_.begin()->first);
  listener_.Close();
}

void EventLoop::BeginDrain() {
  draining_ = true;
  listener_.Close();  // the kernel drops it from the epoll set on close
  std::vector<int> done;
  for (auto& [fd, conn] : conns_) {
    conn.paused_read = true;
    conn.close_after_flush = true;
    if (conn.out_off == conn.out.size()) {
      done.push_back(fd);
    } else {
      UpdateInterest(fd, conn);
    }
  }
  for (const int fd : done) CloseConn(fd);
}

void EventLoop::HandleAccept() {
  for (;;) {
    Result<std::optional<net::TcpSocket>> accepted =
        listener_.AcceptNonBlocking();
    if (!accepted.ok()) return;  // listener torn down under us: stopping
    if (!accepted.value().has_value()) return;  // backlog drained
    net::TcpSocket socket = std::move(accepted.value().value());
    if (!socket.SetNonBlocking(true).ok()) continue;
    stats_->sessions_accepted.fetch_add(1, std::memory_order_relaxed);

    Conn conn;
    conn.reject_busy =
        options_.max_sessions > 0 && serving_ >= options_.max_sessions;
    if (!conn.reject_busy) {
      // Same §4.2 busy-storm hook as the thread engine's session entry.
      if (const auto fp = failpoint::Check("server.session");
          fp.has_value() && fp->action == failpoint::Action::kBusy) {
        conn.reject_busy = true;
      }
    }
    if (conn.reject_busy) {
      stats_->sessions_rejected_busy.fetch_add(1, std::memory_order_relaxed);
      Metrics().busy_rejects.Add();
    }

    const int fd = socket.fd();
    conn.socket = std::move(socket);
    conn.interest = EPOLLIN;
    epoll_event ev{};
    ev.events = conn.interest;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      DPFS_LOG_WARN << "epoll_ctl add conn: " << std::strerror(errno);
      continue;  // Conn destructor closes the socket
    }
    if (!conn.reject_busy) {
      conn.counted_inflight = true;
      ++serving_;
      Metrics().inflight.Add(1);
    }
    conns_.emplace(fd, std::move(conn));
  }
}

void EventLoop::HandleReadable(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.paused_read) return;  // stale level-triggered wake

  std::uint8_t chunk[kReadChunk];
  std::size_t total = 0;
  bool peer_closed = false;
  while (total < kMaxReadPerWake) {
    const Result<net::TcpSocket::SomeIo> got =
        conn.socket.RecvSome({chunk, sizeof(chunk)});
    if (!got.ok()) {
      // Mirror the thread engine: kUnavailable at a frame boundary is a
      // normal disconnect, anything else is an error.
      if (got.status().code() != StatusCode::kUnavailable ||
          conn.decoder.mid_frame()) {
        stats_->errors.fetch_add(1, std::memory_order_relaxed);
        DPFS_LOG_DEBUG << "event conn recv: " << got.status().ToString();
      }
      CloseConn(fd);
      return;
    }
    if (got.value().bytes > 0) {
      conn.decoder.Append({chunk, got.value().bytes});
      total += got.value().bytes;
    }
    if (got.value().closed) {
      peer_closed = true;
      break;
    }
    if (got.value().bytes == 0) break;  // would block
  }

  if (!ServiceBatch(fd, conn)) {
    CloseConn(fd);
    return;
  }
  if (peer_closed) {
    if (conn.decoder.mid_frame()) {
      // Truncated mid-message — the thread engine's kProtocolError case.
      stats_->errors.fetch_add(1, std::memory_order_relaxed);
    }
    if (conn.out_off == conn.out.size()) {
      CloseConn(fd);
      return;
    }
    // Half-close: the peer may still be reading; flush replies, then close.
    conn.paused_read = true;
    conn.close_after_flush = true;
  }
  UpdateInterest(fd, conn);
}

bool EventLoop::ServiceBatch(int fd, Conn& conn) {
  std::size_t batch = 0;
  Bytes frame;
  for (;;) {
    const Result<bool> has_frame = conn.decoder.Next(frame);
    if (!has_frame.ok()) {
      // Oversize or corrupt frame poisons the stream; drop the connection
      // (the thread engine's RecvFrame error path).
      stats_->errors.fetch_add(1, std::memory_order_relaxed);
      DPFS_LOG_DEBUG << "event conn decode: "
                     << has_frame.status().ToString();
      return false;
    }
    if (!has_frame.value()) break;

    net::Reply reply;
    if (conn.reject_busy) {
      // §4.2: answer the first request with "busy" so the client backs off
      // and retries, then drop the session (remaining frames unserviced).
      reply.status = ResourceExhaustedError("server busy, retry later");
      conn.paused_read = true;
      conn.close_after_flush = true;
    } else {
      reply = handler_(frame);
      ++batch;
      if (auto fp = failpoint::Check(options_.reply_failpoint.c_str())) {
        if (fp->action == failpoint::Action::kDisconnect) {
          stats_->errors.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        if (fp->action == failpoint::Action::kReturnError) {
          stats_->errors.fetch_add(1, std::memory_order_relaxed);
          reply = net::Reply{fp->status, {}};
        }
      }
    }
    if (!net::AppendReply(conn.out, reply).ok()) {
      stats_->errors.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (conn.close_after_flush) break;
    if (stopping_.load(std::memory_order_acquire)) {
      // kShutdown just ran on this thread; finish its reply, service no
      // further frames (the session loop's stopping_ check).
      conn.paused_read = true;
      conn.close_after_flush = true;
      break;
    }
  }
  if (batch > 0) Metrics().batch_size.Observe(batch);
  if (!Flush(fd, conn)) return false;
  if (conn.close_after_flush && conn.out_off == conn.out.size()) {
    return false;  // busy reply / shutdown reply fully on the wire
  }
  if (!conn.close_after_flush) {
    // Write backpressure: stop reading while this peer's reply backlog is
    // over budget; HandleWritable resumes reads once it half-drains.
    conn.paused_read =
        conn.out.size() - conn.out_off > options_.max_write_backlog;
  }
  return true;
}

bool EventLoop::Flush(int fd, Conn& conn) {
  (void)fd;
  while (conn.out_off < conn.out.size()) {
    const Result<std::size_t> sent =
        conn.socket.SendSome(ByteSpan(conn.out).subspan(conn.out_off));
    if (!sent.ok()) {
      stats_->errors.fetch_add(1, std::memory_order_relaxed);
      DPFS_LOG_DEBUG << "event conn send: " << sent.status().ToString();
      return false;
    }
    if (sent.value() == 0) break;  // socket buffer full
    conn.out_off += sent.value();
  }
  if (conn.out_off == conn.out.size()) {
    // An idle connection keeps no buffer sized for its largest reply.
    if (conn.out.capacity() > kReadChunk) {
      conn.out = Bytes();
    } else {
      conn.out.clear();
    }
    conn.out_off = 0;
  } else if (conn.out_off >= (256u << 10)) {
    conn.out.erase(conn.out.begin(),
                   conn.out.begin() + static_cast<std::ptrdiff_t>(conn.out_off));
    conn.out_off = 0;
  }
  return true;
}

void EventLoop::HandleWritable(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (!Flush(fd, conn)) {
    CloseConn(fd);
    return;
  }
  if (conn.out_off == conn.out.size() && conn.close_after_flush) {
    CloseConn(fd);
    return;
  }
  if (!conn.close_after_flush && conn.paused_read &&
      conn.out.size() - conn.out_off <= options_.max_write_backlog / 2) {
    conn.paused_read = false;  // half-drained: resume reads (hysteresis)
  }
  UpdateInterest(fd, conn);
}

void EventLoop::UpdateInterest(int fd, Conn& conn) {
  std::uint32_t want = 0;
  if (!conn.paused_read) want |= EPOLLIN;
  if (conn.out_off < conn.out.size()) want |= EPOLLOUT;
  if (want == conn.interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0) {
    conn.interest = want;
  }
}

void EventLoop::CloseConn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // Deregister only while the socket still owns the descriptor. A failpoint
  // (net.recv_some / net.send_some kDisconnect) may have closed it already —
  // the kernel dropped the epoll registration at close, and the fd number can
  // be reused by a concurrent thread, so epoll_ctl on it would race.
  if (it->second.socket.fd() >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
  if (it->second.counted_inflight) {
    --serving_;
    Metrics().inflight.Sub(1);
  }
  conns_.erase(it);  // TcpSocket destructor closes the fd
}

}  // namespace dpfs::server
