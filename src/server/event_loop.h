// Event-driven I/O server engine: an epoll reactor with nonblocking
// per-connection state machines and server-side request batching.
//
// The paper's server "spawn[s] multiple processes or threads" per client;
// that model caps sessions at the thread budget and pays a stack + context
// switch per connection. This engine is the opt-in alternative
// (ServerOptions::engine = ServerEngine::kEventLoop): one thread multiplexes
// every connection through epoll, frames are decoded incrementally as bytes
// arrive (net::FrameDecoder), replies queue on per-connection write buffers
// with backpressure, and all requests drained from a connection in one wake
// are serviced as a batch — carrying the paper's §4 request-combination idea
// into the server itself (adjacent bricks coalesce into single store ops).
// Design notes and batching rules: docs/ASYNC_SERVER.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/messages.h"
#include "net/socket.h"

namespace dpfs::server {

struct ServerStats;  // io_server.h; the engines share one counter block

/// Merges runs of fragments that are adjacent *in request order*
/// (fragment[i] ends exactly where fragment[i+1] begins). The concatenated
/// reply bytes are unchanged by construction, so this is safe on any read
/// request; the store then pays one pread per run instead of one per brick.
/// A combined §4.2 request for consecutive bricks of a subfile collapses to
/// a single fragment.
std::vector<net::ReadFragment> CoalesceAdjacentReads(
    std::vector<net::ReadFragment> fragments);

/// Write-side twin: adjacent-in-order write fragments merge into one
/// contiguous fragment (one pwrite). Overlapping or out-of-order fragments
/// are never merged, preserving last-writer-wins byte semantics exactly.
std::vector<net::WriteFragment> CoalesceAdjacentWrites(
    std::vector<net::WriteFragment> fragments);

/// The epoll reactor. Owns the listener, every accepted connection, and one
/// loop thread. IoServer wires it up in Start() and supplies the request
/// handler (the same HandleRequest both engines share, so opcode dispatch,
/// per-opcode metrics, and failpoints behave identically).
class EventLoop {
 public:
  struct Options {
    /// Concurrent session cap; connections beyond it get one "server busy"
    /// reply and are dropped, exactly like the thread engine (§4.2).
    std::size_t max_sessions = 0;
    /// Per-connection reply-backlog bytes beyond which the loop stops
    /// reading that connection (write backpressure): a slow reader cannot
    /// balloon server memory. Reading resumes once the backlog drains.
    std::size_t max_write_backlog = 4u << 20;
    /// Failpoint site checked between servicing a request and queueing its
    /// reply (docs/FAULT_INJECTION.md). The I/O server keeps the default;
    /// the metadata server passes "metad.reply" so chaos tests target one
    /// service without disturbing the other.
    std::string reply_failpoint = "server.before_reply";
  };

  /// Services one decoded request frame; returns the reply's status and
  /// body, which the loop frames straight onto the connection's queue.
  using Handler = std::function<net::Reply(ByteSpan)>;

  /// Takes ownership of a bound listener and starts the loop thread.
  static Result<std::unique_ptr<EventLoop>> Start(net::TcpListener listener,
                                                  Handler handler,
                                                  ServerStats* stats,
                                                  Options options);

  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Stops accepting, flushes pending replies (bounded drain), closes every
  /// connection, and joins the loop thread. Idempotent, callable from any
  /// thread except the loop thread itself.
  void Stop();

  /// Async stop: signal only, no join. The kShutdown opcode calls this from
  /// inside the handler (i.e. on the loop thread), where joining would
  /// deadlock; the queued shutdown reply is still flushed during drain.
  void SignalStop();

 private:
  /// Per-connection nonblocking state machine (docs/ASYNC_SERVER.md).
  struct Conn {
    net::TcpSocket socket;
    net::FrameDecoder decoder;
    Bytes out;                // encoded reply bytes not yet on the wire
    std::size_t out_off = 0;  // prefix of `out` already sent
    std::uint32_t interest = 0;      // epoll events currently registered
    bool paused_read = false;   // EPOLLIN suppressed (backpressure / drain)
    bool reject_busy = false;   // over the session cap: busy-reply and drop
    bool close_after_flush = false;  // busy reject or shutdown drain
    bool counted_inflight = false;   // io_server.inflight_sessions held
  };

  EventLoop(net::TcpListener listener, Handler handler, ServerStats* stats,
            Options options);

  void Run();
  void HandleAccept();
  void HandleReadable(int fd);
  void HandleWritable(int fd);
  /// Drains complete frames from `conn`, services them as one batch, and
  /// queues replies. Returns false if the connection must close.
  bool ServiceBatch(int fd, Conn& conn);
  /// Pushes queued bytes to the socket; manages EPOLLOUT registration.
  /// Returns false if the connection died mid-send.
  bool Flush(int fd, Conn& conn);
  void UpdateInterest(int fd, Conn& conn);
  void CloseConn(int fd);
  void BeginDrain();

  net::TcpListener listener_;
  Handler handler_;
  ServerStats* stats_;
  Options options_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Stop()/SignalStop() wake the loop
  std::atomic<bool> stopping_{false};
  // Everything below is touched by the loop thread only.
  bool draining_ = false;
  std::map<int, Conn> conns_;
  std::size_t serving_ = 0;  // conns counted against max_sessions
  std::thread thread_;
};

}  // namespace dpfs::server
