// Seeded violations: the blocking send primitives reachable from the
// reactor root server::EventLoop::Run with no dpfs:blocking-ok waiver — the
// gathered send TcpSocket::SendAll, the sendmsg under it, and a plain send.
// The deep lint must report reactor-blocking three times on this file.
// Fixture only — never compiled; parsed by the textual frontend.

namespace dpfs::server {

class EventLoop {
 public:
  void Run() {
    while (Tick()) {
      QueueReply();
      Flush();
      Nudge();
    }
  }

 private:
  bool Tick() { return false; }

  void QueueReply() { socket_.SendAll(parts_); }

  void Flush() { ::sendmsg(fd_, &message_, MSG_NOSIGNAL); }

  void Nudge() { ::send(fd_, &byte_, 1, MSG_NOSIGNAL); }

  net::TcpSocket socket_;
  std::vector<ByteSpan> parts_;
  msghdr message_;
  char byte_ = 0;
  int fd_ = -1;
};

}  // namespace dpfs::server
