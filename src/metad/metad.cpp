#include "metad/metad.h"

#include <sys/socket.h>

#include <string>
#include <utility>

#include "client/meta_wire.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "common/metrics.h"
#include "layout/placement.h"
#include "net/frame.h"
#include "net/messages.h"
#include "server/event_loop.h"
#include "server/metrics_http.h"

namespace dpfs::metad {

namespace {

using client::meta_wire::AccessSummaryReply;
using client::meta_wire::BoolReply;
using client::meta_wire::CreateFileRequest;
using client::meta_wire::FileRecordReply;
using client::meta_wire::ListingReply;
using client::meta_wire::LogAccessRequest;
using client::meta_wire::NameRequest;
using client::meta_wire::PathRequest;
using client::meta_wire::RemoveDirectoryRequest;
using client::meta_wire::RenameRequest;
using client::meta_wire::ServerListReply;
using client::meta_wire::ServerRequest;
using client::meta_wire::SetOwnerRequest;
using client::meta_wire::SetPermissionRequest;
using client::meta_wire::UpdateSizeRequest;

// Per-opcode request counters and service-time histograms for the opcodes
// this service answers (kPing/kShutdown/kMetrics + every kMeta*); names
// follow docs/OBSERVABILITY.md (metad.requests.meta_lookup_file, ...).
// Slots for I/O opcodes stay null — they are refused before counting.
struct OpMetrics {
  metrics::Counter* requests[net::kMaxMessageType + 1] = {};
  metrics::Histogram* service_time_us[net::kMaxMessageType + 1] = {};
  metrics::Counter& bad_requests = metrics::GetCounter("metad.bad_requests");
  metrics::Counter& busy_rejects = metrics::GetCounter("metad.busy_rejects");
  metrics::Gauge& inflight = metrics::GetGauge("metad.inflight_sessions");

  OpMetrics() {
    const auto add = [this](net::MessageType type) {
      const int op = static_cast<int>(type);
      const auto name = std::string(net::MessageTypeName(type));
      requests[op] = &metrics::GetCounter("metad.requests." + name);
      service_time_us[op] =
          &metrics::GetHistogram("metad.service_time_us." + name);
    };
    add(net::MessageType::kPing);
    add(net::MessageType::kShutdown);
    add(net::MessageType::kMetrics);
    for (int op = static_cast<int>(net::MessageType::kMetaRegisterServer);
         op <= net::kMaxMetaMessageType; ++op) {
      add(static_cast<net::MessageType>(op));
    }
  }
};
OpMetrics& Metrics() {
  static OpMetrics m;
  return m;
}

net::Reply StatusReply(const Status& status) {
  return net::Reply{status, {}};
}

template <typename Reply>
net::Reply BodyReply(const Reply& reply) {
  BinaryWriter body;
  reply.Encode(body);
  return net::Reply{Status::Ok(), std::move(body).TakeBuffer()};
}

}  // namespace

Result<std::unique_ptr<MetadService>> MetadService::Start(
    std::shared_ptr<metadb::ShardedDatabase> db, MetadOptions options) {
  if (db == nullptr) {
    return InvalidArgumentError("metad: null database");
  }
  // Attach creates missing tables and rolls forward any cross-shard intent
  // a crashed predecessor left behind — the service's recovery pass.
  DPFS_ASSIGN_OR_RETURN(std::unique_ptr<client::MetadataManager> metadata,
                        client::MetadataManager::Attach(db));
  DPFS_ASSIGN_OR_RETURN(net::TcpListener listener,
                        net::TcpListener::Bind(options.port));
  options.engine = server::ApplyEngineOverride(options.engine);
  std::unique_ptr<MetadService> service(
      new MetadService(std::move(options), std::move(listener), std::move(db),
                       std::move(metadata)));
  if (service->options_.engine == server::ServerEngine::kEventLoop) {
    server::EventLoop::Options loop_options;
    loop_options.max_sessions = service->options_.max_sessions;
    loop_options.reply_failpoint = "metad.reply";
    Result<std::unique_ptr<server::EventLoop>> loop =
        server::EventLoop::Start(
            std::move(service->listener_),
            [raw = service.get()](ByteSpan frame) {
              return raw->HandleRequest(frame);
            },
            &service->stats_, loop_options);
    if (!loop.ok()) return loop.status();
    service->event_loop_ = std::move(loop).value();
  } else {
    service->accept_thread_ = std::thread([raw = service.get()] {
      raw->AcceptLoop();
    });
  }
  if (service->options_.metrics_port != 0) {
    DPFS_ASSIGN_OR_RETURN(
        service->metrics_http_,
        server::MetricsHttpServer::Start(
            service->options_.metrics_port == server::kEphemeralMetricsPort
                ? 0
                : service->options_.metrics_port));
  }
  return service;
}

std::uint16_t MetadService::metrics_http_port() const noexcept {
  return metrics_http_ == nullptr ? 0 : metrics_http_->port();
}

MetadService::MetadService(MetadOptions options, net::TcpListener listener,
                           std::shared_ptr<metadb::ShardedDatabase> db,
                           std::unique_ptr<client::MetadataManager> metadata)
    : options_(std::move(options)),
      listener_(std::move(listener)),
      endpoint_{"127.0.0.1", listener_.port()},
      db_(std::move(db)),
      metadata_(std::move(metadata)) {}

MetadService::~MetadService() { Stop(); }

void MetadService::Stop() {
  stopping_.store(true, std::memory_order_relaxed);
  if (metrics_http_) metrics_http_->Stop();
  if (event_loop_) event_loop_->Stop();
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    MutexLock lock(sessions_mu_);
    for (const int fd : session_fds_) {
      ::shutdown(fd, SHUT_RDWR);  // unblocks RecvFrame in session threads
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

void MetadService::StopAcceptingAsync() {
  if (event_loop_) {
    event_loop_->SignalStop();
  } else {
    listener_.Close();  // unblocks the accept thread
  }
}

void MetadService::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<net::TcpSocket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      DPFS_LOG_WARN << "metad accept failed: "
                    << accepted.status().ToString();
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

void MetadService::Session(net::TcpSocket socket) {
  const std::size_t concurrent =
      active_sessions_.fetch_add(1, std::memory_order_relaxed) + 1;
  struct SessionGuard {
    std::atomic<std::size_t>& counter;
    ~SessionGuard() { counter.fetch_sub(1, std::memory_order_relaxed); }
  } guard{active_sessions_};

  if (options_.max_sessions > 0 && concurrent > options_.max_sessions) {
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
        DPFS_LOG_DEBUG << "metad session recv: " << received.ToString();
      }
      return;
    }
    net::Reply reply = HandleRequest(frame.bytes());
    if (auto fp = failpoint::Check("metad.reply")) {
      if (fp->action == failpoint::Action::kDisconnect) {
        // Drop the session with the reply unsent: the client cannot know
        // whether its mutation committed (the ambiguity chaos tests pin).
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

net::Reply MetadService::HandleRequest(ByteSpan frame) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  const Result<net::DecodedRequest> decoded = net::DecodeRequest(frame);
  if (!decoded.ok()) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    Metrics().bad_requests.Add();
    return StatusReply(decoded.status());
  }
  if (failpoint::Check("metad.crash")) {
    // The service dies under this request: stop serving and answer
    // kUnavailable so the client's view matches an abrupt process death
    // followed by connection refusal.
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    stopping_.store(true, std::memory_order_relaxed);
    StopAcceptingAsync();
    return StatusReply(
        UnavailableError("metadata server crashed (failpoint metad.crash)"));
  }
  const net::MessageType type = decoded.value().type;
  const int op = static_cast<int>(type);
  if (Metrics().requests[op] == nullptr) {
    // An I/O opcode (kRead, kWrite, ...) aimed at the metadata server.
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    Metrics().bad_requests.Add();
    return StatusReply(
        ProtocolError(std::string(net::MessageTypeName(type)) +
                      " is an I/O opcode; not served by the metadata server"));
  }
  Metrics().requests[op]->Add();
  metrics::ScopedTimer timer(*Metrics().service_time_us[op]);
  BinaryReader reader(decoded.value().body);
  return Dispatch(type, reader);
}

// dpfs:blocking-ok(the metadata service intentionally executes durable
// namespace mutations on its loop thread: the WAL commit *is* the service
// time the client is waiting for, and §3.1 serializes metadata ops anyway)
net::Reply MetadService::Dispatch(net::MessageType type,
                                   BinaryReader& reader) {
  switch (type) {
    case net::MessageType::kPing:
      return StatusReply(Status::Ok());

    case net::MessageType::kShutdown:
      stopping_.store(true, std::memory_order_relaxed);
      StopAcceptingAsync();
      return StatusReply(Status::Ok());

    case net::MessageType::kMetrics: {
      BinaryWriter body;
      body.WriteString(metrics::Registry::Global().TextSnapshot());
      return net::Reply{Status::Ok(), std::move(body).TakeBuffer()};
    }

    case net::MessageType::kMetaRegisterServer: {
      const Result<ServerRequest> request = ServerRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->RegisterServer(request.value().server));
    }

    case net::MessageType::kMetaUnregisterServer: {
      const Result<NameRequest> request = NameRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->UnregisterServer(request.value().name));
    }

    case net::MessageType::kMetaListServers: {
      Result<std::vector<client::ServerInfo>> servers =
          metadata_->ListServers();
      if (!servers.ok()) return StatusReply(servers.status());
      ServerListReply reply;
      reply.servers = std::move(servers).value();
      return BodyReply(reply);
    }

    case net::MessageType::kMetaLookupServer: {
      const Result<NameRequest> request = NameRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      Result<client::ServerInfo> server =
          metadata_->LookupServer(request.value().name);
      if (!server.ok()) return StatusReply(server.status());
      BinaryWriter body;
      client::meta_wire::EncodeServerInfo(server.value(), body);
      return net::Reply{Status::Ok(), std::move(body).TakeBuffer()};
    }

    case net::MessageType::kMetaCreateFile: {
      const Result<CreateFileRequest> request =
          CreateFileRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      const Result<layout::BrickMap> map = request.value().meta.MakeBrickMap();
      if (!map.ok()) return StatusReply(map.status());
      std::vector<std::vector<layout::BrickId>> bricklists;
      bricklists.reserve(request.value().bricklists.size());
      for (const std::string& text : request.value().bricklists) {
        Result<std::vector<layout::BrickId>> bricks =
            layout::BrickDistribution::DecodeBrickList(text);
        if (!bricks.ok()) return StatusReply(bricks.status());
        bricklists.push_back(std::move(bricks).value());
      }
      Result<layout::BrickDistribution> distribution =
          layout::BrickDistribution::FromBrickLists(map.value().num_bricks(),
                                                    std::move(bricklists));
      if (!distribution.ok()) return StatusReply(distribution.status());
      std::vector<layout::BrickDistribution> replicas;
      replicas.reserve(request.value().replica_bricklists.size());
      for (const std::vector<std::string>& rank :
           request.value().replica_bricklists) {
        std::vector<std::vector<layout::BrickId>> rank_lists;
        rank_lists.reserve(rank.size());
        for (const std::string& text : rank) {
          Result<std::vector<layout::BrickId>> bricks =
              layout::BrickDistribution::DecodeBrickList(text);
          if (!bricks.ok()) return StatusReply(bricks.status());
          rank_lists.push_back(std::move(bricks).value());
        }
        Result<layout::BrickDistribution> rank_dist =
            layout::BrickDistribution::FromBrickLists(
                map.value().num_bricks(), std::move(rank_lists));
        if (!rank_dist.ok()) return StatusReply(rank_dist.status());
        replicas.push_back(std::move(rank_dist).value());
      }
      return StatusReply(metadata_->CreateFile(request.value().meta,
                                               request.value().server_names,
                                               distribution.value(),
                                               replicas));
    }

    case net::MessageType::kMetaLookupFile: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      Result<client::FileRecord> record =
          metadata_->LookupFile(request.value().path);
      if (!record.ok()) return StatusReply(record.status());
      FileRecordReply reply;
      reply.record = std::move(record).value();
      return BodyReply(reply);
    }

    case net::MessageType::kMetaUpdateSize: {
      const Result<UpdateSizeRequest> request =
          UpdateSizeRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->UpdateFileSize(
          request.value().path, request.value().size_bytes));
    }

    case net::MessageType::kMetaSetPermission: {
      const Result<SetPermissionRequest> request =
          SetPermissionRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->SetPermission(
          request.value().path, request.value().permission));
    }

    case net::MessageType::kMetaSetOwner: {
      const Result<SetOwnerRequest> request = SetOwnerRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(
          metadata_->SetOwner(request.value().path, request.value().owner));
    }

    case net::MessageType::kMetaDeleteFile: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->DeleteFile(request.value().path));
    }

    case net::MessageType::kMetaFileExists: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      const Result<bool> exists = metadata_->FileExists(request.value().path);
      if (!exists.ok()) return StatusReply(exists.status());
      BoolReply reply;
      reply.value = exists.value();
      return BodyReply(reply);
    }

    case net::MessageType::kMetaRenameFile: {
      const Result<RenameRequest> request = RenameRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(
          metadata_->RenameFile(request.value().from, request.value().to));
    }

    case net::MessageType::kMetaLogAccess: {
      const Result<LogAccessRequest> request =
          LogAccessRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->LogAccess(
          request.value().path, request.value().is_write,
          request.value().requests, request.value().transfer_bytes,
          request.value().useful_bytes));
    }

    case net::MessageType::kMetaSummarizeAccess: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      Result<client::MetadataService::AccessSummary> summary =
          metadata_->SummarizeAccess(request.value().path);
      if (!summary.ok()) return StatusReply(summary.status());
      AccessSummaryReply reply;
      reply.summary = summary.value();
      return BodyReply(reply);
    }

    case net::MessageType::kMetaClearAccessLog: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->ClearAccessLog(request.value().path));
    }

    case net::MessageType::kMetaMakeDirectory: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->MakeDirectory(request.value().path));
    }

    case net::MessageType::kMetaRemoveDirectory: {
      const Result<RemoveDirectoryRequest> request =
          RemoveDirectoryRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      return StatusReply(metadata_->RemoveDirectory(
          request.value().path, request.value().recursive));
    }

    case net::MessageType::kMetaDirectoryExists: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      const Result<bool> exists =
          metadata_->DirectoryExists(request.value().path);
      if (!exists.ok()) return StatusReply(exists.status());
      BoolReply reply;
      reply.value = exists.value();
      return BodyReply(reply);
    }

    case net::MessageType::kMetaListDirectory: {
      const Result<PathRequest> request = PathRequest::Decode(reader);
      if (!request.ok()) return StatusReply(request.status());
      Result<client::MetadataService::Listing> listing =
          metadata_->ListDirectory(request.value().path);
      if (!listing.ok()) return StatusReply(listing.status());
      ListingReply reply;
      reply.listing = std::move(listing).value();
      return BodyReply(reply);
    }

    default:
      // I/O opcodes — refused in HandleRequest before dispatch; the switch
      // stays total under -Wswitch.
      break;
  }
  return StatusReply(ProtocolError("unhandled message type"));
}

}  // namespace dpfs::metad
