#include "trace.h"

#include <cstring>
#include <iostream>
#include <map>
#include <sstream>

#include "common/crc32.h"
#include "net/frame.h"
#include "net/messages.h"

namespace perfbench {

using dpfs::Bytes;
using dpfs::ByteSpan;
using dpfs::Status;
using dpfs::layout::BrickRun;
using dpfs::layout::IoDirection;
using dpfs::net::ReadFragment;
using dpfs::net::WriteFragment;

// ---------------------------------------------------------------------------
// Run

Run::Run(bool tracing, std::uint64_t sample_seed, double sample_rate,
         Clock::time_point epoch)
    : tracing_(tracing),
      sample_rng_(sample_seed),
      sample_rate_(sample_rate),
      epoch_(epoch),
      cache_hits_(dpfs::metrics::GetCounter("brick_cache.hits")) {
  // Reserved up front: this takes address space only, and pages become
  // resident as samples arrive. Grown by doubling instead, each copy would
  // add a step to peak_rss_MiB at an op count that a run reaches or not.
  constexpr std::size_t kMaxSamples = std::size_t{1} << 22;
  read_ms.reserve(kMaxSamples);
  write_ms.reserve(kMaxSamples);
  meta_ms.reserve(kMaxSamples);
  op_us.reserve(kMaxSamples);
}

bool Run::BeginOp(std::uint64_t op, const char* kind) {
  op_ = op;
  kind_ = kind;
  op_start_ = Clock::now();
  op_calls_us_ = 0;
  ++attempted;
  sampled_ = tracing_ && sample_rng_.NextDouble() < sample_rate_;
  if (sampled_) samples.push_back(Sample{op, 0, {}});
  return sampled_;
}

void Run::EndOp(bool ok) {
  if (!ok) ++failed;
  op_us.emplace_back(kind_, op_calls_us_);
  if (tracing_) {
    spans.push_back({kind_, op_, MicrosBetween(epoch_, op_start_),
                     MicrosBetween(op_start_, Clock::now()), 0});
  }
  if (sampled_) samples.back().op_us = op_calls_us_;
}

void Run::AddAccess(Access access) {
  access.live_us = last_call_us_;
  access.cached_bricks = last_call_cached_;
  samples.back().accesses.push_back(std::move(access));
}

void Run::Mismatch(const std::string& what) {
  if (correct_) std::cerr << "VERIFY FAILED: " << what << "\n";
  correct_ = false;
}

void Run::Record(CallClass cls, std::uint64_t bytes, double us) {
  switch (cls) {
    case CallClass::kRead:
      read_ms.push_back(us / 1e3);
      read_bytes += bytes;
      read_s += us / 1e6;
      break;
    case CallClass::kWrite:
      write_ms.push_back(us / 1e3);
      write_bytes += bytes;
      write_s += us / 1e6;
      break;
    case CallClass::kMeta:
      meta_ms.push_back(us / 1e3);
      break;
  }
}

// ---------------------------------------------------------------------------
// Replayer

namespace {

// Times `fn`, adds the microseconds to `total` and records a replay span.
template <typename Fn>
auto Timed(const char* name, std::uint64_t op, Clock::time_point epoch,
           std::vector<Span>& spans, double& total, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto result = fn();
  const Clock::time_point end = Clock::now();
  const double us = MicrosBetween(start, end);
  total += us;
  spans.push_back({name, op, MicrosBetween(epoch, start), us, 1});
  return result;
}

Bytes FrameOf(const Bytes& payload) {
  auto frame = dpfs::net::EncodeFrame(payload);
  return frame.ok() ? std::move(frame).value() : Bytes{};
}

dpfs::Result<Bytes> Unframe(const Bytes& frame) {
  dpfs::net::FrameDecoder decoder;
  decoder.Append(frame);
  Bytes payload;
  DPFS_ASSIGN_OR_RETURN(const bool complete, decoder.Next(payload));
  if (!complete) return dpfs::InternalError("replay frame incomplete");
  return payload;
}

}  // namespace

dpfs::Result<std::unique_ptr<Replayer>> Replayer::Start(
    const std::filesystem::path& root) {
  dpfs::server::ServerOptions options;
  options.root_dir = root / "replay_server";
  DPFS_ASSIGN_OR_RETURN(std::unique_ptr<dpfs::server::IoServer> server,
                        dpfs::server::IoServer::Start(std::move(options)));
  DPFS_ASSIGN_OR_RETURN(dpfs::net::ServerConnection conn,
                        dpfs::net::ServerConnection::Connect(
                            server->endpoint()));
  return std::unique_ptr<Replayer>(
      new Replayer(std::move(server), std::move(conn), root / "replay_store"));
}

Replayer::Replayer(std::unique_ptr<dpfs::server::IoServer> server,
                   dpfs::net::ServerConnection conn,
                   std::filesystem::path store_root)
    : server_(std::move(server)),
      conn_(std::move(conn)),
      store_(std::move(store_root)) {}

Replayer::~Replayer() {
  conn_.reset();
  server_->Stop();
}

Status Replayer::Prefill(const std::string& subfile, std::uint64_t bytes) {
  if (!prefilled_.insert(subfile).second) return Status::Ok();
  constexpr std::uint64_t kChunk = 4ull << 20;
  Bytes chunk(kChunk, 0x5a);
  for (std::uint64_t offset = 0; offset < bytes; offset += kChunk) {
    const std::uint64_t n = std::min(kChunk, bytes - offset);
    std::vector<WriteFragment> fragments{
        {offset, Bytes(chunk.begin(), chunk.begin() + n)}};
    DPFS_RETURN_IF_ERROR(store_.WriteFragments(subfile, fragments, false));
    DPFS_RETURN_IF_ERROR(conn_->Write(subfile, std::move(fragments)));
  }
  return Status::Ok();
}

Status Replayer::Replay(const Sample& sample, dpfs::client::FileSystem& fs,
                        const std::string& live_path, LayerTotals& totals,
                        std::vector<Span>& spans, Clock::time_point epoch) {
  ++totals.samples;
  totals.op_us += sample.op_us;
  for (const Access& access : sample.accesses) {
    DPFS_RETURN_IF_ERROR(ReplayAccess(access, sample.op, totals, spans, epoch));
  }
  const auto record =
      Timed("lookup", sample.op, epoch, spans, totals.lookup_us,
            [&] { return fs.metadata().LookupFile(live_path); });
  DPFS_RETURN_IF_ERROR(record.status());
  ++totals.lookups;
  return Status::Ok();
}

Status Replayer::ReplayAccess(const Access& access, std::uint64_t op,
                              LayerTotals& totals, std::vector<Span>& spans,
                              Clock::time_point epoch) {
  const dpfs::client::FileHandle& handle = access.handle;
  const dpfs::layout::BrickMap& map = handle.map;
  const dpfs::layout::BrickDistribution& dist = handle.record.distribution;
  const bool is_write = access.direction == IoDirection::kWrite;
  const bool is_list = access.shape == Access::Shape::kList;
  if (!is_write && !is_list && !access.options.whole_brick_reads) {
    return dpfs::UnimplementedError("sieve reads are not replayed");
  }
  ++totals.accesses;
  ++(is_write ? totals.write_accesses : totals.read_accesses);
  totals.access_us += access.live_us;

  // Client planning: the plan plus the per-brick runs the executor needs.
  dpfs::layout::PlanOptions plan_options;
  plan_options.direction = access.direction;
  plan_options.combine = access.options.combine;
  plan_options.rotate_start = access.options.rotate_start;
  plan_options.whole_brick_reads = access.options.whole_brick_reads;
  plan_options.parallel_dispatch = access.options.parallel_dispatch;
  std::map<dpfs::layout::BrickId, std::vector<BrickRun>> runs;
  const auto add_run = [&runs](const BrickRun& run) {
    runs[run.brick].push_back(run);
  };
  auto plan = Timed("plan", op, epoch, spans, totals.plan_us,
                    [&]() -> dpfs::Result<dpfs::layout::ClientPlan> {
    switch (access.shape) {
      case Access::Shape::kRegion:
        DPFS_RETURN_IF_ERROR(map.ForEachRun(access.region, add_run));
        return dpfs::layout::PlanRegionAccess(map, dist, handle.client_id,
                                              access.region, plan_options);
      case Access::Shape::kBytes:
        DPFS_RETURN_IF_ERROR(
            map.ForEachByteRun(access.offset, access.length, add_run));
        return dpfs::layout::PlanByteAccess(map, dist, handle.client_id,
                                            access.offset, access.length,
                                            plan_options);
      case Access::Shape::kList:
        return dpfs::layout::PlanListAccess(map, dist, handle.client_id,
                                            access.extents, plan_options);
    }
    return dpfs::InternalError("unknown access shape");
  });
  DPFS_RETURN_IF_ERROR(plan.status());

  Bytes user(plan.value().useful_bytes(), 0xa5);
  std::uint64_t cached = access.cached_bricks;
  double& rpc_us = is_write ? totals.rpc_write_us : totals.rpc_read_us;
  for (const dpfs::layout::ServerRequest& request : plan.value().requests) {
    const std::string subfile =
        handle.meta().path + ".s" + std::to_string(request.server);
    DPFS_RETURN_IF_ERROR(Prefill(
        subfile, dist.bricks_on(request.server).size() * map.brick_bytes()));

    // The wire fragments, shaped as the executor shapes them; write
    // payloads are gathered from the user buffer (client copy time).
    std::vector<ReadFragment> reads;
    std::vector<WriteFragment> writes;
    Bytes list_payload;
    Timed("gather", op, epoch, spans, totals.copy_us, [&] {
      if (is_list) {
        for (const dpfs::layout::ListExtent& e : request.list_extents) {
          reads.push_back({e.subfile_offset, e.length});
          if (is_write) {
            list_payload.insert(list_payload.end(),
                                user.begin() + e.buffer_offset,
                                user.begin() + e.buffer_offset + e.length);
          }
        }
      } else if (is_write) {
        for (const dpfs::layout::BrickRequest& brick : request.bricks) {
          const std::uint64_t slot =
              dist.slot_for(brick.brick) * map.brick_bytes();
          for (const BrickRun& run : runs[brick.brick]) {
            if (writes.empty() || writes.back().offset +
                                          writes.back().data.size() !=
                                      slot + run.offset_in_brick) {
              writes.push_back({slot + run.offset_in_brick, {}});
            }
            writes.back().data.insert(
                writes.back().data.end(), user.begin() + run.buffer_offset,
                user.begin() + run.buffer_offset + run.length);
          }
        }
      } else {
        // Bricks the live call served from the brick cache skip the wire.
        for (const dpfs::layout::BrickRequest& brick : request.bricks) {
          if (cached > 0) {
            --cached;
            continue;
          }
          reads.push_back({dist.slot_for(brick.brick) * map.brick_bytes(),
                           map.brick_fetch_bytes(brick.brick)});
        }
      }
      return 0;
    });
    if (!is_write && reads.empty()) continue;
    ++totals.requests;

    // Request frame: encoded by the client, decoded by the server.
    const dpfs::net::MessageType type =
        is_list ? (is_write ? dpfs::net::MessageType::kListWrite
                            : dpfs::net::MessageType::kListRead)
                : (is_write ? dpfs::net::MessageType::kWrite
                            : dpfs::net::MessageType::kRead);
    // The message is built outside the timed region: ServerConnection
    // moves the caller's fragments into it.
    const dpfs::net::ListWriteRequest list_write{subfile, false, reads,
                                                 list_payload};
    const dpfs::net::ListReadRequest list_read{subfile, reads};
    const dpfs::net::WriteRequest write{subfile, false, writes};
    const dpfs::net::ReadRequest read{subfile, reads};
    Bytes request_payload;
    const Bytes request_frame =
        Timed("encode", op, epoch, spans, totals.encode_us, [&] {
          dpfs::BinaryWriter body;
          if (is_list && is_write) {
            list_write.Encode(body);
          } else if (is_list) {
            list_read.Encode(body);
          } else if (is_write) {
            write.Encode(body);
          } else {
            read.Encode(body);
          }
          request_payload = dpfs::net::EncodeRequest(type, body.buffer());
          return FrameOf(request_payload);
        });
    const Status decoded = Timed(
        "decode", op, epoch, spans, totals.decode_us, [&]() -> Status {
          DPFS_ASSIGN_OR_RETURN(const Bytes payload, Unframe(request_frame));
          DPFS_ASSIGN_OR_RETURN(const dpfs::net::DecodedRequest message,
                                dpfs::net::DecodeRequest(payload));
          dpfs::BinaryReader reader(message.body);
          switch (message.type) {
            case dpfs::net::MessageType::kListWrite:
              return dpfs::net::ListWriteRequest::Decode(reader).status();
            case dpfs::net::MessageType::kListRead:
              return dpfs::net::ListReadRequest::Decode(reader).status();
            case dpfs::net::MessageType::kWrite:
              return dpfs::net::WriteRequest::Decode(reader).status();
            default:
              return dpfs::net::ReadRequest::Decode(reader).status();
          }
        });
    DPFS_RETURN_IF_ERROR(decoded);

    // Subfile I/O on the bench-private store.
    Bytes reply_body;
    if (is_write) {
      std::vector<WriteFragment> stored = writes;
      if (is_list) {
        std::uint64_t cursor = 0;
        for (const ReadFragment& e : reads) {
          stored.push_back({e.offset, Bytes(list_payload.begin() + cursor,
                                            list_payload.begin() + cursor +
                                                e.length)});
          cursor += e.length;
        }
      }
      std::uint64_t bytes = 0;
      for (const WriteFragment& f : stored) bytes += f.data.size();
      DPFS_RETURN_IF_ERROR(Timed("subfile_write", op, epoch, spans,
                                 totals.subfile_write_us, [&] {
                                   return store_.WriteFragments(subfile,
                                                                stored, false);
                                 }));
      totals.subfile_write_bytes += static_cast<double>(bytes);
    } else {
      auto data = Timed("subfile_read", op, epoch, spans,
                        totals.subfile_read_us,
                        [&] { return store_.ReadFragments(subfile, reads); });
      DPFS_RETURN_IF_ERROR(data.status());
      reply_body = std::move(data).value();
      totals.subfile_read_bytes += static_cast<double>(reply_body.size());
    }

    // Reply frame: encoded by the server, decoded by the client.
    Bytes reply_payload;
    const Bytes reply_frame =
        Timed("encode", op, epoch, spans, totals.encode_us, [&] {
          reply_payload = dpfs::net::EncodeReply(Status::Ok(), reply_body);
          return FrameOf(reply_payload);
        });
    DPFS_RETURN_IF_ERROR(Timed(
        "decode", op, epoch, spans, totals.decode_us, [&]() -> Status {
          DPFS_ASSIGN_OR_RETURN(const Bytes payload, Unframe(reply_frame));
          return dpfs::net::DecodeReply(payload).status();
        }));

    // CRC alone over both frames' payloads (one end's share).
    Timed("crc", op, epoch, spans, totals.crc_us, [&] {
      return dpfs::Crc32c(request_payload) ^ dpfs::Crc32c(reply_payload);
    });
    totals.crc_bytes +=
        static_cast<double>(request_payload.size() + reply_payload.size());

    // The same request as one live RPC against the bench-owned server.
    const Status rpc = Timed("rpc", op, epoch, spans, rpc_us, [&]() -> Status {
      if (is_list && is_write) {
        return conn_->ListWrite(subfile, reads, list_payload);
      }
      if (is_list) return conn_->ListRead(subfile, reads).status();
      if (is_write) return conn_->Write(subfile, writes);
      return conn_->Read(subfile, reads).status();
    });
    DPFS_RETURN_IF_ERROR(rpc);

    // Client scatter of the reply into the user buffer.
    if (!is_write) {
      Timed("scatter", op, epoch, spans, totals.copy_us, [&] {
        const std::size_t n = std::min(reply_body.size(), user.size());
        std::memcpy(user.data(), reply_body.data(), n);
        return n;
      });
    }
  }
  return Status::Ok();
}

std::string ChromeTraceJson(const std::vector<Span>& spans,
                            const std::string& other) {
  std::ostringstream out;
  out.precision(3);
  out << std::fixed << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const char* tracks[] = {"ops", "replay"};
  for (int t = 0; t < 2; ++t) {
    out << (t == 0 ? "" : ",")
        << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t + 1
        << ",\"args\":{\"name\":\"" << tracks[t] << "\"}}";
  }
  for (const Span& span : spans) {
    out << ",{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << span.track + 1 << ",\"ts\":" << span.start_us
        << ",\"dur\":" << span.dur_us << ",\"args\":{\"op\":" << span.id
        << "}}";
  }
  out << "],\"otherData\":" << other << "}\n";
  return out.str();
}

}  // namespace perfbench
