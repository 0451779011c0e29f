// Per-layer micro-benchmarks of the wire path, no sockets: CRC-32C (table
// and dispatched), frame encode and decode, the server's reply assembly up
// to the send syscall, and the copies the data path still pays. Each row
// is one layer's cost per request at the stated size; EXPERIMENTS.md
// ("Per-layer budget of the real path") puts them side by side with the
// end-to-end numbers of perfbench.
#include <benchmark/benchmark.h>

#include <cstring>

#include "common/crc32.h"
#include "common/crc32_internal.h"
#include "common/rng.h"
#include "net/frame.h"
#include "net/messages.h"

namespace {

using dpfs::Bytes;

Bytes RandomBytes(std::size_t size) {
  dpfs::SplitMix64 rng(size);
  Bytes bytes(size);
  for (std::uint8_t& byte : bytes) {
    byte = static_cast<std::uint8_t>(rng.NextU64());
  }
  return bytes;
}

void SetBytes(benchmark::State& state) {
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Crc32cTable(benchmark::State& state) {
  const Bytes data = RandomBytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpfs::crc32_internal::ExtendPortable(0, data));
  }
  SetBytes(state);
}
BENCHMARK(BM_Crc32cTable)->Arg(4 << 10)->Arg(256 << 10)->Arg(1 << 20);

// What every frame and WAL record pays: the hardware path where the CPU
// has it, else the table.
void BM_Crc32cDispatched(benchmark::State& state) {
  const Bytes data = RandomBytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpfs::Crc32c(data));
  }
  SetBytes(state);
}
BENCHMARK(BM_Crc32cDispatched)->Arg(4 << 10)->Arg(256 << 10)->Arg(1 << 20);

// One contiguous frame: header, CRC pass, payload copy.
void BM_FrameEncode(benchmark::State& state) {
  const Bytes payload = RandomBytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    dpfs::Result<Bytes> frame = dpfs::net::EncodeFrame(payload);
    benchmark::DoNotOptimize(frame.value().data());
    benchmark::ClobberMemory();
  }
  SetBytes(state);
}
BENCHMARK(BM_FrameEncode)->Arg(256 << 10);

// Incremental decode (net::FrameDecoder, as the perfbench trace replayer
// uses it): buffer the arrived bytes, check the CRC, hand the payload out.
void BM_FrameDecode(benchmark::State& state) {
  const Bytes frame =
      dpfs::net::EncodeFrame(
          RandomBytes(static_cast<std::size_t>(state.range(0))))
          .value();
  Bytes payload;
  for (auto _ : state) {
    dpfs::net::FrameDecoder decoder;
    decoder.Append(frame);
    benchmark::DoNotOptimize(decoder.Next(payload).value());
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
  SetBytes(state);
}
BENCHMARK(BM_FrameDecode)->Arg(256 << 10);

// A read reply up to the send syscall, two ways. Concatenated: the
// envelope and body copied into one payload, then into one frame (how the
// servers built replies before gathered frames). Gathered: the servers'
// path, the envelope and the CRC over [envelope, body] as SendFrame
// computes them before its sendmsg; the body is not copied.
void BM_ReplyAssemblyConcatenated(benchmark::State& state) {
  const Bytes body = RandomBytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const Bytes payload = dpfs::net::EncodeReply(dpfs::Status::Ok(), body);
    dpfs::Result<Bytes> frame = dpfs::net::EncodeFrame(payload);
    benchmark::DoNotOptimize(frame.value().data());
    benchmark::ClobberMemory();
  }
  SetBytes(state);
}
BENCHMARK(BM_ReplyAssemblyConcatenated)->Arg(256 << 10);

void BM_ReplyAssemblyGathered(benchmark::State& state) {
  const dpfs::net::Reply reply{
      dpfs::Status::Ok(),
      RandomBytes(static_cast<std::size_t>(state.range(0)))};
  for (auto _ : state) {
    const Bytes envelope = dpfs::net::EncodeReplyEnvelope(reply.status);
    const std::uint32_t crc =
        dpfs::Crc32cExtend(dpfs::Crc32c(envelope), reply.body);
    benchmark::DoNotOptimize(crc);
  }
  SetBytes(state);
}
BENCHMARK(BM_ReplyAssemblyGathered)->Arg(256 << 10);

// The copies the data path keeps: the client's gather or scatter between
// the caller's buffer and the wire (one memcpy per byte), and the server's
// WriteRequest::Decode, which copies each fragment out of the frame.
void BM_GatherScatterCopy(benchmark::State& state) {
  const Bytes from = RandomBytes(static_cast<std::size_t>(state.range(0)));
  Bytes to(from.size());
  for (auto _ : state) {
    std::memcpy(to.data(), from.data(), from.size());
    benchmark::DoNotOptimize(to.data());
    benchmark::ClobberMemory();
  }
  SetBytes(state);
}
BENCHMARK(BM_GatherScatterCopy)->Arg(256 << 10);

void BM_WriteRequestDecode(benchmark::State& state) {
  // Four 64 KiB fragments, the shape of one server's share of a 1 MiB
  // striped write with 64 KiB bricks.
  dpfs::net::WriteRequest request;
  request.subfile = "/bench/stripe";
  const std::size_t fragment = static_cast<std::size_t>(state.range(0)) / 4;
  for (std::size_t i = 0; i < 4; ++i) {
    request.fragments.push_back({i * fragment, RandomBytes(fragment)});
  }
  dpfs::BinaryWriter body;
  request.Encode(body);
  for (auto _ : state) {
    dpfs::BinaryReader reader(body.buffer());
    dpfs::Result<dpfs::net::WriteRequest> decoded =
        dpfs::net::WriteRequest::Decode(reader);
    benchmark::DoNotOptimize(decoded.value().fragments.data());
    benchmark::ClobberMemory();
  }
  SetBytes(state);
}
BENCHMARK(BM_WriteRequestDecode)->Arg(256 << 10);

}  // namespace

BENCHMARK_MAIN();
