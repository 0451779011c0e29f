// Micro-benchmarks of the real TCP data path: a live in-process cluster,
// measuring wire throughput of reads/writes through the full client stack
// (planner → connection pool → framing → server → subfile store).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/metrics.h"
#include "core/cluster.h"

namespace {

using dpfs::Bytes;
using dpfs::client::CreateOptions;
using dpfs::client::FileHandle;
using dpfs::client::IoOptions;
using dpfs::core::ClusterOptions;
using dpfs::core::LocalCluster;

struct Fixture {
  std::unique_ptr<LocalCluster> cluster;
  FileHandle handle;

  static Fixture Make(std::uint32_t servers, std::uint64_t file_bytes,
                      std::uint64_t brick_bytes) {
    Fixture fixture;
    ClusterOptions options;
    options.num_servers = servers;
    fixture.cluster = LocalCluster::Start(std::move(options)).value();
    CreateOptions create;
    create.total_bytes = file_bytes;
    create.brick_bytes = brick_bytes;
    fixture.handle =
        fixture.cluster->fs()->Create("/bench.bin", create).value();
    return fixture;
  }
};

void BM_WriteThroughput(benchmark::State& state) {
  const std::uint64_t chunk = 1 << 20;
  Fixture fixture = Fixture::Make(4, chunk, 64 * 1024);
  const Bytes data(chunk, 0x5A);
  for (auto _ : state) {
    const dpfs::Status status =
        fixture.cluster->fs()->WriteBytes(fixture.handle, 0, data);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk));
}
BENCHMARK(BM_WriteThroughput)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ReadThroughput(benchmark::State& state) {
  const std::uint64_t chunk = 1 << 20;
  Fixture fixture = Fixture::Make(4, chunk, 64 * 1024);
  const Bytes data(chunk, 0x5A);
  (void)fixture.cluster->fs()->WriteBytes(fixture.handle, 0, data);
  Bytes out(chunk);
  for (auto _ : state) {
    const dpfs::Status status =
        fixture.cluster->fs()->ReadBytes(fixture.handle, 0, out);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk));
}
BENCHMARK(BM_ReadThroughput)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CombinedVsGeneralRead(benchmark::State& state) {
  // range(0): 0 = general (per-brick requests), 1 = combined.
  const std::uint64_t chunk = 1 << 20;
  Fixture fixture = Fixture::Make(4, chunk, 16 * 1024);  // 64 bricks
  const Bytes data(chunk, 0x77);
  (void)fixture.cluster->fs()->WriteBytes(fixture.handle, 0, data);
  Bytes out(chunk);
  IoOptions options;
  options.combine = state.range(0) == 1;
  for (auto _ : state) {
    const dpfs::Status status =
        fixture.cluster->fs()->ReadBytes(fixture.handle, 0, out, options);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk));
  state.SetLabel(options.combine ? "combined" : "general");
}
BENCHMARK(BM_CombinedVsGeneralRead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CachedVsUncachedRead(benchmark::State& state) {
  // range(0): 0 = no client brick cache, 1 = cache enabled (hot after the
  // first iteration).
  const std::uint64_t chunk = 1 << 20;
  Fixture fixture = Fixture::Make(4, chunk, 64 * 1024);
  const Bytes data(chunk, 0x42);
  (void)fixture.cluster->fs()->WriteBytes(fixture.handle, 0, data);
  if (state.range(0) == 1) {
    fixture.cluster->fs()->EnableBrickCache(8 << 20);
  }
  Bytes out(chunk);
  for (auto _ : state) {
    const dpfs::Status status =
        fixture.cluster->fs()->ReadBytes(fixture.handle, 0, out);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk));
  state.SetLabel(state.range(0) == 1 ? "cached" : "uncached");
}
BENCHMARK(BM_CachedVsUncachedRead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SmallRegionRead(benchmark::State& state) {
  // Latency of a small strided region read through the multidim path.
  ClusterOptions options;
  options.num_servers = 4;
  auto cluster = LocalCluster::Start(std::move(options)).value();
  CreateOptions create;
  create.level = dpfs::layout::FileLevel::kMultidim;
  create.array_shape = {1024, 1024};
  create.brick_shape = {128, 128};
  FileHandle handle = cluster->fs()->Create("/grid.bin", create).value();
  const Bytes all(1024 * 1024, 1);
  (void)cluster->fs()->WriteRegion(handle, {{0, 0}, {1024, 1024}}, all);

  Bytes column(1024);
  for (auto _ : state) {
    const dpfs::Status status = cluster->fs()->ReadRegion(
        handle, {{0, 511}, {1024, 1}}, column);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  }
}
BENCHMARK(BM_SmallRegionRead)->Unit(benchmark::kMicrosecond);

void BM_OpenFromMetadata(benchmark::State& state) {
  Fixture fixture = Fixture::Make(4, 1 << 20, 64 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.cluster->fs()->Open("/bench.bin"));
  }
}
BENCHMARK(BM_OpenFromMetadata)->Unit(benchmark::kMicrosecond);

}  // namespace

// BENCHMARK_MAIN(), plus the metrics snapshot the real-TCP runs filled in
// (this bench exercises the full client→server stack, so every hot-path
// instrument is live; docs/OBSERVABILITY.md).
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  std::printf("\n--- metrics snapshot (docs/OBSERVABILITY.md) ---\n%s"
              "--- end metrics snapshot ---\n",
              dpfs::metrics::Registry::Global().TextSnapshot().c_str());
  return 0;
}
