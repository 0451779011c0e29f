// A/B harness for the two I/O server engines (docs/ASYNC_SERVER.md):
// thread-per-connection vs the epoll event loop, swept over concurrent
// sessions × request size. Each client thread drives write+read pairs on its
// own subfile over real loopback TCP and records per-op latency locally, so
// the table reports client-observed throughput and p95 per cell. Ends with
// the live metrics snapshot (io_server.batch_size / epoll_wake only move in
// the event rows; docs/OBSERVABILITY.md).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/temp_dir.h"
#include "net/connection.h"
#include "server/io_server.h"

namespace {

using dpfs::Bytes;
using dpfs::net::ReadFragment;
using dpfs::net::ServerConnection;
using dpfs::net::WriteFragment;
using dpfs::server::IoServer;
using dpfs::server::ServerEngine;
using dpfs::server::ServerOptions;
using Clock = std::chrono::steady_clock;

struct Cell {
  double ops_per_sec = 0;
  double mib_per_sec = 0;
  double p95_us = 0;
};

constexpr int kOpsPerSession = 200;

Cell RunCell(ServerEngine engine, int sessions, std::size_t request_bytes) {
  dpfs::TempDir root = dpfs::TempDir::Create("bench_engine").value();
  ServerOptions options;
  options.root_dir = root.path();
  options.engine = engine;
  std::unique_ptr<IoServer> server =
      IoServer::Start(std::move(options)).value();

  std::vector<std::vector<double>> latencies(sessions);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(sessions));
  const auto wall_start = Clock::now();
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      ServerConnection conn =
          ServerConnection::Connect(server->endpoint()).value();
      const std::string subfile = "bench/s" + std::to_string(s) + ".sub";
      const Bytes payload(request_bytes, static_cast<std::uint8_t>(s));
      std::vector<double>& lat = latencies[static_cast<std::size_t>(s)];
      lat.reserve(kOpsPerSession);
      for (int op = 0; op < kOpsPerSession; ++op) {
        const auto start = Clock::now();
        const dpfs::Status wrote =
            conn.Write(subfile, {WriteFragment{0, payload}});
        const dpfs::Result<dpfs::net::ReplyBody> read =
            conn.Read(subfile, {ReadFragment{0, request_bytes}});
        const auto stop = Clock::now();
        if (!wrote.ok() || !read.ok() ||
            read.value().size() != request_bytes) {
          failures.fetch_add(1);
          return;
        }
        lat.push_back(
            std::chrono::duration<double, std::micro>(stop - start).count());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_sec =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  server->Stop();
  if (failures.load() > 0) {
    std::fprintf(stderr, "engine bench cell failed (%d sessions)\n", sessions);
    return {};
  }

  std::vector<double> all;
  for (const std::vector<double>& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  const double total_ops = static_cast<double>(all.size());
  Cell cell;
  cell.ops_per_sec = total_ops / wall_sec;
  // Each op moves the payload twice (write out + read back).
  cell.mib_per_sec = total_ops * 2.0 * static_cast<double>(request_bytes) /
                     (1024.0 * 1024.0) / wall_sec;
  cell.p95_us = all.empty() ? 0.0
                            : all[static_cast<std::size_t>(
                                  0.95 * (total_ops - 1.0))];
  return cell;
}

const char* EngineName(ServerEngine engine) {
  return engine == ServerEngine::kEventLoop ? "event " : "thread";
}

}  // namespace

int main() {
  std::printf("Server engine A/B: write+read pairs per session, %d ops each "
              "(real loopback TCP)\n\n", kOpsPerSession);
  std::printf("%-8s %9s %10s %12s %12s %10s\n", "engine", "sessions",
              "req_bytes", "ops/s", "MiB/s", "p95_us");
  for (const std::size_t request_bytes : {4096u, 65536u}) {
    for (const int sessions : {1, 8, 32}) {
      for (const ServerEngine engine :
           {ServerEngine::kThreadPerConnection, ServerEngine::kEventLoop}) {
        const Cell cell = RunCell(engine, sessions, request_bytes);
        std::printf("%-8s %9d %10zu %12.0f %12.1f %10.1f\n",
                    EngineName(engine), sessions, request_bytes,
                    cell.ops_per_sec, cell.mib_per_sec, cell.p95_us);
      }
    }
  }

  std::printf("\n--- metrics snapshot (live engine A/B traffic; "
              "docs/OBSERVABILITY.md) ---\n%s"
              "--- end metrics snapshot ---\n",
              dpfs::metrics::Registry::Global().TextSnapshot().c_str());
  return 0;
}
