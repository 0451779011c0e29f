// I/O server scaling sweep: concurrent sessions × request size against one
// thread-per-connection IoServer over real loopback TCP. Each client thread
// drives write+read pairs on its own subfile; each cell is repeated on a
// fresh server and reported as the wall-clock median and interquartile range
// of ops/s, plus the median of the per-repetition client p95 latency.
//
//   build/bench/micro_server_sweep [repetitions]   (default 5)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/temp_dir.h"
#include "net/connection.h"
#include "server/io_server.h"

namespace {

using dpfs::Bytes;
using dpfs::net::ReadFragment;
using dpfs::net::ServerConnection;
using dpfs::net::WriteFragment;
using dpfs::server::IoServer;
using dpfs::server::ServerOptions;
using Clock = std::chrono::steady_clock;

constexpr int kOpsPerSession = 200;

struct Run {
  double ops_per_sec = 0;
  double p95_us = 0;
  bool ok = false;
};

Run RunOnce(int sessions, std::size_t request_bytes) {
  dpfs::TempDir root = dpfs::TempDir::Create("bench_sweep").value();
  ServerOptions options;
  options.root_dir = root.path();
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
  if (failures.load() > 0) return {};

  std::vector<double> all;
  for (const std::vector<double>& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  const double total_ops = static_cast<double>(all.size());
  return Run{total_ops / wall_sec,
             all[static_cast<std::size_t>(0.95 * (total_ops - 1.0))], true};
}

/// Linear-interpolated quantile of an ascending sample.
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

}  // namespace

int main(int argc, char** argv) {
  const int repetitions = argc > 1 ? std::max(1, std::atoi(argv[1])) : 5;
  std::printf("I/O server sweep: write+read pairs per session, %d ops each, "
              "%d repetitions per cell (real loopback TCP, wall clock)\n\n",
              kOpsPerSession, repetitions);
  std::printf("%9s %10s %12s %10s %12s\n", "sessions", "req_bytes",
              "med_ops/s", "iqr_ops/s", "med_p95_us");
  int failed = 0;
  for (const std::size_t request_bytes : {4096u, 65536u}) {
    for (const int sessions : {1, 8, 32}) {
      std::vector<double> ops;
      std::vector<double> p95;
      for (int rep = 0; rep < repetitions; ++rep) {
        const Run run = RunOnce(sessions, request_bytes);
        if (!run.ok) {
          ++failed;
          continue;
        }
        ops.push_back(run.ops_per_sec);
        p95.push_back(run.p95_us);
      }
      if (ops.empty()) {
        std::printf("%9d %10zu %12s\n", sessions, request_bytes, "failed");
        continue;
      }
      std::sort(ops.begin(), ops.end());
      std::sort(p95.begin(), p95.end());
      std::printf("%9d %10zu %12.0f %10.0f %12.1f\n", sessions, request_bytes,
                  Quantile(ops, 0.5),
                  Quantile(ops, 0.75) - Quantile(ops, 0.25),
                  Quantile(p95, 0.5));
    }
  }
  if (failed > 0) {
    std::fprintf(stderr, "%d repetitions failed\n", failed);
    return 1;
  }
  return 0;
}
