// dpfs_perfbench: one workload, one seed, one timed phase.
//
//   dpfs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--trace-out FILE] [--setup-reps K]
//
// Starts an in-process core::LocalCluster (4 I/O servers, thread-per-
// connection engine, durable embedded metadata) under DIR, sets it up, then
// drives the workload closed-loop from one client thread for S seconds.
// With --trace 0 it then sets up K-1 more times (setup_s is the median). --trace 0 prints the end-to-end metrics;
// --trace 1 runs S/2 seconds untraced and S/2 traced, replays a sample of
// the traced ops through each layer, prints the per-layer metrics and the
// budget, and writes a Chrome trace to FILE. The last stdout line is the
// result object run.py relays.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/cluster.h"
#include "trace.h"

namespace perfbench {
namespace {

using dpfs::Status;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path work_dir = ".bench_build/work";
  std::filesystem::path trace_out;
  int setup_reps = 5;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--setup-reps") {
      args.setup_reps = std::max(1, std::stoi(value));
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

std::string Medium(const std::filesystem::path& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "fs-0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

// Pins the process (every thread it will start) to the highest CPU it may
// use. The closed loop keeps one request in flight, so at most one thread
// is runnable at a time; unpinned, cross-CPU wake-ups on a shared VM made
// identical runs differ by up to 40% in ops/s. Returns the CPU, or -1.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Cumulative registry instruments; the per-layer numbers are deltas
// across the traced phase.
struct Instruments {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;  // count, sum

  static Instruments Capture() {
    static const char* kCounters[] = {
        "client.requests",  "client.combined_requests", "client.useful_bytes",
        "client.transfer_bytes", "client.retries", "brick_cache.hits",
        "brick_cache.misses", "fd_cache.hits", "fd_cache.misses",
        "metadb.statements"};
    static const char* kHistograms[] = {
        "io_server.service_time_us.read",
        "io_server.service_time_us.list_read",
        "io_server.service_time_us.write",
        "io_server.service_time_us.list_write",
        "conn_pool.acquire_us", "metadb.execute_us", "metadb.commit_us"};
    Instruments r;
    for (const char* name : kCounters) {
      r.counters[name] =
          static_cast<double>(dpfs::metrics::GetCounter(name).value());
    }
    for (const char* name : kHistograms) {
      const auto snap = dpfs::metrics::GetHistogram(name).GetSnapshot();
      r.histograms[name] = {static_cast<double>(snap.count),
                            static_cast<double>(snap.sum)};
    }
    return r;
  }
  double Counter(const Instruments& before, const std::string& name) const {
    return counters.at(name) - before.counters.at(name);
  }
  std::pair<double, double> Hist(const Instruments& before,
                                 const std::string& name) const {
    return {histograms.at(name).first - before.histograms.at(name).first,
            histograms.at(name).second - before.histograms.at(name).second};
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(10);
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

long InvoluntarySwitches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nivcsw;
}

// Hands freed heap pages back to the kernel, then resets the process's
// resident-set high-water mark (VmHWM) to its current RSS, so that
// PeakRssMiB sees only what runs after. False if the kernel refuses.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

// VmHWM: the largest RSS since the last ResetPeakRss (or since start).
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

// Closed loop: the next op starts when the previous one has returned.
// Returns completed ops per wall second.
double Drive(Workload& workload, dpfs::client::FileSystem& fs, Run& run,
             double seconds, std::uint64_t& next_op) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < stop && run.correct()) {
    const Status status = workload.Step(fs, run, next_op++);
    if (!status.ok()) {
      // The workload's expected state is unknown after a failed call.
      std::cerr << "op " << next_op - 1 << " failed: " << status.ToString()
                << "\n";
      break;
    }
  }
  return static_cast<double>(run.attempted - run.failed) /
         (MicrosBetween(start, Clock::now()) / 1e6);
}

std::vector<Metric> EndToEnd(const Run& run, double ops_per_s,
                             double setup_s, double peak_rss_mib) {
  const double attempted = static_cast<double>(run.attempted);
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"read_MBps", Ratio(static_cast<double>(run.read_bytes) / 1e6, run.read_s),
       "MB/s"},
      {"write_MBps",
       Ratio(static_cast<double>(run.write_bytes) / 1e6, run.write_s), "MB/s"},
      {"read_p50_ms", Percentile(run.read_ms, 0.5), "ms"},
      {"read_p90_ms", Percentile(run.read_ms, 0.9), "ms"},
      {"write_p50_ms", Percentile(run.write_ms, 0.5), "ms"},
      {"write_p90_ms", Percentile(run.write_ms, 0.9), "ms"},
      {"meta_p50_ms", Percentile(run.meta_ms, 0.5), "ms"},
      {"meta_p90_ms", Percentile(run.meta_ms, 0.9), "ms"},
      {"ok_frac", Ratio(attempted - static_cast<double>(run.failed), attempted),
       "frac"},
      {"peak_rss_MiB", peak_rss_mib, "MiB"},
  };
}

// p99 is printed, not gated: it moves between identical runs.
void PrintTails(const Run& run) {
  const std::pair<const char*, const std::vector<double>*> classes[] = {
      {"read", &run.read_ms}, {"write", &run.write_ms}, {"meta", &run.meta_ms}};
  for (const auto& [name, values] : classes) {
    std::printf("latency %-5s n=%zu p50=%.4f p90=%.4f p99=%.4f ms\n", name,
                values->size(), Percentile(*values, 0.5),
                Percentile(*values, 0.9), Percentile(*values, 0.99));
  }
  std::printf("fail_frac=%.6f (%llu of %llu ops)\n",
              Ratio(static_cast<double>(run.failed),
                    static_cast<double>(run.attempted)),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
}

// Per-layer metrics and the budget from the traced phase.
std::vector<Metric> PerLayer(const Run& run, const Instruments& before,
                             const Instruments& after, const LayerTotals& t,
                             double untraced_ops_per_s,
                             double traced_ops_per_s, long invol_switches,
                             std::vector<Metric>& budget) {
  const double ops = static_cast<double>(run.attempted);
  const double mib = 1024.0 * 1024.0;
  const auto mean_hist = [&](std::initializer_list<const char*> names) {
    double count = 0, sum = 0;
    for (const char* name : names) {
      const auto [c, s] = after.Hist(before, name);
      count += c;
      sum += s;
    }
    return Ratio(sum, count);
  };
  const double accesses = static_cast<double>(t.accesses);
  const double requests = after.Counter(before, "client.requests");
  const double hits = after.Counter(before, "brick_cache.hits");
  const double misses = after.Counter(before, "brick_cache.misses");
  const double fd_hits = after.Counter(before, "fd_cache.hits");
  const double fd_misses = after.Counter(before, "fd_cache.misses");
  const double acquire_us = mean_hist({"conn_pool.acquire_us"});

  std::vector<Metric> m = {
      {"common.crc32c_us_per_MiB", Ratio(t.crc_us, t.crc_bytes / mib), "us/MiB"},
      {"net.frame_encode_us", Ratio(t.encode_us, accesses), "us"},
      {"net.frame_decode_us", Ratio(t.decode_us, accesses), "us"},
      {"net.rpc_read_us",
       Ratio(t.rpc_read_us, static_cast<double>(t.read_accesses)), "us"},
      {"net.rpc_write_us",
       Ratio(t.rpc_write_us, static_cast<double>(t.write_accesses)), "us"},
      {"net.requests_per_op", Ratio(requests, ops), "count"},
      {"net.combined_share",
       Ratio(after.Counter(before, "client.combined_requests"), requests),
       "frac"},
      {"net.wire_efficiency",
       Ratio(after.Counter(before, "client.useful_bytes"),
             after.Counter(before, "client.transfer_bytes")),
       "frac"},
      {"layout.plan_us", Ratio(t.plan_us, accesses), "us"},
      {"server.subfile_read_us_per_MiB",
       Ratio(t.subfile_read_us, t.subfile_read_bytes / mib), "us/MiB"},
      {"server.subfile_write_us_per_MiB",
       Ratio(t.subfile_write_us, t.subfile_write_bytes / mib), "us/MiB"},
      {"server.service_mean_us.read",
       mean_hist({"io_server.service_time_us.read",
                  "io_server.service_time_us.list_read"}),
       "us"},
      {"server.service_mean_us.write",
       mean_hist({"io_server.service_time_us.write",
                  "io_server.service_time_us.list_write"}),
       "us"},
      {"server.fd_cache_hit_ratio", Ratio(fd_hits, fd_hits + fd_misses),
       "frac"},
      {"client.self_us",
       Ratio(t.access_us - t.plan_us - t.rpc_read_us - t.rpc_write_us,
             accesses),
       "us"},
      {"client.conn_acquire_mean_us", acquire_us, "us"},
      {"client.brick_cache_hit_ratio", Ratio(hits, hits + misses), "frac"},
      {"client.retries_per_op",
       Ratio(after.Counter(before, "client.retries"), ops), "count"},
  };
  for (const char* kind : AllKinds()) {
    std::vector<double> us;
    for (const auto& [k, d] : run.op_us) {
      if (std::string_view(k) == kind) us.push_back(d);
    }
    m.push_back({std::string("client.") + kind + "_p50_us", Percentile(us, 0.5),
                 "us"});
  }
  m.push_back({"metadb.statements_per_op",
               Ratio(after.Counter(before, "metadb.statements"), ops),
               "count"});
  m.push_back({"metadb.execute_mean_us", mean_hist({"metadb.execute_us"}),
               "us"});
  m.push_back({"metadb.commit_mean_us", mean_hist({"metadb.commit_us"}), "us"});
  m.push_back({"metadb.lookup_us",
               Ratio(t.lookup_us, static_cast<double>(t.lookups)), "us"});
  m.push_back({"proc.invol_ctx_switches_per_op",
               Ratio(static_cast<double>(invol_switches), ops), "count"});

  // Budget per op (sample means): planning, encoding + CRC, send and
  // syscalls (the rest of the measured round trip), subfile I/O, client
  // self time (copies + pool acquires), metadb (registry delta per op).
  const double n = static_cast<double>(t.samples);
  const double op_us = Ratio(t.op_us, n);
  const double plan = Ratio(t.plan_us, n);
  const double codec = Ratio(t.encode_us + t.decode_us, n);
  const double subfile = Ratio(t.subfile_read_us + t.subfile_write_us, n);
  const double rpc = Ratio(t.rpc_read_us + t.rpc_write_us, n);
  const double send = std::max(0.0, rpc - codec - subfile);
  const double self =
      Ratio(t.copy_us + acquire_us * static_cast<double>(t.requests), n);
  const double metadb =
      Ratio(after.Hist(before, "metadb.execute_us").second, ops);
  budget = {
      {"budget.op_us", op_us, "us"},
      {"budget.plan_us", plan, "us"},
      {"budget.encode_crc_us", codec, "us"},
      {"budget.send_syscalls_us", send, "us"},
      {"budget.subfile_us", subfile, "us"},
      {"budget.client_self_us", self, "us"},
      {"budget.metadb_us", metadb, "us"},
      {"budget.residual_us",
       op_us - plan - codec - send - subfile - self - metadb, "us"},
  };
  m.insert(m.end(), budget.begin(), budget.end());
  m.push_back({"trace.overhead_frac",
               1.0 - Ratio(traced_ops_per_s, untraced_ops_per_s), "frac"});
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: dpfs_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--trace-out FILE] "
                 "[--setup-reps K]\n";
    return 2;
  }
  const int cpu = PinToOneCpu();
  const std::filesystem::path root =
      args.work_dir / ("run-" + std::to_string(::getpid()));
  std::filesystem::create_directories(root);
  const std::string medium = Medium(root);
  const std::string build_type = DPFS_PERFBENCH_BUILD_TYPE;
  const bool optimized = build_type == "Release" ||
                         build_type == "RelWithDebInfo" ||
                         build_type == "MinSizeRel";
  std::printf(
      "env {\"nproc\": %u, \"pinned_cpu\": %d, \"medium\": \"%s\", "
      "\"build_type\": \"%s\", \"optimized\": %s, \"seed\": %llu, "
      "\"workload\": \"%s\", \"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), cpu, medium.c_str(),
      build_type.c_str(),
      optimized ? "true" : "false",
      static_cast<unsigned long long>(args.seed), args.workload.c_str(),
      args.seconds, args.trace ? 1 : 0);
  if (!optimized) std::printf("WARNING: non-optimized build\n");

  const auto fail = [&](const Status& status) {
    std::cerr << "error: " << status.ToString() << "\n";
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    return 1;
  };

  // The measured cluster is the process's first set-up. The other K-1
  // (--trace 0 only) run after the timed phase, so that heap they leave
  // behind is not resident during it (peak_rss_MiB).
  std::unique_ptr<dpfs::core::LocalCluster> cluster;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  const auto set_up = [&](int rep) {
    const Clock::time_point start = Clock::now();
    dpfs::core::ClusterOptions options;
    options.num_servers = 4;
    options.durable_metadata = true;
    options.root_dir = root / ("cluster" + std::to_string(rep));
    DPFS_ASSIGN_OR_RETURN(cluster,
                          dpfs::core::LocalCluster::Start(std::move(options)));
    DPFS_ASSIGN_OR_RETURN(workload, MakeWorkload(args.workload, args.seed));
    DPFS_RETURN_IF_ERROR(workload->Setup(*cluster->fs()));
    setup_s.push_back(MicrosBetween(start, Clock::now()) / 1e6);
    return Status::Ok();
  };
  if (const Status status = set_up(0); !status.ok()) return fail(status);
  dpfs::client::FileSystem& fs = *cluster->fs();

  std::uint64_t next_op = 0;
  {
    Run warmup(false, 0, 0, Clock::now());
    while (next_op < workload->warmup_ops() && warmup.correct()) {
      const Status status = workload->Step(fs, warmup, next_op++);
      if (!status.ok()) return fail(status);
    }
    if (!warmup.correct()) return fail(dpfs::DataLossError("warm-up read"));
  }
  const Clock::time_point epoch = Clock::now();
  std::vector<Metric> metrics;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  if (!args.trace) {
    // peak_rss_MiB covers the timed phase only: not the set-ups, and not
    // Finish's whole-file verification reads.
    if (!ResetPeakRss()) {
      std::printf("WARNING: cannot reset the RSS high-water mark; "
                  "peak_rss_MiB includes set-up\n");
    }
    Run run(false, 0, 0, epoch);
    const double ops_per_s = Drive(*workload, fs, run, args.seconds, next_op);
    const double peak_rss_mib = PeakRssMiB();
    const Status finished = workload->Finish(fs, run);
    if (!finished.ok()) return fail(finished);
    PrintTails(run);
    for (int rep = 1; rep < args.setup_reps; ++rep) {
      cluster.reset();
      std::filesystem::remove_all(root / ("cluster" + std::to_string(rep - 1)));
      if (const Status status = set_up(rep); !status.ok()) return fail(status);
    }
    metrics =
        EndToEnd(run, ops_per_s, Percentile(setup_s, 0.5), peak_rss_mib);
    correct = run.correct();
    attempted = run.attempted;
    failed = run.failed;
  } else {
    Run untraced(false, 0, 0, epoch);
    const double plain_ops_per_s =
        Drive(*workload, fs, untraced, args.seconds / 2, next_op);
    Run traced(true, args.seed ^ 0x7ace, workload->sample_rate(), epoch);
    const Instruments before = Instruments::Capture();
    const long switches_before = InvoluntarySwitches();
    const double traced_ops_per_s =
        Drive(*workload, fs, traced, args.seconds / 2, next_op);
    const long switches = InvoluntarySwitches() - switches_before;
    const Instruments after = Instruments::Capture();

    LayerTotals totals;
    auto replayer = Replayer::Start(root / "replay");
    if (!replayer.ok()) return fail(replayer.status());
    for (const Sample& sample : traced.samples) {
      const Status replayed =
          replayer.value()->Replay(sample, fs, workload->LivePath(), totals,
                                   traced.spans, epoch);
      if (!replayed.ok()) return fail(replayed);
    }
    replayer.value().reset();
    const Status finished = workload->Finish(fs, traced);
    if (!finished.ok()) return fail(finished);
    PrintTails(traced);

    std::vector<Metric> budget;
    metrics = PerLayer(traced, before, after, totals, plain_ops_per_s,
                       traced_ops_per_s, switches, budget);
    std::printf("budget per op (%llu sampled ops of %llu traced):\n",
                static_cast<unsigned long long>(totals.samples),
                static_cast<unsigned long long>(traced.attempted));
    for (const Metric& row : budget) {
      std::printf("  %-26s %12.2f us\n", row.name.c_str(), row.value);
    }
    std::printf("tracing overhead: untraced %.1f ops/s, traced %.1f ops/s\n",
                plain_ops_per_s, traced_ops_per_s);
    for (const Metric& metric : metrics) {
      std::printf("layer %-36s %14.4f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << ChromeTraceJson(traced.spans, "{\"workload\": \"" + args.workload +
                                               "\", \"per_layer\": " +
                                               Json(metrics) + "}");
      if (!out) return fail(dpfs::IoError("cannot write trace file"));
    }
    correct = untraced.correct() && traced.correct();
    attempted = untraced.attempted + traced.attempted;
    failed = untraced.failed + traced.failed;
  }

  cluster.reset();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), Json(metrics).c_str());
  std::fflush(stdout);
  // A failed call fails the run, like a mismatch: the workloads are chosen
  // so that no call fails on working code.
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
