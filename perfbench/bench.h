// Shared types of the end-to-end benchmark (see README.md).
//
// A Workload issues ops against a LocalCluster through the public
// client::FileSystem API; every call it makes goes through Run::Call, which
// times it, files the latency under read / write / namespace, and — in a
// traced run — records a span. Data accesses are also described as Access
// values so the traced run can replay a sample of them through each
// layer's public functions (trace.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "client/file_system.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "layout/plan.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

enum class CallClass { kRead, kWrite, kMeta };

/// One data access, kept for replay through the layers.
struct Access {
  enum class Shape { kRegion, kBytes, kList };
  dpfs::client::FileHandle handle;
  dpfs::layout::IoDirection direction = dpfs::layout::IoDirection::kRead;
  Shape shape = Shape::kBytes;
  dpfs::layout::Region region;                    // kRegion
  std::uint64_t offset = 0;                       // kBytes
  std::uint64_t length = 0;                       // kBytes
  std::vector<dpfs::layout::FileExtent> extents;  // kList (absolute)
  dpfs::client::IoOptions options;
  double live_us = 0;               // measured time of the live call
  std::uint64_t cached_bricks = 0;  // bricks the live call took from cache
};

/// Chrome-trace complete event. `track` 0 is the live op loop, 1 the
/// replay of sampled ops (same `id` as the op they replay).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  double start_us = 0;
  double dur_us = 0;
  int track = 0;
};

/// A sampled op: its measured live time and the data accesses it made.
struct Sample {
  std::uint64_t op = 0;
  double op_us = 0;
  std::vector<Access> accesses;
};

/// Everything one timed phase records.
class Run {
 public:
  Run(bool tracing, std::uint64_t sample_seed, double sample_rate,
      Clock::time_point epoch);

  /// Times `fn` (returning dpfs::Status) as one call of class `cls` that
  /// moved `bytes` application bytes; `name` labels its span.
  template <typename Fn>
  dpfs::Status Call(CallClass cls, std::uint64_t bytes, const char* name,
                    Fn&& fn) {
    const std::uint64_t hits_before = tracing_ ? cache_hits_.value() : 0;
    const Clock::time_point start = Clock::now();
    dpfs::Status status = fn();
    const Clock::time_point end = Clock::now();
    const double us = MicrosBetween(start, end);
    op_calls_us_ += us;
    if (status.ok()) Record(cls, bytes, us);
    if (tracing_) {
      spans.push_back({name, op_, MicrosBetween(epoch_, start), us, 0});
      last_call_cached_ = cache_hits_.value() - hits_before;
    }
    last_call_us_ = us;
    return status;
  }

  /// Starts op `op` of kind `kind`; returns whether it is sampled for
  /// replay (traced runs only).
  bool BeginOp(std::uint64_t op, const char* kind);
  /// Ends the current op; `ok` is false when a call failed.
  void EndOp(bool ok);

  /// Attaches a data access (and its live time, the last Call's) to the
  /// current sampled op.
  void AddAccess(Access access);

  /// Verification failure: the run's outputs are wrong.
  void Mismatch(const std::string& what);

  [[nodiscard]] bool correct() const noexcept { return correct_; }

  // Per call class.
  std::vector<double> read_ms, write_ms, meta_ms;
  std::uint64_t read_bytes = 0, write_bytes = 0;
  double read_s = 0, write_s = 0;
  // Per op.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::pair<const char*, double>> op_us;  // kind, duration
  std::vector<Span> spans;
  std::vector<Sample> samples;

 private:
  void Record(CallClass cls, std::uint64_t bytes, double us);

  bool tracing_;
  dpfs::SplitMix64 sample_rng_;
  double sample_rate_;
  Clock::time_point epoch_;
  bool correct_ = true;
  std::uint64_t op_ = 0;
  const char* kind_ = "";
  Clock::time_point op_start_;
  double op_calls_us_ = 0;
  double last_call_us_ = 0;
  std::uint64_t last_call_cached_ = 0;
  bool sampled_ = false;
  dpfs::metrics::Counter& cache_hits_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Creates and prefills the workload's files on a fresh cluster.
  virtual dpfs::Status Setup(dpfs::client::FileSystem& fs) = 0;
  /// Runs op number `op`. A returned error is a failed call; a wrong
  /// result is reported through run.Mismatch.
  virtual dpfs::Status Step(dpfs::client::FileSystem& fs, Run& run,
                            std::uint64_t op) = 0;
  /// Checks done once after the timed phase (not timed).
  virtual dpfs::Status Finish(dpfs::client::FileSystem& fs, Run& run) = 0;
  /// A file that exists now, for the replayed metadata lookup.
  virtual std::string LivePath() = 0;
  /// Share of ops replayed through the layers in a traced run.
  [[nodiscard]] virtual double sample_rate() const = 0;
  /// Ops run before timing starts, so caches reach their steady state.
  [[nodiscard]] virtual std::uint64_t warmup_ops() const = 0;
};

/// Every op kind of every workload (the per-kind metric names).
std::vector<const char*> AllKinds();
dpfs::Result<std::unique_ptr<Workload>> MakeWorkload(std::string_view name,
                                                     std::uint64_t seed);

}  // namespace perfbench
