#pragma once
// The three benchmark workloads. Each runs set-up, its measured phase
// and its checks, records every metric into the Report, and returns the
// operation counts; a wrong value or a native fallback throws
// BenchError.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;        ///< pool width / connections (kMaxThreads)
  std::string work_dir;   ///< private scratch inside the checkout
};

/// Owns every span recorder of a run (one per recording thread).
class TraceSink {
 public:
  explicit TraceSink(bool enabled) : enabled_(enabled) {}
  Tracer& make() {
    tracers_.push_back(std::make_unique<Tracer>(
        enabled_, static_cast<int>(tracers_.size())));
    return *tracers_.back();
  }
  [[nodiscard]] std::vector<const Tracer*> all() const {
    std::vector<const Tracer*> out;
    for (const auto& t : tracers_) out.push_back(t.get());
    return out;
  }

 private:
  bool enabled_;
  std::vector<std::unique_ptr<Tracer>> tracers_;
};

/// "<workload> seed <n>: <what>", for BenchError messages.
inline std::string where(const RunArgs& args, const std::string& what) {
  return args.workload + " seed " + std::to_string(args.seed) + ": " + what;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed, refused or timed out (not wrong)
};

Outcome run_sarb_deep_column(const RunArgs& args, Report& report,
                             TraceSink& sink);
Outcome run_fun3d_jacobian(const RunArgs& args, Report& report,
                           TraceSink& sink);
Outcome run_serve_mixed(const RunArgs& args, Report& report,
                        TraceSink& sink);

/// Sizes and rates fixed by the benchmark (recorded in every report).
inline constexpr int kSarbLevels = 4096;
inline constexpr std::int64_t kFun3dCells = 1500;
inline constexpr std::size_t kInputPool = 8;  ///< distinct inputs per run
inline constexpr int kSetupReps = 9;          ///< cold set-ups per run
/// Kernel pool width and serve connections are min(nproc, kMaxThreads).
/// On a shared host the cores actually delivered come and go; a pool
/// wider than they cover measures the scheduler (a fork/join waits for
/// its slowest rank), not the program.
inline constexpr int kMaxThreads = 2;
/// CPUs serve_mixed is pinned to (kernel workloads: their pool width).
/// On one CPU every hand-off between the client, connection and
/// dispatcher threads is a context switch; across vCPUs it is a wake-up
/// whose cost moved with where the guest scheduler put the threads.
inline constexpr int kServeCpus = 1;
/// serve_mixed offered rate (operations per second over all
/// connections): well under the closed-loop capacity, so the open loop
/// measures latency at partial load; kept low so the open loop's
/// per-operation records stay a small part of peak RSS.
inline constexpr double kServeRatePerS = 8000.0;
/// Window of the per-window medians that make the reported figures
/// robust to a host stall (see stats.hpp).
inline constexpr std::int64_t kWindowNs = 1'000'000'000;
/// Tail percentiles are the median over windows of at least this many
/// samples of each window's p99, so every window has ten samples beyond
/// its p99 (see windowed_percentile).
inline constexpr std::size_t kTailWindowSamples = 1000;

}  // namespace perfbench
