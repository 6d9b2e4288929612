#pragma once
// Host provenance: the numbers a reader needs to tell a noisy host from a
// slow change — the CPU count the OS reports, a burn-loop probe of the
// cores the host actually delivers, the last-level cache size, and the
// process's CPU time and peak resident memory.

#include <sched.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// CPUs the OS reports (std::thread::hardware_concurrency, at least 1).
int nproc();

/// Burn-loop probe of effective cores: one thread runs a fixed spin, then
/// nproc() threads each run the same spin at once; the result is
/// nproc() x single-thread time / parallel wall time; the median of
/// three such probes. About 0.1 s.
double probe_effective_cores();

/// Pins the calling thread, and every thread and process it starts while
/// the pin lives, to the last `count` CPUs it may run on; the destructor
/// restores the previous set. Unpinned, the guest scheduler sometimes
/// packed a run's threads onto one vCPU and sometimes spread them, and
/// the figures moved with it; pinned, every run gets the same placement.
class CpuPin {
 public:
  explicit CpuPin(int count);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  /// The pinned CPUs, comma-separated ("" when pinning failed).
  [[nodiscard]] const std::string& cpus() const { return cpus_; }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
  std::string cpus_;
};

/// Process user+system CPU seconds so far (getrusage).
double process_cpu_seconds();

/// Peak resident set size of the process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Last-level cache size in bytes (sysconf; 0 when unknown).
std::int64_t llc_bytes();

}  // namespace perfbench
