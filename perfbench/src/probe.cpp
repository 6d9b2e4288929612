#include "probe.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace perfbench {

int nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

namespace {

/// A fixed amount of integer work the compiler cannot fold away.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double seconds_of(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

namespace {

double probe_once() {
  constexpr std::uint64_t kIterations = 10'000'000;
  std::atomic<std::uint64_t> sink{0};
  auto t0 = std::chrono::steady_clock::now();
  sink += spin(kIterations);
  const double single = seconds_of(t0);

  const int n = nproc();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&sink] { sink += spin(kIterations); });
  }
  for (std::thread& t : threads) t.join();
  const double parallel = seconds_of(t0);
  return parallel > 0.0 ? static_cast<double>(n) * single / parallel : 0.0;
}

}  // namespace

double probe_effective_cores() {
  // Median of three short probes: one descheduled slice should not set
  // the figure.
  double p[3] = {probe_once(), probe_once(), probe_once()};
  std::sort(p, p + 3);
  return p[1];
}

CpuPin::CpuPin(int count) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t pin;
  CPU_ZERO(&pin);
  std::vector<int> chosen;
  for (int cpu = CPU_SETSIZE - 1;
       cpu >= 0 && static_cast<int>(chosen.size()) < count; --cpu) {
    if (CPU_ISSET(cpu, &saved_)) {
      CPU_SET(cpu, &pin);
      chosen.insert(chosen.begin(), cpu);
    }
  }
  if (chosen.empty() || sched_setaffinity(0, sizeof pin, &pin) != 0) return;
  pinned_ = true;
  for (const int cpu : chosen) {
    cpus_ += (cpus_.empty() ? "" : ",") + std::to_string(cpu);
  }
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t llc_bytes() {
  // glibc answers from CPUID, so no file outside the checkout is read.
  for (const int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                         _SC_LEVEL2_CACHE_SIZE}) {
    const long size = sysconf(name);
    if (size > 0) return size;
  }
  return 0;
}

}  // namespace perfbench
