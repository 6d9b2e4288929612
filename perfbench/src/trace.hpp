#pragma once
// In-memory span recording for the traced benchmark run.
//
// Each span has a name, a start and end on the steady clock, the index of
// its parent span (or -1 for a root) and the id of the call or request it
// belongs to; every span of one call shares that id. A Tracer is owned by
// one thread (the serve workload gives each client thread its own) and
// nothing is written until the run ends, when the recorders are merged
// and dumped as Chrome trace_event JSON.
//
// A disabled Tracer records nothing: begin() returns -1 and end(-1) is a
// no-op, so the untraced run pays one branch per span site.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the process's trace epoch.
std::int64_t now_ns();

struct Span {
  std::string name;
  std::uint64_t id = 0;   ///< call or request the span belongs to
  int parent = -1;        ///< index into the same recorder, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int tid = 0;            ///< recorder (thread) the span came from

  [[nodiscard]] double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

class Tracer {
 public:
  Tracer(bool enabled, int tid) : enabled_(enabled), tid_(tid) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span now; returns its index, or -1 when tracing is off.
  int begin(std::string name, std::uint64_t id, int parent = -1);
  /// Close the span `index` opened (no-op for -1).
  void end(int index);
  /// Record an already-timed interval.
  int add(std::string name, std::uint64_t id, int parent,
          std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int tid_;
  std::vector<Span> spans_;
};

/// Self time of every span, in microseconds: its duration minus the part
/// of its interval that its direct children cover (overlapping children
/// count once; parts of a child outside the parent do not count).
/// `spans` is one recorder's list (parents are indices into it).
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Per-name totals over a set of spans.
struct NameTotals {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::vector<NameTotals> totals_by_name(const std::vector<Span>& spans);

/// Share of root-span time that no child span covers: the sum of root
/// self times over the sum of root durations (0 without roots).
double uncovered_share(const std::vector<Span>& spans);

/// Chrome trace_event JSON ("X" complete events, microsecond times) of
/// the given recorders, at most `max_events` of them (the first of each
/// recorder in turn); the call/request id and the parent index travel
/// in each event's args.
std::string chrome_trace_json(const std::vector<const Tracer*>& tracers,
                              std::size_t max_events = 50'000);

}  // namespace perfbench
