#pragma once
// Static work estimate for gated parallel dispatch: abstract "units" of
// work per partitioned iteration of a ranged step. The JIT bakes the
// estimate into each region's dispatch guard; at run time the guard
// compares trip_count x units against a calibrated threshold
// (ParallelGate below) and keeps sub-threshold regions on the calling
// thread, so tiny kernels never pay a fork/join they cannot amortize.

#include <cstdint>

#include "analysis/parallelize.hpp"
#include "core/program.hpp"

namespace glaf {

/// Units of work one iteration of the dispatch range performs: the
/// step's per-statement weight multiplied by the trip counts of every
/// loop *not* covered by the dispatch range (inner loops below the
/// collapse band; for ownership-banded steps, the non-owner band
/// dimensions too). Trip counts fold through never-written globals;
/// an unfoldable bound contributes a nominal 16 iterations. The result
/// is clamped to [1, 2^20] so `n * units` never overflows the guard's
/// long arithmetic.
std::int64_t step_units_per_iter(const Program& program, const Step& step,
                                 const StepVerdict& v);

inline constexpr std::int64_t kMaxUnitsPerIter = std::int64_t{1} << 20;

/// Cost model behind the native JIT's profit gate: a parallel region is
/// worth dispatching only when the serial time its workers save exceeds
/// the fork/join they cost. With work W (in abstract statement units),
/// serial time is W*unit_seconds, parallel time is roughly
/// fork_join_seconds + W*unit_seconds/threads, so dispatch pays off when
///   W >= fork_join_seconds / (unit_seconds * (1 - 1/threads)).
/// Fully inline (constants + arithmetic); perfmodel/calibrate.hpp
/// refines the two constants from live measurements.
struct ParallelGate {
  /// One pool dispatch + join, seconds (spin-then-park pools land around
  /// a few microseconds; parked wakeups dominate).
  double fork_join_seconds = 10e-6;
  /// One abstract work unit (roughly one interpreter-exact C statement),
  /// seconds.
  double unit_seconds = 1e-9;

  /// Gate value meaning "never dispatch" (compares above any n * units
  /// product, which plan_profit caps below 2^50).
  static constexpr std::int64_t kAlwaysSerialUnits = std::int64_t{1} << 62;

  /// Minimum total work units for which dispatching to `threads` ranks
  /// beats running serially. threads <= 1 can never win: the fork/join
  /// buys nothing, so the threshold is kAlwaysSerialUnits.
  [[nodiscard]] std::int64_t threshold_units(int threads) const {
    if (threads <= 1) return kAlwaysSerialUnits;
    if (unit_seconds <= 0.0 || fork_join_seconds <= 0.0) return 1;
    const double gain = 1.0 - 1.0 / threads;
    const double units = fork_join_seconds / (unit_seconds * gain);
    if (units >= static_cast<double>(kAlwaysSerialUnits)) {
      return kAlwaysSerialUnits;
    }
    return units < 1.0 ? 1 : static_cast<std::int64_t>(units);
  }
};

}  // namespace glaf
