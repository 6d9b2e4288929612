// Profit-gate tests: the native engine must keep parallel regions on
// the calling thread when the modeled work cannot pay for a fork/join.
//
//  - sub-threshold kernels (the smooth_q shape that motivated the gate:
//    a few dozen cheap iterations) never leave serial under the
//    calibrated auto gate OR an explicit threshold — the report shows
//    zero dispatched regions and counts the gated ones;
//  - the gate is monotone: raising the threshold can only divert more
//    regions to serial, and the break-even threshold itself shrinks as
//    threads are added (more workers amortize the same fork/join);
//  - resolve_gate_units maps the Options knob to an installed value
//    (explicit pass-through, 0 = off, single-threaded hosts = never
//    dispatch);
//  - measure_parallel_gate round-trips through a live pool into a
//    usable threshold.

#include <cstdint>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "analysis/plan_profit.hpp"
#include "core/builder.hpp"
#include "interp/machine.hpp"
#include "jit/engine.hpp"
#include "perfmodel/calibrate.hpp"
#include "runtime/thread_pool.hpp"
#include "support/strings.hpp"
#include "testing/native.hpp"
#include "testing/scoped.hpp"

namespace glaf {
namespace {

using testing::have_cc;
using testing::ScopedEnv;
using testing::ScopedTempDir;

/// The shape that motivated the gate: smooth_q's neighbour average over
/// a handful of nodes — parallelizable, bit-exact, and far too small to
/// pay for a fork/join.
Program tiny_smooth_program(int n) {
  ProgramBuilder pb("m");
  auto q = pb.global("q", DataType::kDouble, {E(n + 2)});
  auto q2 = pb.global("q2", DataType::kDouble, {E(n)});
  auto fb = pb.function("smooth");
  auto s = fb.step("s");
  s.foreach_("i", 0, n - 1);
  s.assign(q2(idx("i")),
           (q(idx("i")) + q(idx("i") + 1) + q(idx("i") + 2)) / 3.0);
  return pb.build().value();
}

InterpOptions gated_native(std::int64_t gate, int threads = 4) {
  InterpOptions o;
  o.engine = ExecEngine::kNative;
  o.parallel = true;
  o.num_threads = threads;
  o.gate_min_units = gate;
  return o;
}

/// Run `smooth` once and return the report.
NativeReport run_tiny(const Program& p, const InterpOptions& o) {
  Machine m(p, o);
  EXPECT_TRUE(m.native_report().available)
      << m.native_report().fallback_reason;
  EXPECT_TRUE(m.call("smooth").is_ok());
  return m.native_report();
}

TEST(ProfitGate, SubThresholdKernelNeverLeavesSerial) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("tiny");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  const Program p = tiny_smooth_program(16);
  // Auto gate (-1): on a single-core host the gate is "never dispatch";
  // on a real multi-core host the calibrated break-even sits at
  // thousands of units — either way 16 cheap iterations stay serial.
  const NativeReport auto_gate = run_tiny(p, gated_native(-1));
  EXPECT_EQ(auto_gate.parallel_regions, 0u);
  EXPECT_EQ(auto_gate.parallel_calls, 0u);
  EXPECT_GT(auto_gate.gated_serial_regions, 0u)
      << "the region must be counted as gated, not silently dropped";
  EXPECT_GT(auto_gate.gate_min_units, 0);

  // An explicit threshold above the region's n * units product behaves
  // identically.
  const NativeReport explicit_gate = run_tiny(p, gated_native(1 << 20));
  EXPECT_EQ(explicit_gate.parallel_regions, 0u);
  EXPECT_GT(explicit_gate.gated_serial_regions, 0u);
  EXPECT_EQ(explicit_gate.gate_min_units, 1 << 20);
}

TEST(ProfitGate, GateOffDispatchesAndGateIsMonotone) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("mono");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  const Program p = tiny_smooth_program(16);
  // gate 0 = gating off: even the tiny kernel dispatches.
  const NativeReport off = run_tiny(p, gated_native(0));
  EXPECT_EQ(off.gate_min_units, 0);
  EXPECT_EQ(off.gated_serial_regions, 0u);
  EXPECT_GT(off.parallel_regions, 0u);
  // gate 1: the region carries at least one unit per iteration, so a
  // threshold of 1 still dispatches...
  const NativeReport one = run_tiny(p, gated_native(1));
  EXPECT_GT(one.parallel_regions, 0u);
  // ...and each higher threshold can only gate more, never less: the
  // dispatch decision is a single >= compare against n * units.
  std::uint64_t last_dispatched = one.parallel_regions;
  for (const std::int64_t gate : {std::int64_t{1} << 10, std::int64_t{1} << 30,
                                  ParallelGate::kAlwaysSerialUnits}) {
    const NativeReport r = run_tiny(p, gated_native(gate));
    EXPECT_LE(r.parallel_regions, last_dispatched) << gate;
    last_dispatched = r.parallel_regions;
  }
  EXPECT_EQ(last_dispatched, 0u);
}

TEST(ProfitGate, GateDoesNotChangeResults) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("same");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  const Program p = tiny_smooth_program(16);
  std::vector<double> q(18);
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i] = 1.0 / (1.0 + static_cast<double>(i));
  }
  const auto run = [&](std::int64_t gate) {
    Machine m(p, gated_native(gate));
    EXPECT_TRUE(m.set_array("q", q).is_ok());
    EXPECT_TRUE(m.call("smooth").is_ok());
    return m.array("q2").value();
  };
  const std::vector<double> gated = run(ParallelGate::kAlwaysSerialUnits);
  const std::vector<double> ungated = run(0);
  ASSERT_EQ(gated.size(), ungated.size());
  for (std::size_t i = 0; i < gated.size(); ++i) {
    EXPECT_EQ(gated[i], ungated[i]) << i;
  }
}

TEST(ProfitGate, ResolveGateUnits) {
  // Explicit values pass through untouched (0 = gating off).
  EXPECT_EQ(jit::resolve_gate_units(0, 8, 8), 0);
  EXPECT_EQ(jit::resolve_gate_units(12345, 8, 8), 12345);
  // Auto on a host that cannot win: never dispatch.
  EXPECT_EQ(jit::resolve_gate_units(-1, 1, 8),
            ParallelGate::kAlwaysSerialUnits);
  EXPECT_EQ(jit::resolve_gate_units(-1, 8, 1),
            ParallelGate::kAlwaysSerialUnits);
  // Auto on a real parallel host: the model's break-even threshold.
  EXPECT_EQ(jit::resolve_gate_units(-1, 8, 8),
            ParallelGate{}.threshold_units(8));
  EXPECT_LT(jit::resolve_gate_units(-1, 8, 8),
            ParallelGate::kAlwaysSerialUnits);
  EXPECT_GT(jit::resolve_gate_units(-1, 8, 8), 0);
}

TEST(ProfitGate, ThresholdShrinksAsThreadsGrow) {
  const ParallelGate gate;
  EXPECT_EQ(gate.threshold_units(0), ParallelGate::kAlwaysSerialUnits);
  EXPECT_EQ(gate.threshold_units(1), ParallelGate::kAlwaysSerialUnits);
  std::int64_t last = ParallelGate::kAlwaysSerialUnits;
  for (int threads = 2; threads <= 64; threads *= 2) {
    const std::int64_t t = gate.threshold_units(threads);
    EXPECT_GT(t, 0) << threads;
    EXPECT_LT(t, ParallelGate::kAlwaysSerialUnits) << threads;
    EXPECT_LE(t, last) << threads;
    last = t;
  }
  // Two threads save half the serial time, so the break-even is twice
  // the fork/join cost in units.
  const double expected2 =
      gate.fork_join_seconds / (gate.unit_seconds * 0.5);
  EXPECT_NEAR(static_cast<double>(gate.threshold_units(2)), expected2,
              expected2 * 0.01);
}

TEST(ProfitGate, CalibrationRoundTrip) {
  ThreadPool pool(2);
  const ParallelGate gate = measure_parallel_gate(pool);
  EXPECT_GT(gate.fork_join_seconds, 0.0);
  EXPECT_GT(gate.unit_seconds, 0.0);
  const std::int64_t threshold = gate.threshold_units(pool.size());
  EXPECT_GE(threshold, 1);
  EXPECT_LT(threshold, ParallelGate::kAlwaysSerialUnits);
  // The calibrated threshold must agree with the formula it claims.
  const double expected =
      gate.fork_join_seconds / (gate.unit_seconds * (1.0 - 0.5));
  if (expected >= 1.0) {
    EXPECT_NEAR(static_cast<double>(threshold), expected,
                expected * 0.01 + 1.0);
  }
}

TEST(ProfitGate, SingleThreadPoolCalibratesToDefaults) {
  ThreadPool pool(1);
  const ParallelGate gate = measure_parallel_gate(pool);
  // No second rank to time a dispatch against: the fork cost keeps its
  // documented default, and the gate still yields a sane threshold.
  EXPECT_GT(gate.unit_seconds, 0.0);
  EXPECT_GT(gate.fork_join_seconds, 0.0);
  EXPECT_EQ(gate.threshold_units(1), ParallelGate::kAlwaysSerialUnits);
}

}  // namespace
}  // namespace glaf
