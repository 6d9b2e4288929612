// Parallel native-engine tests: the threaded kernel must be *bitwise*
// identical to the serial kernel under every directive policy — the
// contract the emitter guarantees by only threading bit-exact steps,
// giving each rank its own reduction scratch and combining in rank
// order.
//
// Covered here: the six SARB Table-1 subroutines and the FUN3D
// decomposition (edgejp drives all five §4.2 sub-functions) under
// v0..v3; integer sum/min/max reduction ordering; ownership-banded
// float accumulation; float reductions staying serial; 1-thread ==
// N-thread; dynamic scheduling; serial/parallel cache coexistence and
// static/dynamic schedules sharing one cached object; and the
// forced-fallback path without a compiler, which keeps the same
// bit-exact threading rule.
//
// Equality is value equality (== with NaN==NaN), not bit_cast: the
// rank-ordered combine adds each rank's scratch to the target, and
// `x + 0.0` canonicalizes -0.0 to +0.0 — a representation change with
// no value change, exactly what the fuzz oracle's exact legs accept.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/profile.hpp"
#include "fun3d/glaf_full.hpp"
#include "fun3d/glaf_fun3d.hpp"
#include "fun3d/mesh.hpp"
#include "interp/machine.hpp"
#include "jit/cache.hpp"
#include "support/strings.hpp"
#include "testing/native.hpp"
#include "testing/programs.hpp"
#include "testing/scoped.hpp"

namespace glaf {
namespace {

using testing::compare_all_globals;
using testing::Equality;
using testing::expect_bit_equal;
using testing::expect_value_equal;
using testing::have_cc;
using testing::kAllPolicies;
using testing::require_native;
using testing::ScopedEnv;
using testing::ScopedTempDir;

InterpOptions serial_native() {
  InterpOptions o;
  o.engine = ExecEngine::kNative;
  return o;
}

InterpOptions parallel_native(DirectivePolicy policy, int threads = 4,
                              bool dynamic = false) {
  InterpOptions o;
  o.engine = ExecEngine::kNative;
  o.parallel = true;
  o.num_threads = threads;
  o.policy = policy;
  o.dynamic_schedule = dynamic;
  // These tests exercise the dispatch machinery itself, so the profit
  // gate must not divert small regions to the serial path (on a 1-core
  // host the calibrated gate would serialize everything).
  o.gate_min_units = 0;
  return o;
}

// ---- case-study kernels -----------------------------------------------------

TEST(ParallelNativeSarb, Table1SubroutinesBitIdenticalUnderAllPolicies) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("sarb");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  const Program sarb = fuliou::build_sarb_program();
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(7);
  for (const DirectivePolicy policy : kAllPolicies) {
    for (const std::string& name : fuliou::table1_subroutines()) {
      const Function* fn = sarb.find_function(name);
      if (fn == nullptr || !fn->params.empty()) continue;
      const std::string tag = cat(name, "/", to_string(policy));
      Machine serial(sarb, serial_native());
      Machine par(sarb, parallel_native(policy));
      require_native(serial);
      require_native(par);
      for (Machine* m : {&serial, &par}) {
        ASSERT_TRUE(fuliou::load_profile(*m, profile).is_ok()) << tag;
        ASSERT_TRUE(m->call(name).is_ok()) << tag;
      }
      EXPECT_GT(par.native_report().native_calls, 0u) << tag;
      compare_all_globals(serial, par, cat(tag, " native"));
    }
  }
}

TEST(ParallelNativeSarb, OneThreadEqualsEightThreads) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("threads");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  const Program sarb = fuliou::build_sarb_program();
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(11);
  Machine one(sarb, parallel_native(DirectivePolicy::kV0, 1));
  Machine eight(sarb, parallel_native(DirectivePolicy::kV0, 8));
  for (Machine* m : {&one, &eight}) {
    require_native(*m);
    ASSERT_TRUE(fuliou::load_profile(*m, profile).is_ok());
    ASSERT_TRUE(m->call("longwave_entropy_model").is_ok());
  }
  EXPECT_EQ(one.native_report().num_threads, 1);
  EXPECT_EQ(eight.native_report().num_threads, 8);
  EXPECT_GT(eight.native_report().parallel_regions, 0u);
  compare_all_globals(one, eight, "1-vs-8-threads");
}

TEST(ParallelNativeFun3d, SubFunctionsBitIdenticalUnderAllPolicies) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("fun3d");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  // edgejp drives all five §4.2 sub-functions (cell_loop, edge_loop,
  // angle_check, ioff_search via the call tree, plus face_weight).
  const fun3d::Mesh mesh = fun3d::make_mesh(60, 3);
  const Program p = fun3d::build_fun3d_full_program(mesh);
  for (const DirectivePolicy policy : kAllPolicies) {
    const std::string tag = cat("edgejp/", to_string(policy));
    Machine serial(p, serial_native());
    Machine par(p, parallel_native(policy));
    require_native(serial);
    require_native(par);
    for (Machine* m : {&serial, &par}) {
      ASSERT_TRUE(fun3d::load_mesh(*m, mesh).is_ok()) << tag;
      ASSERT_TRUE(m->call("edgejp").is_ok()) << tag;
    }
    EXPECT_GT(par.native_report().native_calls, 0u) << tag;
    compare_all_globals(serial, par, cat(tag, " native"));
  }
}

TEST(ParallelNativeFun3d, SmallKernelsBitIdentical) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("fun3d_small");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  const Program p = fun3d::build_fun3d_glaf_program();
  const auto load = [](Machine& m) {
    std::vector<double> ea(fun3d::kGlafEdges), eb(fun3d::kGlafEdges);
    std::vector<double> w(fun3d::kGlafEdges), q(fun3d::kGlafNodes);
    for (int e = 0; e < fun3d::kGlafEdges; ++e) {
      ea[static_cast<std::size_t>(e)] = e % fun3d::kGlafNodes;
      eb[static_cast<std::size_t>(e)] = (e * 7 + 3) % fun3d::kGlafNodes;
      w[static_cast<std::size_t>(e)] = 0.25 + 0.5 * (e % 3);
    }
    for (int k = 0; k < fun3d::kGlafNodes; ++k) {
      q[static_cast<std::size_t>(k)] = 1.0 + 0.01 * k;
    }
    ASSERT_TRUE(m.set_array("edge_a", ea).is_ok());
    ASSERT_TRUE(m.set_array("edge_b", eb).is_ok());
    ASSERT_TRUE(m.set_array("w", w).is_ok());
    ASSERT_TRUE(m.set_array("q", q).is_ok());
  };
  for (const std::string& name :
       {std::string("edge_scatter"), std::string("smooth_q")}) {
    for (const DirectivePolicy policy : kAllPolicies) {
      const std::string tag = cat(name, "/", to_string(policy));
      Machine serial(p, serial_native());
      Machine par(p, parallel_native(policy));
      require_native(serial);
      require_native(par);
      for (Machine* m : {&serial, &par}) {
        load(*m);
        ASSERT_TRUE(m->call(name).is_ok()) << tag;
      }
      compare_all_globals(serial, par, tag);
    }
  }
}

// ---- reduction ordering -----------------------------------------------------

/// total += a(i) over an INTEGER array: an exact reduction the emitter
/// may thread (per-rank scratch, rank-ordered combine).
Program int_reduce_program(int n) {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kInt, {E(n)});
  auto total = pb.global("total", DataType::kInt);
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, n - 1);
  s.assign(total(), E(total) + a(idx("i")));
  return pb.build().value();
}

TEST(ParallelNativeReductions, IntSumBitwiseAcrossThreadCounts) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("intsum");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  const Program p = int_reduce_program(64);
  std::vector<double> a(64);
  for (int i = 0; i < 64; ++i) a[static_cast<std::size_t>(i)] = (i * 13) % 31 - 15;
  Machine serial(p, serial_native());
  require_native(serial);
  ASSERT_TRUE(serial.set_array("a", a).is_ok());
  ASSERT_TRUE(serial.call("f").is_ok());
  const double expected = serial.scalar("total").value();
  for (const int threads : {1, 2, 4, 8}) {
    Machine par(p, parallel_native(DirectivePolicy::kV0, threads));
    require_native(par);
    ASSERT_TRUE(par.set_array("a", a).is_ok());
    ASSERT_TRUE(par.call("f").is_ok());
    EXPECT_EQ(par.native_report().parallel_calls, 1u) << threads;
    EXPECT_GT(par.native_report().parallel_regions, 0u) << threads;
    expect_value_equal(expected, par.scalar("total").value(),
                       cat("total@", threads, " threads"));
  }
}

TEST(ParallelNativeReductions, IntMinMaxBitwise) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("minmax");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kInt, {E(48)});
  auto lo = pb.global("lo", DataType::kInt);
  auto hi = pb.global("hi", DataType::kInt);
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, 47);
  s.assign(lo(), call("MIN", {E(lo), a(idx("i"))}));
  s.assign(hi(), call("MAX", {E(hi), a(idx("i"))}));
  const Program p = pb.build().value();
  std::vector<double> a_in(48);
  for (int i = 0; i < 48; ++i) {
    a_in[static_cast<std::size_t>(i)] = (i * 37) % 101 - 50;
  }
  const auto run = [&](InterpOptions o) {
    Machine m(p, o);
    require_native(m);
    EXPECT_TRUE(m.set_scalar("lo", 1000).is_ok());
    EXPECT_TRUE(m.set_scalar("hi", -1000).is_ok());
    EXPECT_TRUE(m.set_array("a", a_in).is_ok());
    EXPECT_TRUE(m.call("f").is_ok());
    return std::pair<double, double>{m.scalar("lo").value(),
                                     m.scalar("hi").value()};
  };
  const auto serial = run(serial_native());
  const auto par = run(parallel_native(DirectivePolicy::kV0, 8));
  expect_value_equal(serial.first, par.first, "lo");
  expect_value_equal(serial.second, par.second, "hi");
}

TEST(ParallelNativeReductions, FloatSumStaysSerialInsideTheKernel) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("floatsum");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  // A float sum is order-sensitive, so it is not bit-exact: the parallel
  // kernel must run it serially (no ranged dispatch) and stay bitwise
  // equal to the serial kernel.
  const Program p = testing::reduce_program();
  std::vector<double> x(16);
  for (int i = 0; i < 16; ++i) x[static_cast<std::size_t>(i)] = 1.0 / (1.0 + i);
  const auto run = [&](InterpOptions o, std::uint64_t* regions) {
    Machine m(p, o);
    require_native(m);
    EXPECT_TRUE(m.set_array("x", x).is_ok());
    EXPECT_TRUE(m.call("reduce_sum").is_ok());
    if (regions != nullptr) *regions = m.native_report().parallel_regions;
    return m.scalar("total").value();
  };
  const double serial = run(serial_native(), nullptr);
  std::uint64_t regions = ~std::uint64_t{0};
  const double par =
      run(parallel_native(DirectivePolicy::kV0, 8), &regions);
  EXPECT_EQ(regions, 0u) << "float reduction must not be threaded";
  expect_value_equal(serial, par, "total");
}

// ---- ownership-banded accumulation ------------------------------------------

/// acc(i) += w(i,j) under a collapse(2) directive: element acc(i) is
/// updated by several j iterations, so a flat partition would race —
/// the ownership band partitions on i only, keeping each element's
/// serial accumulation order even for floats.
Program ownership_program() {
  ProgramBuilder pb("m");
  auto w = pb.global("w", DataType::kDouble, {E(8), E(16)});
  auto acc = pb.global("acc", DataType::kDouble, {E(8)});
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, 7).foreach_("j", 0, 15);
  s.assign(acc(idx("i")), acc(idx("i")) + w(idx("i"), idx("j")));
  return pb.build().value();
}

TEST(ParallelNativeOwnership, BandedFloatAccumulationBitwise) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("owner");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  const Program p = ownership_program();
  // The analysis must classify this as bit-exact *with* an ownership
  // band (atomic grid covered by the pure 'i' subscript).
  const Function* fn = p.find_function("f");
  ASSERT_NE(fn, nullptr);
  Machine probe(p, serial_native());
  const auto& verdicts = probe.analysis().verdicts.at(fn->id);
  ASSERT_EQ(verdicts.size(), 1u);
  ASSERT_TRUE(verdicts[0].bit_exact) << verdict_to_string(p, verdicts[0]);
  ASSERT_GE(verdicts[0].exact_partition_dim, 0)
      << verdict_to_string(p, verdicts[0]);

  std::vector<double> w_in(8 * 16);
  for (std::size_t i = 0; i < w_in.size(); ++i) {
    w_in[i] = 1.0 / (3.0 + static_cast<double>(i));
  }
  const auto run = [&](InterpOptions o, std::uint64_t* regions) {
    Machine m(p, o);
    require_native(m);
    EXPECT_TRUE(m.set_array("w", w_in).is_ok());
    EXPECT_TRUE(m.call("f").is_ok());
    if (regions != nullptr) *regions = m.native_report().parallel_regions;
    return m.array("acc").value();
  };
  const std::vector<double> serial = run(serial_native(), nullptr);
  for (const int threads : {2, 8}) {
    std::uint64_t regions = 0;
    const std::vector<double> par =
        run(parallel_native(DirectivePolicy::kV0, threads), &regions);
    EXPECT_GT(regions, 0u) << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_value_equal(serial[i], par[i],
                         cat("acc[", i, "]@", threads, " threads"));
    }
  }
}

TEST(ParallelNativeOwnership, DynamicScheduleStaysBitwise) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("dyn");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  // Dynamic chunks still partition the banded dimension, so ownership
  // holds; per-rank scratch and rank-ordered combine keep reductions
  // deterministic even though chunk assignment is racy.
  for (const Program& p : {ownership_program(), int_reduce_program(64)}) {
    Machine serial(p, serial_native());
    require_native(serial);
    InterpOptions dyn = parallel_native(DirectivePolicy::kV0, 8, true);
    dyn.schedule_chunk = 3;
    Machine par(p, dyn);
    require_native(par);
    const bool owner = p.grid(p.global_grids[0]).name == "w";
    for (Machine* m : {&serial, &par}) {
      if (owner) {
        std::vector<double> w_in(8 * 16);
        for (std::size_t i = 0; i < w_in.size(); ++i) {
          w_in[i] = 1.0 / (5.0 + static_cast<double>(i));
        }
        ASSERT_TRUE(m->set_array("w", w_in).is_ok());
      } else {
        std::vector<double> a(64);
        for (int i = 0; i < 64; ++i) {
          a[static_cast<std::size_t>(i)] = (i * 7) % 23 - 11;
        }
        ASSERT_TRUE(m->set_array("a", a).is_ok());
      }
      ASSERT_TRUE(m->call("f").is_ok());
    }
    EXPECT_GT(par.native_report().parallel_regions, 0u);
    compare_all_globals(serial, par, owner ? "ownership" : "int-reduce");
  }
}

// ---- cache configuration ----------------------------------------------------

TEST(ParallelNativeCache, SerialAndParallelObjectsCoexist) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir tmp("coexist");
  const std::string& dir = tmp.path();
  const ScopedEnv env("GLAF_KERNEL_CACHE", dir);
  const Program p = testing::saxpy_program();
  Machine serial(p, serial_native());
  Machine par(p, parallel_native(DirectivePolicy::kV0));
  require_native(serial);
  require_native(par);
  EXPECT_NE(serial.native_report().object_path,
            par.native_report().object_path);
  // Both entries live on under the same directory; a second pair of
  // machines hits both caches.
  Machine serial2(p, serial_native());
  Machine par2(p, parallel_native(DirectivePolicy::kV0));
  require_native(serial2);
  require_native(par2);
  EXPECT_TRUE(serial2.native_report().cache_hit);
  EXPECT_TRUE(par2.native_report().cache_hit);
}

TEST(ParallelNativeCache, StaticAndDynamicSchedulesShareOneObject) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir tmp("schedule");
  const ScopedEnv env("GLAF_KERNEL_CACHE", tmp.path());
  // The schedule and its chunk are applied when the kernel loads and
  // never reach the emitted source, so they are not part of the cache
  // key: both schedules load the one parallel object.
  const Program p = ownership_program();
  Machine serial(p, serial_native());
  Machine stat(p, parallel_native(DirectivePolicy::kV0));
  InterpOptions dyn_opts = parallel_native(DirectivePolicy::kV0, 4, true);
  dyn_opts.schedule_chunk = 3;
  Machine dyn(p, dyn_opts);
  require_native(serial);
  require_native(stat);
  require_native(dyn);
  EXPECT_NE(serial.native_report().object_path,
            stat.native_report().object_path);
  EXPECT_FALSE(stat.native_report().cache_hit);
  EXPECT_EQ(stat.native_report().object_path,
            dyn.native_report().object_path);
  EXPECT_TRUE(dyn.native_report().cache_hit);

  std::vector<double> w_in(8 * 16);
  for (std::size_t i = 0; i < w_in.size(); ++i) {
    w_in[i] = 1.0 / (7.0 + static_cast<double>(i));
  }
  for (Machine* m : {&serial, &stat, &dyn}) {
    ASSERT_TRUE(m->set_array("w", w_in).is_ok());
    ASSERT_TRUE(m->call("f").is_ok());
  }
  EXPECT_GT(stat.native_report().parallel_regions, 0u);
  EXPECT_GT(dyn.native_report().parallel_regions, 0u);
  // No reduction combine runs here, so even the sign of zero must hold.
  compare_all_globals(serial, stat, "static", Equality::kBits);
  compare_all_globals(serial, dyn, "dynamic", Equality::kBits);
}

TEST(ParallelNativeCache, KeySeparatesEngineConfig) {
  const std::string base = jit::KernelCache::key("int x;", "cc", "-O2");
  EXPECT_EQ(base, jit::KernelCache::key("int x;", "cc", "-O2", ""));
  const std::string serial_key =
      jit::KernelCache::key("int x;", "cc", "-O2", "parallel=0;policy=v0");
  const std::string par_key =
      jit::KernelCache::key("int x;", "cc", "-O2", "parallel=1;policy=v0");
  EXPECT_EQ(serial_key.size(), 32u);
  EXPECT_NE(serial_key, base);
  EXPECT_NE(serial_key, par_key);
  EXPECT_NE(par_key,
            jit::KernelCache::key("int x;", "cc", "-O2", "parallel=1;policy=v2"));
}

// ---- forced fallback --------------------------------------------------------

TEST(ParallelNativeFallback, MissingCompilerFallsBackToDeterministicPlans) {
  const ScopedEnv env("GLAF_CC", "/nonexistent/compiler");
  const Program p = int_reduce_program(32);
  // No option asks for determinism: a native machine's plan fallback
  // threads only bit-exact steps, so it matches serial bit for bit.
  const InterpOptions o = parallel_native(DirectivePolicy::kV0, 4);
  Machine m(p, o);
  EXPECT_FALSE(m.native_report().available);
  EXPECT_FALSE(m.native_report().fallback_reason.empty());
  std::vector<double> a(32);
  for (int i = 0; i < 32; ++i) a[static_cast<std::size_t>(i)] = i - 16;
  Machine serial(p, InterpOptions{});
  for (Machine* mm : {&serial, &m}) {
    ASSERT_TRUE(mm->set_array("a", a).is_ok());
    ASSERT_TRUE(mm->call("f").is_ok());
  }
  EXPECT_EQ(m.native_report().native_calls, 0u);
  EXPECT_GE(m.native_report().fallback_calls, 1u);
  expect_bit_equal(serial.scalar("total").value(), m.scalar("total").value(),
                   "total");

  // A float sum is not bit-exact: the parallel plan engine threads it,
  // while the native machine's fallback keeps it serial, bit for bit.
  const Program fp = testing::reduce_program();
  std::vector<double> x(16);
  for (int i = 0; i < 16; ++i) x[static_cast<std::size_t>(i)] = 1.0 / (1.0 + i);
  InterpOptions plan = o;
  plan.engine = ExecEngine::kPlan;
  Machine fserial(fp, InterpOptions{});
  Machine fplan(fp, plan);
  Machine fnative(fp, o);
  for (Machine* mm : {&fserial, &fplan, &fnative}) {
    ASSERT_TRUE(mm->set_array("x", x).is_ok());
    ASSERT_TRUE(mm->call("reduce_sum").is_ok());
  }
  EXPECT_GT(fplan.stats().parallel_regions, 0u);
  EXPECT_EQ(fnative.stats().parallel_regions, 0u);
  expect_bit_equal(fserial.scalar("total").value(),
                   fnative.scalar("total").value(), "float total");
}

}  // namespace
}  // namespace glaf
