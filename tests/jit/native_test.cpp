// Native-engine tests: (a) bit-identical differentials against the plan
// engine on the drift-prone semantics (integer DIV/MOD truncation, NaN
// through MIN/MAX, INTEGER-store truncation), against the tree-walk on
// the loops the interp tier's vectorizer reaches, and on the checked-in
// example kernels (SARB Table 1, FUN3D) and across inputs set between
// two calls on one machine, plus the interp tier's copy masks at the
// ABI boundary, (b) the kernel cache's cold/warm compile behaviour,
// corruption recovery, directory override and the TMPDIR-placed private
// kernel copy, and (c) the fallback policy when no compiler is available
// or a program has no flat-argument-block layout.
//
// Every test that needs the system compiler GTEST_SKIPs without one.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/profile.hpp"
#include "fun3d/glaf_fun3d.hpp"
#include "interp/machine.hpp"
#include "jit/cache.hpp"
#include "jit/emit.hpp"
#include "support/strings.hpp"
#include "testing/native.hpp"
#include "testing/programs.hpp"
#include "testing/scoped.hpp"

namespace glaf {
namespace {

using testing::compare_all_globals;
using testing::Equality;
using testing::expect_bit_equal;
using testing::have_cc;
using testing::require_native;
using testing::ScopedEnv;
using testing::ScopedTempDir;

InterpOptions native_opts() {
  InterpOptions o;
  o.engine = ExecEngine::kNative;
  return o;
}

InterpOptions plan_opts() {
  InterpOptions o;
  o.engine = ExecEngine::kPlan;
  return o;
}

// ---- bit-identical semantics ----------------------------------------------

TEST(NativeVsPlan, IntegerDivisionTruncates) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  ProgramBuilder pb("m");
  auto ia = pb.global("ia", DataType::kInt);
  auto ib = pb.global("ib", DataType::kInt);
  auto q = pb.global("q", DataType::kInt);
  auto fb = pb.function("f");
  fb.step("s").assign(q(), E(ia) / E(ib));
  const Program p = pb.build().value();

  const double cases[][3] = {
      {-7, 2, -3}, {7, -2, -3}, {-7, -2, 3}, {7, 2, 3}, {1, 3, 0}};
  for (const auto& c : cases) {
    Machine pl(p, plan_opts());
    Machine nat(p, native_opts());
    require_native(nat);
    for (Machine* m : {&pl, &nat}) {
      ASSERT_TRUE(m->set_scalar("ia", c[0]).is_ok());
      ASSERT_TRUE(m->set_scalar("ib", c[1]).is_ok());
      ASSERT_TRUE(m->call("f").is_ok());
    }
    EXPECT_GT(nat.native_report().native_calls, 0u);
    EXPECT_DOUBLE_EQ(nat.scalar("q").value(), c[2]);
    expect_bit_equal(pl.scalar("q").value(), nat.scalar("q").value(), "q");
  }
}

TEST(NativeVsPlan, ModIsFmodOnNegatives) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  ProgramBuilder pb("m");
  auto x = pb.global("x", DataType::kDouble);
  auto y = pb.global("y", DataType::kDouble);
  auto r = pb.global("r", DataType::kDouble);
  auto ix = pb.global("ix", DataType::kInt);
  auto iy = pb.global("iy", DataType::kInt);
  auto ir = pb.global("ir", DataType::kInt);
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.assign(r(), call("MOD", {E(x), E(y)}));
  s.assign(ir(), call("MOD", {E(ix), E(iy)}));
  const Program p = pb.build().value();

  const double cases[][2] = {{-7, 3}, {7, -3}, {-7.5, 2.5}, {8.25, 3.5}};
  for (const auto& c : cases) {
    Machine pl(p, plan_opts());
    Machine nat(p, native_opts());
    require_native(nat);
    for (Machine* m : {&pl, &nat}) {
      ASSERT_TRUE(m->set_scalar("x", c[0]).is_ok());
      ASSERT_TRUE(m->set_scalar("y", c[1]).is_ok());
      ASSERT_TRUE(m->set_scalar("ix", std::trunc(c[0])).is_ok());
      ASSERT_TRUE(m->set_scalar("iy", std::trunc(c[1])).is_ok());
      ASSERT_TRUE(m->call("f").is_ok());
    }
    expect_bit_equal(pl.scalar("r").value(), nat.scalar("r").value(), "r");
    expect_bit_equal(pl.scalar("ir").value(), nat.scalar("ir").value(), "ir");
  }
}

TEST(NativeVsPlan, NanThroughMinMaxIsBitIdentical) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  ProgramBuilder pb("m");
  auto x = pb.global("x", DataType::kDouble);
  auto lo = pb.global("lo", DataType::kDouble);
  auto hi = pb.global("hi", DataType::kDouble);
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.assign(lo(), call("MIN", {E(x), E(1.0)}));
  s.assign(hi(), call("MAX", {E(1.0), E(x)}));
  const Program p = pb.build().value();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  Machine pl(p, plan_opts());
  Machine nat(p, native_opts());
  require_native(nat);
  for (Machine* m : {&pl, &nat}) {
    ASSERT_TRUE(m->set_scalar("x", nan).is_ok());
    ASSERT_TRUE(m->call("f").is_ok());
  }
  expect_bit_equal(pl.scalar("lo").value(), nat.scalar("lo").value(), "lo");
  expect_bit_equal(pl.scalar("hi").value(), nat.scalar("hi").value(), "hi");
}

TEST(NativeVsPlan, IntegerStoreTruncates) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  ProgramBuilder pb("m");
  auto x = pb.global("x", DataType::kDouble);
  auto k = pb.global("k", DataType::kInt);
  auto fb = pb.function("f");
  fb.step("s").assign(k(), E(x) * 1.0);
  const Program p = pb.build().value();

  for (const double v : {2.75, -2.75, 0.5, -0.5}) {
    Machine pl(p, plan_opts());
    Machine nat(p, native_opts());
    require_native(nat);
    for (Machine* m : {&pl, &nat}) {
      ASSERT_TRUE(m->set_scalar("x", v).is_ok());
      ASSERT_TRUE(m->call("f").is_ok());
    }
    EXPECT_DOUBLE_EQ(nat.scalar("k").value(), std::trunc(v));
    expect_bit_equal(pl.scalar("k").value(), nat.scalar("k").value(), "k");
  }
}

/// out = k * 2 + b for a scalar parameter k: exercises the wrapper's
/// flat scalar-argument block and the FUNCTION return path.
Program scaled_program() {
  ProgramBuilder pb("m");
  auto out = pb.global("out", DataType::kDouble);
  auto b = pb.global("b", DataType::kDouble);
  auto fb = pb.function("f", DataType::kDouble);
  auto k = fb.param("k", DataType::kDouble);
  auto s = fb.step("s");
  s.assign(out(), E(k) * 2.0 + E(b));
  s.ret(E(out) + 1.0);
  return pb.build().value();
}

TEST(NativeVsPlan, ScalarArgumentsAndReturnValues) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program p = scaled_program();
  Machine pl(p, plan_opts());
  Machine nat(p, native_opts());
  require_native(nat);
  for (Machine* m : {&pl, &nat}) ASSERT_TRUE(m->set_scalar("b", 0.125).is_ok());
  const StatusOr<double> r_pl = pl.call("f", {CallArg{2.5}});
  const StatusOr<double> r_nat = nat.call("f", {CallArg{2.5}});
  ASSERT_TRUE(r_pl.is_ok());
  ASSERT_TRUE(r_nat.is_ok());
  EXPECT_GT(nat.native_report().native_calls, 0u);
  expect_bit_equal(r_pl.value(), r_nat.value(), "return");
  expect_bit_equal(pl.scalar("out").value(), nat.scalar("out").value(), "out");
}

TEST(NativeVsPlan, WholeArrayStateBitIdentical) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program p = testing::saxpy_program();
  Machine pl(p, plan_opts());
  Machine nat(p, native_opts());
  require_native(nat);
  for (Machine* m : {&pl, &nat}) {
    ASSERT_TRUE(m->set_scalar("a", 2.5).is_ok());
    ASSERT_TRUE(m->set_array("x", {1, 2, 3, 4, 5, 6, 7, 8}).is_ok());
    ASSERT_TRUE(m->call("saxpy").is_ok());
  }
  EXPECT_GT(nat.native_report().native_calls, 0u);
  const std::vector<double> y_pl = pl.array("y").value();
  const std::vector<double> y_nat = nat.array("y").value();
  ASSERT_EQ(y_pl.size(), y_nat.size());
  for (std::size_t i = 0; i < y_pl.size(); ++i) {
    expect_bit_equal(y_pl[i], y_nat[i], cat("y[", i, "]"));
  }
}

/// FUN3D-shaped loops the interp tier's vectorizer now reaches: the
/// edge loop's 50x5 divide `temps(t,eq) = dq(eq)/(t+1)`, an in-order
/// inner accumulation over inputs spanning 1e-16..1e16 (any reassociation
/// flips bits), and whole-grid SUM and MINVAL over the same inputs.
Program vectorizable_program() {
  ProgramBuilder pb("m");
  auto dq = pb.global("dq", DataType::kDouble, {E(5)});
  auto temps = pb.global("temps", DataType::kDouble, {E(50), E(5)});
  auto vals = pb.global("vals", DataType::kDouble, {E(5), E(64)});
  auto acc = pb.global("acc", DataType::kDouble, {E(5)});
  auto total = pb.global("total", DataType::kDouble);
  auto lowest = pb.global("lowest", DataType::kDouble);
  auto fb = pb.function("f");
  const E t = idx("t");
  const E eq = idx("eq");
  const E j = idx("j");
  auto s1 = fb.step("divide");
  s1.foreach_("t", 0, 49).foreach_("eq", 0, 4);
  s1.assign(temps(t, eq), dq(eq) / (t + 1));
  auto s2 = fb.step("accumulate");
  s2.foreach_("eq", 0, 4).foreach_("j", 0, 63);
  s2.assign(acc(eq), acc(eq) + vals(eq, j));
  auto s3 = fb.step("whole_grid");
  s3.assign(total(), call("SUM", {E(vals)}));
  s3.assign(lowest(), call("MINVAL", {E(vals)}));
  return pb.build().value();
}

TEST(NativeVsPlan, VectorizedLoopsStayBitExact) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program p = vectorizable_program();
  std::vector<double> vals(5 * 64);
  for (std::size_t k = 0; k < vals.size(); ++k) {
    const double mag = std::pow(10.0, static_cast<double>(k * 7 % 33) - 16.0);
    vals[k] = (k % 3 == 0 ? -1.0 : 1.0) * (1.0 + 0.37 * (k % 11)) * mag;
  }
  const auto run = [&](Machine& m) {
    ASSERT_TRUE(m.set_array("dq", {0.3, -1.7, 2.9, 1e-3, 7.1}).is_ok());
    ASSERT_TRUE(m.set_array("vals", vals).is_ok());
    ASSERT_TRUE(m.call("f").is_ok());
  };
  InterpOptions tree;
  tree.engine = ExecEngine::kTreeWalk;
  Machine reference(p, tree);
  run(reference);
  InterpOptions parallel = native_opts();
  parallel.parallel = true;
  parallel.gate_min_units = 0;  // dispatch every region, however small
  for (const InterpOptions& o : {native_opts(), parallel}) {
    Machine nat(p, o);
    require_native(nat);
    run(nat);
    EXPECT_GT(nat.native_report().native_calls, 0u);
    compare_all_globals(reference, nat,
                        o.parallel ? "tree-walk vs parallel native"
                                   : "tree-walk vs native",
                        Equality::kBits);
  }
}

// ---- example kernels --------------------------------------------------------

TEST(NativeExamples, SarbTable1SubroutinesBitIdentical) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program sarb = fuliou::build_sarb_program();
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(1);
  for (const std::string& name : fuliou::table1_subroutines()) {
    const Function* fn = sarb.find_function(name);
    if (fn == nullptr || !fn->params.empty()) continue;
    Machine pl(sarb, plan_opts());
    Machine nat(sarb, native_opts());
    require_native(nat);
    for (Machine* m : {&pl, &nat}) {
      ASSERT_TRUE(fuliou::load_profile(*m, profile).is_ok());
      ASSERT_TRUE(m->call(name).is_ok()) << name;
    }
    EXPECT_GT(nat.native_report().native_calls, 0u) << name;
    compare_all_globals(pl, nat, "plan vs native", Equality::kBits);
  }
}

TEST(NativeExamples, Fun3dKernelsBitIdentical) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
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
    Machine pl(p, plan_opts());
    Machine nat(p, native_opts());
    require_native(nat);
    for (Machine* m : {&pl, &nat}) {
      load(*m);
      ASSERT_TRUE(m->call(name).is_ok()) << name;
    }
    EXPECT_GT(nat.native_report().native_calls, 0u) << name;
    compare_all_globals(pl, nat, "plan vs native", Equality::kBits);
  }
}

// ---- host bindings ----------------------------------------------------------

TEST(NativeBindings, InputsSetBetweenCallsReachTheKernel) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  // The Machine resolves the kernel's slot table once, at construction;
  // it must keep pointing at the live global storage, so inputs set
  // between two calls are what the second call reads.
  const Program p = testing::saxpy_program();
  Machine pl(p, plan_opts());
  Machine nat(p, native_opts());
  require_native(nat);
  const std::vector<double> x1 = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<double> x2 = {0.5, -1.25, 3.75, 1e-3, -7, 2.5, 9, -0.125};
  const std::vector<double> y2 = {3, -1, 0.25, 8, 1.5, -2, 4, 6};
  for (Machine* m : {&pl, &nat}) {
    ASSERT_TRUE(m->set_scalar("a", 1.5).is_ok());
    ASSERT_TRUE(m->set_array("x", x1).is_ok());
    ASSERT_TRUE(m->call("saxpy").is_ok());
    ASSERT_TRUE(m->set_scalar("a", -0.3).is_ok());
    ASSERT_TRUE(m->set_array("x", x2).is_ok());
    ASSERT_TRUE(m->set_array("y", y2).is_ok());
    ASSERT_TRUE(m->call("saxpy").is_ok());
  }
  EXPECT_EQ(nat.native_report().native_calls, 2u);
  compare_all_globals(pl, nat, "second call", Equality::kBits);
}

TEST(NativeBindings, InterpTierWrappersCopyOnlyTouchedGlobals) {
  // Both tiers pass per-entry slot masks to copy-in/copy-out: saxpy
  // reads n, a, x and y but writes only y, so only y is copied back.
  const Program p = testing::saxpy_program();
  jit::EmitOptions eo;
  ASSERT_EQ(eo.model, NumericModel::kInterp);
  StatusOr<jit::KernelUnit> unit =
      jit::emit_kernel_unit(p, analyze_program(p), eo);
  ASSERT_TRUE(unit.is_ok()) << unit.status().message();
  const std::string& src = unit.value().source;
  for (const char* needle :
       {"glaf_nat_touch_glaf_nat_call_saxpy[] = {1,1,1,1};",
        "glaf_nat_write_glaf_nat_call_saxpy[] = {0,0,0,1};",
        "glaf_nat_copy_in(glaf_nat_a, glaf_nat_touch_glaf_nat_call_saxpy);",
        "glaf_nat_copy_out(glaf_nat_a, glaf_nat_write_glaf_nat_call_saxpy);"}) {
    EXPECT_NE(src.find(needle), std::string::npos) << needle;
  }
}

// ---- kernel cache -----------------------------------------------------------

TEST(KernelCache, SecondBindSkipsCompilation) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("warm");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  const Program p = testing::saxpy_program();
  jit::reset_kernel_cache_stats();

  Machine cold(p, native_opts());
  require_native(cold);
  EXPECT_FALSE(cold.native_report().cache_hit);
  const jit::KernelCacheStats after_cold = jit::kernel_cache_stats();
  EXPECT_EQ(after_cold.compiles, 1u);
  EXPECT_EQ(after_cold.misses, 1u);

  Machine warm(p, native_opts());
  require_native(warm);
  EXPECT_TRUE(warm.native_report().cache_hit);
  const jit::KernelCacheStats after_warm = jit::kernel_cache_stats();
  EXPECT_EQ(after_warm.compiles, 1u) << "warm bind must not recompile";
  EXPECT_GE(after_warm.hits, 1u);

  // And the warm machine still computes correctly.
  ASSERT_TRUE(warm.set_scalar("a", 2.0).is_ok());
  ASSERT_TRUE(warm.call("saxpy").is_ok());
  EXPECT_GT(warm.native_report().native_calls, 0u);
}

TEST(KernelCache, CorruptedEntryIsDiscardedAndRebuilt) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("corrupt");
  const ScopedEnv env("GLAF_KERNEL_CACHE", cache_dir.path());
  const Program p = testing::saxpy_program();

  Machine first(p, native_opts());
  require_native(first);
  const std::string object = first.native_report().object_path;
  ASSERT_FALSE(object.empty());
  {  // Truncate the published object to garbage.
    std::ofstream out(object, std::ios::binary | std::ios::trunc);
    out << "not an ELF object";
  }

  jit::reset_kernel_cache_stats();
  Machine second(p, native_opts());
  require_native(second);
  const jit::KernelCacheStats stats = jit::kernel_cache_stats();
  EXPECT_GE(stats.corrupt_discards, 1u);
  EXPECT_EQ(stats.compiles, 1u) << "rebuild after discarding";
  EXPECT_FALSE(second.native_report().cache_hit);

  Machine pl(p, plan_opts());
  for (Machine* m : {&pl, &second}) {
    ASSERT_TRUE(m->set_scalar("a", 3.0).is_ok());
    ASSERT_TRUE(m->call("saxpy").is_ok());
  }
  const std::vector<double> y_pl = pl.array("y").value();
  const std::vector<double> y_nat = second.array("y").value();
  for (std::size_t i = 0; i < y_pl.size(); ++i) {
    expect_bit_equal(y_pl[i], y_nat[i], cat("y[", i, "]"));
  }
}

TEST(KernelCache, EnvironmentOverrideRedirectsTheDirectory) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir tmp("override");
  const std::string& dir = tmp.path();
  const ScopedEnv env("GLAF_KERNEL_CACHE", dir);
  Machine m(testing::saxpy_program(), native_opts());
  require_native(m);
  EXPECT_EQ(m.native_report().object_path.rfind(dir + "/", 0), 0u)
      << "object " << m.native_report().object_path << " not under " << dir;
}

TEST(KernelCache, PrivateCopyGoesToTmpdirAndIsUnlinked) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedTempDir cache_dir("tmpdir_cache");
  const ScopedEnv cache_env("GLAF_KERNEL_CACHE", cache_dir.path());
  const ScopedTempDir tmp("tmpdir");
  const Program p = testing::saxpy_program();
  {
    const ScopedEnv env("TMPDIR", tmp.path());
    Machine m(p, native_opts());
    require_native(m);
    ASSERT_TRUE(m.call("saxpy").is_ok());
    EXPECT_EQ(m.native_report().native_calls, 1u);
  }
  EXPECT_TRUE(std::filesystem::is_empty(tmp.path()))
      << "the private kernel copy must be unlinked once loaded";
  // A TMPDIR that is not a directory leaves nowhere for the copy: the
  // kernel compiles but cannot load, so the machine falls back to plans.
  const ScopedEnv env("TMPDIR", tmp.path() + "/missing");
  Machine m(p, native_opts());
  EXPECT_FALSE(m.native_report().available);
  EXPECT_NE(m.native_report().fallback_reason.find("temp directory"),
            std::string::npos)
      << m.native_report().fallback_reason;
}

TEST(KernelCache, KeySeparatesSourceCompilerAndFlags) {
  const std::string k1 = jit::KernelCache::key("int x;", "cc", "-O2");
  EXPECT_EQ(k1.size(), 32u);
  EXPECT_EQ(k1, jit::KernelCache::key("int x;", "cc", "-O2"));
  EXPECT_NE(k1, jit::KernelCache::key("int y;", "cc", "-O2"));
  EXPECT_NE(k1, jit::KernelCache::key("int x;", "cc", "-O3"));
}

// ---- fallback policy --------------------------------------------------------

TEST(NativeFallback, MissingCompilerFallsBackToPlans) {
  const ScopedEnv env("GLAF_CC", "/nonexistent/compiler");
  const Program p = testing::saxpy_program();
  Machine m(p, native_opts());
  EXPECT_FALSE(m.native_report().available);
  EXPECT_NE(m.native_report().fallback_reason.find("not available"),
            std::string::npos)
      << m.native_report().fallback_reason;
  // Execution still works (plan fallback) and matches the plan engine.
  Machine pl(p, plan_opts());
  for (Machine* mm : {&pl, &m}) {
    ASSERT_TRUE(mm->set_scalar("a", 2.0).is_ok());
    ASSERT_TRUE(mm->call("saxpy").is_ok());
  }
  EXPECT_EQ(m.native_report().native_calls, 0u);
  const std::vector<double> a = pl.array("y").value();
  const std::vector<double> b = m.array("y").value();
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_bit_equal(a[i], b[i], cat("y[", i, "]"));
  }
}

TEST(NativeFallback, StructGlobalsAreWholeEngineFallback) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  ProgramBuilder pb("m");
  auto s = pb.global("s", DataType::kDouble, {E(4)},
                     {.fields = {{"a", DataType::kDouble},
                                 {"b", DataType::kDouble}}});
  auto fb = pb.function("f");
  auto st = fb.step("st");
  st.foreach_("i", 0, 3);
  st.assign(s.at_field("a", idx("i")), idx("i") * 2.0);
  const Program p = pb.build().value();
  Machine m(p, native_opts());
  EXPECT_FALSE(m.native_report().available);
  EXPECT_NE(m.native_report().fallback_reason.find("struct"),
            std::string::npos);
  ASSERT_TRUE(m.call("f").is_ok());  // plan fallback still runs
}

TEST(NativeFallback, GridNameArgumentsFallBackPerCall) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program p = scaled_program();
  Machine m(p, native_opts());
  require_native(m);
  ASSERT_TRUE(m.set_scalar("b", 1.0).is_ok());
  // Passing the scalar global by name binds it by reference — the C ABI
  // passes scalars by value, so this call must take the plan path.
  ASSERT_TRUE(m.call("f", {CallArg{std::string("b")}}).is_ok());
  EXPECT_EQ(m.native_report().native_calls, 0u);
  EXPECT_GE(m.native_report().fallback_calls, 1u);
  // A literal argument takes the native path on the same machine.
  ASSERT_TRUE(m.call("f", {CallArg{2.0}}).is_ok());
  EXPECT_EQ(m.native_report().native_calls, 1u);
}

TEST(NativeFallback, TraceRequestsUsePlans) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  InterpOptions o = native_opts();
  o.trace = true;
  Machine m(testing::saxpy_program(), o);
  EXPECT_FALSE(m.native_report().available);
  ASSERT_TRUE(m.set_scalar("a", 2.0).is_ok());
  ASSERT_TRUE(m.call("saxpy").is_ok());
  EXPECT_FALSE(m.trace().empty());
}

}  // namespace
}  // namespace glaf
