// sarb_deep_column and fun3d_jacobian: one caller in a closed loop over
// a parallel native-interp Machine, every result checked.

#include <cstring>
#include <filesystem>
#include <memory>

#include "layers.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/reference.hpp"
#include "fun3d/glaf_full.hpp"
#include "fun3d/recon.hpp"
#include "inputs.hpp"
#include "interp/machine.hpp"
#include "jit/cache.hpp"
#include "probe.hpp"
#include "runtime/thread_pool.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using glaf::Machine;

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bitwise_equal(const glaf::fuliou::SarbOutputs& a,
                   const glaf::fuliou::SarbOutputs& b) {
  return bitwise_equal(a.planck, b.planck) &&
         bitwise_equal(a.lw_flux, b.lw_flux) &&
         bitwise_equal(a.lw_entropy, b.lw_entropy) &&
         bitwise_equal(a.sw_flux, b.sw_flux) &&
         bitwise_equal(a.sw_entropy, b.sw_entropy) &&
         bitwise_equal(a.adjusted_flux, b.adjusted_flux) &&
         bitwise_equal(a.baseline, b.baseline) &&
         bitwise_equal(a.wc_flux, b.wc_flux) &&
         std::memcmp(&a.entropy_total, &b.entropy_total, sizeof(double)) == 0;
}

glaf::InterpOptions native_options(int threads, bool parallel,
                                   const std::string& cache_dir) {
  glaf::InterpOptions o;
  o.engine = glaf::ExecEngine::kNative;
  o.parallel = parallel;
  o.num_threads = threads;
  o.native_cache_dir = cache_dir;
  return o;
}

std::unique_ptr<Machine> make_native(glaf::Program program,
                                     const glaf::InterpOptions& options,
                                     const RunArgs& args) {
  std::filesystem::create_directories(options.native_cache_dir);
  auto m = std::make_unique<Machine>(std::move(program), options);
  if (!m->native_report().available) {
    throw BenchError(where(args, "native fallback at load: " +
                                     m->native_report().fallback_reason));
  }
  return m;
}

/// Bytes of every flat global grid of the machine (the call's working
/// set as the kernel copies it in and out).
double working_set_bytes(const Machine& m) {
  double bytes = 0.0;
  for (const glaf::GridId id : m.program().global_grids) {
    const auto a = m.array(m.program().grid(id).name);
    if (a.is_ok()) bytes += static_cast<double>(a.value().size() * 8);
  }
  return bytes;
}

// ---- the two workloads, as traits over one closed loop ---------------------

struct SarbTraits {
  using Output = glaf::fuliou::SarbOutputs;
  static constexpr const char* kEntry = "entropy_interface";
  std::vector<glaf::fuliou::AtmosphereProfile> inputs;
  std::vector<Output> golden;

  [[nodiscard]] glaf::Program build() const {
    return glaf::fuliou::build_sarb_program(kSarbLevels);
  }
  void prepare(Machine&) const {}
  glaf::Status copy_in(Machine& m, std::size_t i) const {
    return glaf::fuliou::load_profile(m, inputs[i]);
  }
  [[nodiscard]] Output copy_out(const Machine& m) const {
    return glaf::fuliou::extract_outputs(m);
  }
  [[nodiscard]] bool check(const Output& got, std::size_t i) const {
    return bitwise_equal(got, golden[i]);
  }
};

struct Fun3dTraits {
  using Output = std::vector<double>;
  static constexpr const char* kEntry = "edgejp";
  glaf::fun3d::Mesh mesh;
  std::vector<std::vector<double>> inputs;
  std::vector<Output> golden;

  [[nodiscard]] glaf::Program build() const {
    return glaf::fun3d::build_fun3d_full_program(mesh);
  }
  void prepare(Machine& m) const {
    if (!glaf::fun3d::load_mesh(m, mesh).is_ok()) {
      throw BenchError("fun3d_jacobian: load_mesh failed");
    }
  }
  glaf::Status copy_in(Machine& m, std::size_t i) const {
    return m.set_array("q", inputs[i]);
  }
  [[nodiscard]] Output copy_out(const Machine& m) const {
    auto jac = glaf::fun3d::extract_jacobian(m);
    return jac.is_ok() ? std::move(jac).value() : Output{};
  }
  [[nodiscard]] bool check(const Output& got, std::size_t i) const {
    const Output& want = golden[i];
    if (got.size() != want.size()) return false;
    for (std::size_t k = 0; k < got.size(); ++k) {
      // The paper's FUN3D tolerance: 1e-7 absolute (NaN fails).
      if (!(std::abs(got[k] - want[k]) <= 1e-7)) return false;
    }
    return true;
  }
};

struct CallSample {
  std::int64_t start_ns = 0;  ///< when the call began (steady clock)
  std::int64_t end_ns = 0;
  double total_ms = 0.0;  ///< copy-in + entry call + copy-out
  double copy_in_ms = 0.0;
  double call_ms = 0.0;
  double copy_out_ms = 0.0;
  bool traced = false;
};

/// One checked call. `tracer` is the run's recorder for a traced call
/// and a disabled one otherwise; the root span is the call, its children
/// the three layers, each opened and closed with its own clock read.
template <typename Traits>
CallSample one_call(const Traits& traits, Machine& m, std::size_t input,
                    std::uint64_t call_id, const RunArgs& args,
                    Tracer& tracer) {
  CallSample s;
  s.traced = tracer.enabled();
  const int root = tracer.begin("call", call_id);
  const std::int64_t t0 = now_ns();
  int span = tracer.begin("interp.copy_in", call_id, root);
  const glaf::Status in = traits.copy_in(m, input);
  tracer.end(span);
  const std::int64_t t1 = now_ns();
  span = tracer.begin("jit.call", call_id, root);
  const auto result = m.call(Traits::kEntry);
  tracer.end(span);
  const std::int64_t t2 = now_ns();
  span = tracer.begin("interp.copy_out", call_id, root);
  const typename Traits::Output out = traits.copy_out(m);
  tracer.end(span);
  const std::int64_t t3 = now_ns();
  tracer.end(root);
  if (!in.is_ok() || !result.is_ok()) {
    throw BenchError(where(args, "call " + std::to_string(call_id) + ": " +
                                     (in.is_ok() ? result.status().message()
                                                 : in.message())));
  }
  if (!traits.check(out, input)) {
    throw BenchError(where(args, "wrong value at call " +
                                     std::to_string(call_id) + " (input " +
                                     std::to_string(input) + ")"));
  }
  s.copy_in_ms = static_cast<double>(t1 - t0) / 1e6;
  s.call_ms = static_cast<double>(t2 - t1) / 1e6;
  s.copy_out_ms = static_cast<double>(t3 - t2) / 1e6;
  s.total_ms = static_cast<double>(t3 - t0) / 1e6;
  s.start_ns = t0;
  s.end_ns = t3;
  return s;
}

double median_of(const std::vector<CallSample>& samples,
                 double CallSample::*field, int traced_filter) {
  std::vector<double> v;
  for (const CallSample& s : samples) {
    if (traced_filter < 0 || static_cast<int>(s.traced) == traced_filter) {
      v.push_back(s.*field);
    }
  }
  return median(std::move(v));
}

/// The closed loop shared by both kernel workloads. `traced_extra(m,
/// tracer)` runs after the loop in the traced run, on the loop's machine.
template <typename Traits, typename Extra>
Outcome run_kernel(const Traits& traits, const RunArgs& args,
                   Report& report, TraceSink& sink, Extra&& traced_extra) {
  Tracer& tracer = sink.make();
  Tracer untraced(false, -1);
  glaf::jit::reset_kernel_cache_stats();

  // Cold set-ups: each builds the program and a Machine over an empty
  // private kernel cache and ends at the first checked result.
  std::vector<double> setup_s;
  std::unique_ptr<Machine> m;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::string cache =
        args.work_dir + "/cache-setup" + std::to_string(rep);
    m.reset();  // the previous set-up's machine, outside the timing
    const std::int64_t t0 = now_ns();
    m = make_native(traits.build(),
                    native_options(args.threads, true, cache), args);
    traits.prepare(*m);
    one_call(traits, *m, 0, 0, args, untraced);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const glaf::NativeReport& nr = m->native_report();
  report.note("compiler", nr.compiler);
  report.note("compiler_version", nr.compiler_version);
  report.note("compile_flags", nr.compile_flags);
  report.note("host_key", nr.host_key.empty() ? "(portable)" : nr.host_key);
  report.note("pool_threads", static_cast<double>(nr.num_threads));
  report.note("gate_min_units", static_cast<double>(nr.gate_min_units));
  report.note("regions_total", static_cast<double>(nr.regions_total));
  report.note("regions_fused", static_cast<double>(nr.regions_fused));
  report.note("working_set_bytes", working_set_bytes(*m));
  report.note("llc_bytes", static_cast<double>(llc_bytes()));

  // Measured phase: calls cycle over the input pool. The traced run
  // alternates traced and untraced calls, so the tracing overhead is the
  // difference between two interleaved samples of the same loop.
  const std::uint64_t native0 = nr.native_calls;
  const std::uint64_t fallback0 = nr.fallback_calls;
  const std::uint64_t dispatched0 = nr.parallel_regions;
  const std::uint64_t gated0 = nr.gated_serial_regions;
  std::vector<CallSample> samples;
  // At the first call to end after each whole second of the loop: the
  // calls since the previous such point over the time between them.
  std::vector<double> window_calls_per_s;
  std::size_t window_calls = 0;
  const double cpu0 = process_cpu_seconds();
  const std::int64_t start = now_ns();
  std::int64_t window_end = start;
  std::int64_t next_window = start + kWindowNs;
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  std::uint64_t call_id = 1;
  while (now_ns() - start < budget) {
    const bool traced = args.trace && call_id % 2 == 0;
    samples.push_back(one_call(traits, *m, call_id % traits.inputs.size(),
                               call_id, args, traced ? tracer : untraced));
    ++call_id;
    if (samples.back().end_ns >= next_window) {
      const auto n = static_cast<double>(samples.size() - window_calls);
      window_calls_per_s.push_back(
          n * 1e9 / static_cast<double>(samples.back().end_ns - window_end));
      window_calls = samples.size();
      window_end = samples.back().end_ns;
      next_window += kWindowNs;
    }
  }
  const double wall_s = static_cast<double>(now_ns() - start) / 1e9;
  const double cpu_s = process_cpu_seconds() - cpu0;
  const auto calls = static_cast<double>(samples.size());
  const std::uint64_t fallbacks = nr.fallback_calls - fallback0;
  if (fallbacks != 0 || nr.native_calls - native0 != samples.size()) {
    throw BenchError(where(args, std::to_string(fallbacks) +
                                     " call(s) fell back to the plan VM"));
  }

  // End-to-end metrics come from untraced calls only. In a closed loop a
  // host stall delays one call, which the median ignores; the rate is the
  // interquartile mean of the per-window rates, which drops the windows a
  // stall hit; the tail is the median over windows of kTailWindowSamples
  // consecutive calls (stamped with the call index).
  std::vector<double> untraced_ms;
  std::vector<TimedSample> by_index;
  for (const CallSample& s : samples) {
    if (s.traced) continue;
    by_index.push_back({static_cast<std::int64_t>(untraced_ms.size()),
                        s.total_ms});
    untraced_ms.push_back(s.total_ms);
  }
  const Summary lat = summarize(untraced_ms);
  report.note("calls", calls);
  report.note("latency_samples", static_cast<double>(lat.count));
  report.note("latency_tail_percentile", lat.tail_pct);
  report.note("latency_samples_beyond_tail", static_cast<double>(lat.beyond));
  report.metric("setup_s", median(setup_s), "s");
  report.metric("calls_per_s",
                window_calls_per_s.empty()
                    ? calls / wall_s
                    : interquartile_mean(window_calls_per_s),
                "1/s");
  report.metric("calls_per_s_pooled", calls / wall_s, "1/s");
  // How much the host moved within this run: the relative quartile spread
  // of the per-second rates.
  report.note("calls_per_s_window_spread", relative_iqr(window_calls_per_s));
  report.metric("call_p50_ms", lat.p50, "ms");
  report.metric("call_p99_ms",
                windowed_percentile(
                    by_index, static_cast<std::int64_t>(kTailWindowSamples),
                    99.0, kTailWindowSamples),
                "ms");
  report.metric("call_p99_pooled_ms", percentile(untraced_ms, 99.0), "ms");
  report.metric("cpu_ms_per_call", cpu_s * 1e3 / calls, "ms");
  report.metric("fail_ratio", 0.0, "ratio");

  if (args.trace) {
    const double traced_p50 =
        median_of(samples, &CallSample::total_ms, 1);
    report.metric("interp.copy_in_ms",
                  median_of(samples, &CallSample::copy_in_ms, -1), "ms");
    report.metric("interp.copy_out_ms",
                  median_of(samples, &CallSample::copy_out_ms, -1), "ms");
    report.metric("jit.call_ms", median_of(samples, &CallSample::call_ms, -1),
                  "ms");
    report.metric("jit.fallback_calls", static_cast<double>(fallbacks),
                  "count");
    const double dispatched =
        static_cast<double>(nr.parallel_regions - dispatched0) / calls;
    const double gated =
        static_cast<double>(nr.gated_serial_regions - gated0) / calls;
    report.metric("jit.regions_dispatched", dispatched, "count");
    report.metric("jit.regions_gated", gated, "count");
    report.metric("jit.gate_serial_share",
                  dispatched + gated > 0 ? gated / (dispatched + gated) : 0.0,
                  "ratio");
    report.metric("runtime.cpu_per_wall", cpu_s / wall_s, "ratio");
    report.metric("trace.overhead_pct", (traced_p50 / lat.p50 - 1.0) * 100.0,
                  "%");
    report.metric("trace.uncovered_share", uncovered_share(tracer.spans()),
                  "ratio");
    report.metric("runtime.fork_join_us", fork_join_us(args.threads), "us");

    // The same entry on a serial native machine, interleaved call by call
    // with the workload's machine so both see the same host.
    auto serial = make_native(traits.build(),
                              native_options(args.threads, false,
                                             args.work_dir + "/cache-serial"),
                              args);
    traits.prepare(*serial);
    std::vector<double> serial_ms, parallel_ms;
    const std::int64_t cmp_start = now_ns();
    for (std::uint64_t k = 0; now_ns() - cmp_start < 1'000'000'000 ||
                              serial_ms.size() < 5;
         ++k) {
      const std::size_t input = k % traits.inputs.size();
      serial_ms.push_back(
          one_call(traits, *serial, input, call_id, args, untraced).call_ms);
      parallel_ms.push_back(
          one_call(traits, *m, input, call_id, args, untraced).call_ms);
      ++call_id;
    }
    const double serial_p50 = median(serial_ms);
    const double parallel_p50 = median(parallel_ms);
    report.metric("jit.serial_call_ms", serial_p50, "ms");
    report.metric("jit.parallel_call_ms", parallel_p50, "ms");
    report.metric("jit.parallel_speedup", serial_p50 / parallel_p50, "ratio");

    glaf::InterpOptions layer_opts =
        native_options(args.threads, true, args.work_dir + "/cache-layers");
    record_compile_path(report,
                        time_compile_path(traits.build(), layer_opts,
                                          layer_opts.native_cache_dir,
                                          kSetupReps, tracer, 1u << 30));
    traced_extra(*m, tracer);
  }
  const glaf::jit::KernelCacheStats cache = glaf::jit::kernel_cache_stats();
  report.metric("jit.cache_hits", static_cast<double>(cache.hits), "count");
  report.metric("jit.cache_compiles", static_cast<double>(cache.compiles),
                "count");
  record_absent_serve_layer(report);

  Outcome outcome;
  outcome.attempted = samples.size() + static_cast<std::uint64_t>(kSetupReps);
  return outcome;
}

/// The SARB subroutines of Table 1 called alone on the workload's
/// machine, round-robin, each after a full column so its inputs are
/// live. One metric per subroutine.
void time_sarb_subroutines(Machine& m, const SarbTraits& traits,
                           const RunArgs& args, Report& report,
                           Tracer& tracer) {
  const auto& subs = glaf::fuliou::table1_subroutines();
  std::vector<std::vector<double>> ms(subs.size());
  if (!traits.copy_in(m, 0).is_ok() || !m.call(SarbTraits::kEntry).is_ok()) {
    throw BenchError(where(args, "subroutine timing set-up failed"));
  }
  const std::int64_t start = now_ns();
  std::uint64_t id = 1u << 29;
  while (now_ns() - start < 1'000'000'000 || ms[0].size() < 5) {
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const int span = tracer.begin("jit.call." + subs[i], id);
      const std::int64_t t0 = now_ns();
      if (!m.call(subs[i]).is_ok()) {
        throw BenchError(where(args, "subroutine " + subs[i] + " failed"));
      }
      ms[i].push_back(static_cast<double>(now_ns() - t0) / 1e6);
      tracer.end(span);
    }
    ++id;
  }
  for (std::size_t i = 0; i < subs.size(); ++i) {
    report.metric("jit.call_ms." + subs[i], median(ms[i]), "ms");
  }
}

}  // namespace

Outcome run_sarb_deep_column(const RunArgs& args, Report& report,
                             TraceSink& sink) {
  report.note("levels", static_cast<double>(kSarbLevels));
  SarbTraits traits;
  traits.inputs = sarb_profiles(args.seed, kSarbLevels, kInputPool);
  // Golden values: the serial plan VM on the same profiles.
  {
    Machine plan(traits.build());
    for (const auto& profile : traits.inputs) {
      auto out = glaf::fuliou::run_glaf_sarb(plan, profile);
      if (!out.is_ok()) {
        throw BenchError(where(args, "plan VM golden run failed: " +
                                         out.status().message()));
      }
      traits.golden.push_back(std::move(out).value());
    }
  }
  Outcome outcome =
      run_kernel(traits, args, report, sink, [&](Machine& m, Tracer& tracer) {
        time_sarb_subroutines(m, traits, args, report, tracer);
      });

  // The 60-level column of the paper, on the same tier, against the
  // hand-written reference.
  auto small = make_native(glaf::fuliou::build_sarb_program(),
                           native_options(args.threads, true,
                                          args.work_dir + "/cache-ref60"),
                           args);
  const auto profiles = sarb_profiles(args.seed ^ 60u, glaf::fuliou::kNumLevels,
                                      2);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    auto out = glaf::fuliou::run_glaf_sarb(*small, profiles[i]);
    if (!out.is_ok() ||
        !bitwise_equal(out.value(), glaf::fuliou::run_reference(profiles[i]))) {
      throw BenchError(where(args, "60-level column " + std::to_string(i) +
                                       " differs from run_reference"));
    }
  }
  outcome.attempted += profiles.size();
  return outcome;
}

Outcome run_fun3d_jacobian(const RunArgs& args, Report& report,
                           TraceSink& sink) {
  report.note("cells", static_cast<double>(kFun3dCells));
  Fun3dTraits traits;
  traits.mesh = fun3d_mesh(args.seed, kFun3dCells);
  report.note("nodes", static_cast<double>(traits.mesh.n_nodes));
  report.note("edges", static_cast<double>(traits.mesh.n_edges));
  traits.inputs = fun3d_solutions(args.seed, traits.mesh, kInputPool);
  for (const auto& q : traits.inputs) {
    glaf::fun3d::Mesh with_q = traits.mesh;
    with_q.q = q;
    traits.golden.push_back(glaf::fun3d::reconstruct_original(with_q).jac);
  }
  return run_kernel(traits, args, report, sink, [](Machine&, Tracer&) {});
}

}  // namespace perfbench
