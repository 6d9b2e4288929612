#pragma once
// Per-layer measurements shared by the workloads. The compile path a
// Machine runs at construction is timed layer by layer, called from here
// through each module's public API: core validate -> analysis
// analyze_program -> interp compile_plans -> jit emit_kernel_unit ->
// NativeEngine::compile_object (cold cache, then warm) ->
// NativeEngine::load_compiled.

#include <string>

#include "core/program.hpp"
#include "interp/machine.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct CompilePathTimes {
  double validate_ms = 0.0;
  double analyze_ms = 0.0;
  double plan_lower_ms = 0.0;
  double emit_ms = 0.0;
  double emit_bytes = 0.0;
  double cc_compile_ms = 0.0;  ///< compile_object on an empty cache
  double cache_hit_ms = 0.0;   ///< the same call once the object exists
  double load_ms = 0.0;
};

/// Time each compile-path layer for `program` as a Machine built with
/// `options` would run it, compiling into the empty directory
/// `cache_dir`. Each layer runs `reps` times (each compile into a fresh
/// subdirectory) and the medians are returned. Spans go to `tracer`
/// under one id per repetition.
CompilePathTimes time_compile_path(const glaf::Program& program,
                                   const glaf::InterpOptions& options,
                                   const std::string& cache_dir, int reps,
                                   Tracer& tracer, std::uint64_t span_id);

/// Record the times under their per-layer metric names.
void record_compile_path(Report& report, const CompilePathTimes& t);

/// Median wall time of an empty ThreadPool::parallel_for on a pool of
/// `width` (the fork/join a parallel region pays), in microseconds.
double fork_join_us(int width);

/// Mean self time of every span name (its duration minus what its child
/// spans cover) as "self_us.<name>".
void record_self_times(Report& report,
                       const std::vector<const Tracer*>& tracers);

/// Per-layer counts of the serve layer, recorded as 0 on the kernel
/// workloads, whose path does not include a server.
void record_absent_serve_layer(Report& report);

/// Field-wise sum (the serve workload compiles two programs).
CompilePathTimes operator+(const CompilePathTimes& a,
                           const CompilePathTimes& b);

}  // namespace perfbench
