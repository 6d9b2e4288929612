#include "layers.hpp"

#include <filesystem>
#include <memory>
#include <set>
#include <vector>

#include "analysis/parallelize.hpp"
#include "core/validate.hpp"
#include "interp/native_options.hpp"
#include "interp/plan.hpp"
#include "jit/emit.hpp"
#include "jit/engine.hpp"
#include "report.hpp"
#include "runtime/thread_pool.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/// Times `fn` into `samples` (ms) and records it as a child span of
/// `parent`.
template <typename Fn>
void timed(Tracer& tracer, const char* name, std::uint64_t id, int parent,
           std::vector<double>* samples, Fn&& fn) {
  const std::int64_t start = now_ns();
  fn();
  const std::int64_t end = now_ns();
  tracer.add(name, id, parent, start, end);
  samples->push_back(static_cast<double>(end - start) / 1e6);
}

}  // namespace

CompilePathTimes time_compile_path(const glaf::Program& program,
                                   const glaf::InterpOptions& options,
                                   const std::string& cache_dir, int reps,
                                   Tracer& tracer, std::uint64_t span_id) {
  std::vector<double> validate_ms, analyze_ms, plan_ms, emit_ms, cc_ms,
      hit_ms, load_ms;
  double emit_bytes = 0.0;
  std::unique_ptr<glaf::ThreadPool> pool;
  if (options.parallel) {
    pool = std::make_unique<glaf::ThreadPool>(options.num_threads);
  }
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t id = span_id + static_cast<std::uint64_t>(rep);
    const int root = tracer.begin("compile_path", id);

    timed(tracer, "core.validate", id, root, &validate_ms, [&] {
      if (!glaf::is_valid(glaf::validate(program))) {
        throw BenchError("compile path: program failed validation");
      }
    });
    glaf::ProgramAnalysis analysis;
    timed(tracer, "analysis.analyze_program", id, root, &analyze_ms, [&] {
      analysis = glaf::analyze_program(program, options.tweaks);
    });
    timed(tracer, "interp.compile_plans", id, root, &plan_ms, [&] {
      std::set<glaf::GridId> atomic_grids;
      for (const auto& [fn, verdicts] : analysis.verdicts) {
        for (const glaf::StepVerdict& v : verdicts) {
          atomic_grids.insert(v.atomic_grids.begin(), v.atomic_grids.end());
        }
      }
      const glaf::interp::ProgramPlan plans =
          glaf::interp::compile_plans(program, analysis, atomic_grids);
      if (plans.functions.empty()) {
        throw BenchError("compile path: no plans compiled");
      }
    });

    glaf::InterpOptions rep_options = options;
    rep_options.native_cache_dir = cache_dir + "/rep" + std::to_string(rep);
    std::filesystem::create_directories(rep_options.native_cache_dir);
    const glaf::jit::NativeEngine::Options nopts =
        glaf::native_engine_options(rep_options, pool.get());

    timed(tracer, "jit.emit_kernel_unit", id, root, &emit_ms, [&] {
      glaf::jit::EmitOptions eopts;
      eopts.parallel = nopts.parallel;
      eopts.policy = nopts.policy;
      eopts.save_temporaries = nopts.save_temporaries;
      eopts.dynamic_schedule = nopts.dynamic_schedule;
      eopts.schedule_chunk = nopts.schedule_chunk;
      eopts.fuse_regions = nopts.fuse_regions;
      eopts.model = nopts.model;
      auto unit = glaf::jit::emit_kernel_unit(program, analysis, eopts);
      if (!unit.is_ok()) {
        throw BenchError("compile path: emit: " + unit.status().message());
      }
      emit_bytes = static_cast<double>(unit.value().source.size());
    });

    glaf::StatusOr<glaf::jit::CompiledKernel> compiled =
        glaf::internal_error("not compiled");
    timed(tracer, "jit.compile_object.cold", id, root, &cc_ms, [&] {
      compiled =
          glaf::jit::NativeEngine::compile_object(program, analysis, nopts);
    });
    if (!compiled.is_ok() || compiled.value().cache_hit) {
      throw BenchError("compile path: cold compile_object: " +
                       (compiled.is_ok() ? std::string("unexpected cache hit")
                                         : compiled.status().message()));
    }
    timed(tracer, "jit.compile_object.warm", id, root, &hit_ms, [&] {
      compiled =
          glaf::jit::NativeEngine::compile_object(program, analysis, nopts);
    });
    if (!compiled.is_ok() || !compiled.value().cache_hit) {
      throw BenchError("compile path: warm compile_object missed the cache");
    }
    timed(tracer, "jit.load_compiled", id, root, &load_ms, [&] {
      auto engine = glaf::jit::NativeEngine::load_compiled(
          std::move(compiled).value(), nopts);
      if (!engine.is_ok()) {
        throw BenchError("compile path: load: " + engine.status().message());
      }
    });
    tracer.end(root);
  }
  CompilePathTimes t;
  t.validate_ms = median(validate_ms);
  t.analyze_ms = median(analyze_ms);
  t.plan_lower_ms = median(plan_ms);
  t.emit_ms = median(emit_ms);
  t.emit_bytes = emit_bytes;
  t.cc_compile_ms = median(cc_ms);
  t.cache_hit_ms = median(hit_ms);
  t.load_ms = median(load_ms);
  return t;
}

void record_compile_path(Report& report, const CompilePathTimes& t) {
  report.metric("core.validate_ms", t.validate_ms, "ms");
  report.metric("analysis.analyze_ms", t.analyze_ms, "ms");
  report.metric("interp.plan_lower_ms", t.plan_lower_ms, "ms");
  report.metric("jit.emit_ms", t.emit_ms, "ms");
  report.metric("jit.emit_bytes", t.emit_bytes, "bytes");
  report.metric("jit.cc_compile_ms", t.cc_compile_ms, "ms");
  report.metric("jit.cache_hit_ms", t.cache_hit_ms, "ms");
  report.metric("jit.load_ms", t.load_ms, "ms");
}

double fork_join_us(int width) {
  glaf::ThreadPool pool(width);
  std::vector<double> us;
  for (int rep = 0; rep < 2000; ++rep) {
    const std::int64_t t0 = now_ns();
    pool.parallel_for(width, [](int, std::int64_t, std::int64_t) {});
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(std::move(us));
}

void record_self_times(Report& report,
                       const std::vector<const Tracer*>& tracers) {
  std::vector<Span> spans;
  for (const Tracer* tracer : tracers) {
    // Parents index into their own recorder; shift them into the merged
    // list.
    const int base = static_cast<int>(spans.size());
    for (Span s : tracer->spans()) {
      if (s.parent >= 0) s.parent += base;
      spans.push_back(std::move(s));
    }
  }
  for (const NameTotals& t : totals_by_name(spans)) {
    report.metric("self_us." + t.name,
                  t.self_us / static_cast<double>(t.count), "us");
  }
}

void record_absent_serve_layer(Report& report) {
  report.metric("serve.avg_batch", 0.0, "ratio");
  report.metric("serve.refused", 0.0, "count");
  report.metric("serve.deadline_expired", 0.0, "count");
  report.metric("serve.client_retries", 0.0, "count");
}

CompilePathTimes operator+(const CompilePathTimes& a,
                           const CompilePathTimes& b) {
  CompilePathTimes s;
  s.validate_ms = a.validate_ms + b.validate_ms;
  s.analyze_ms = a.analyze_ms + b.analyze_ms;
  s.plan_lower_ms = a.plan_lower_ms + b.plan_lower_ms;
  s.emit_ms = a.emit_ms + b.emit_ms;
  s.emit_bytes = a.emit_bytes + b.emit_bytes;
  s.cc_compile_ms = a.cc_compile_ms + b.cc_compile_ms;
  s.cache_hit_ms = a.cache_hit_ms + b.cache_hit_ms;
  s.load_ms = a.load_ms + b.load_ms;
  return s;
}

}  // namespace perfbench
