#include "jit/engine.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "analysis/plan_profit.hpp"
#include "jit/cache.hpp"
#include "support/fault.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"

namespace glaf::jit {
namespace {

/// Host mirror of the emitted glaf_nat_args struct (emit.cpp keeps the
/// layouts in lockstep; both are plain C-compatible PODs).
struct NatArgs {
  double* const* grids;
  const long* extents;
  const double* scalars;
  long num_threads;
  double result;
};

using WrapperFn = long (*)(NatArgs*);
using MetaFn = long (*)(void);

// C-side pfor callback types (must match the emitted typedefs).
using RangeFn = void (*)(void* ctx, long lo, long hi, long rank);
using PforFn = void (*)(void* hctx, RangeFn fn, void* ctx, long n);
using SetPforFn = void (*)(PforFn pf, void* hctx, long nranks, long gate);

/// The trampoline the kernel calls for every ranged step: partitions
/// [0, n) across the host pool. Static chunks match OMP's default
/// schedule; dynamic drains chunk-sized pieces from a shared cursor.
/// Either way each rank only ever touches its own reduction scratch
/// row, and the kernel combines rows in rank order afterwards, so the
/// result is identical to running the range serially.
void pfor_trampoline(void* hctx, RangeFn fn, void* ctx, long n) {
  auto* host = static_cast<PforHost*>(hctx);
  host->regions.fetch_add(1, std::memory_order_relaxed);
  if (host->pool == nullptr || n <= 1) {
    fn(ctx, 0, n, 0);
    return;
  }
  if (host->dynamic_schedule) {
    host->pool->parallel_for_dynamic(
        n, host->schedule_chunk,
        [&](int rank, std::int64_t begin, std::int64_t end) {
          fn(ctx, begin, end, rank);
        });
    return;
  }
  host->pool->parallel_for(n,
                           [&](int rank, std::int64_t begin, std::int64_t end) {
                             if (begin < end) fn(ctx, begin, end, rank);
                           });
}


/// Copy the published object to a private temp file and dlopen that
/// (see the header: per-engine static state), unlinking immediately so
/// the copy lives exactly as long as the handle. The copy goes to the
/// temp directory ($TMPDIR, else /tmp).
StatusOr<void*> open_private_copy(const std::string& object_path) {
  std::error_code ec;
  const std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
  if (ec) {
    return internal_error(cat("no temp directory for the private kernel"
                              " copy: ", ec.message()));
  }
  std::string copy_path =
      (tmp / cat("glaf_nat_", getpid(), "_XXXXXX")).string();
  const int fd = mkstemp(copy_path.data());
  if (fd < 0) return internal_error("cannot create private kernel copy");
  {
    std::ifstream in(object_path, std::ios::binary);
    std::ofstream out(copy_path, std::ios::binary);
    out << in.rdbuf();
    if (!in || !out) {
      close(fd);
      std::remove(copy_path.c_str());
      return internal_error(cat("cannot copy ", object_path));
    }
  }
  close(fd);
  void* handle = dlopen(copy_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  std::remove(copy_path.c_str());
  if (handle == nullptr) {
    const char* err = dlerror();
    return internal_error(
        cat("dlopen failed: ", err != nullptr ? err : "unknown error"));
  }
  return handle;
}

}  // namespace

StatusOr<std::unique_ptr<NativeEngine>> NativeEngine::create(
    const Program& program, const ProgramAnalysis& analysis,
    const Options& options) {
  StatusOr<CompiledKernel> compiled =
      compile_object(program, analysis, options);
  if (!compiled.is_ok()) return compiled.status();
  return load_compiled(std::move(compiled).value(), options);
}

StatusOr<CompiledKernel> NativeEngine::compile_object(
    const Program& program, const ProgramAnalysis& analysis,
    const Options& options) {
  StatusOr<KernelUnit> unit = emit_kernel_unit(program, analysis, options);
  if (!unit.is_ok()) return unit.status();

  const bool opt_tier = options.model == NumericModel::kOpt;
  const std::string cc = default_cc(options.cc);
  const bool portable =
      options.portable || std::getenv("GLAF_NATIVE_PORTABLE") != nullptr;
  // interp tier: -ffp-contract=off because FMA contraction would round
  // differently than the interpreter's plain double arithmetic, breaking
  // bit-identity; -fno-builtin because the compiler constant-folds libm
  // calls on literal arguments (correctly rounded via MPFR), which can
  // differ by an ulp from the runtime libm the interpreter calls.
  // opt tier: the opposite trade — typed storage, -O3 with contraction
  // on, -fno-math-errno so libm calls vectorize, and -march=native
  // unless a portable object was requested. Its output is compared
  // under ulp budgets, never bitwise.
  const std::string flags =
      opt_tier
          ? cat("-shared -fPIC -O3 -ffp-contract=fast -fno-math-errno",
                portable ? "" : " -march=native")
          : "-shared -fPIC -O2 -ffp-contract=off -fno-builtin";
  // The emitted source already encodes the parallel partitioning, but
  // folding the emission configuration into the key as well keeps serial
  // and parallel objects (and per-policy / per-tier variants) as
  // distinct cache entries even when their sources coincide.
  // -march=native objects additionally key the host CPU fingerprint, so
  // a cache directory shared across hosts can never serve an
  // incompatible object (the compiler identity is already part of every
  // key via KernelCache::key).
  // What is installed at load — the schedule, its chunk and the gate
  // threshold — is deliberately NOT part of the key: it never reaches
  // the emitted source, so changing it must never recompile or split
  // the cache.
  const std::string host_key =
      opt_tier && !portable ? host_arch_fingerprint() : std::string();
  const std::string config =
      cat("parallel=", options.emits_parallel() ? 1 : 0, ";policy=",
          to_string(options.policy), ";fuse=", options.fuse_regions ? 1 : 0,
          ";model=", to_string(options.model), ";host=", host_key,
          ";emit=", kAbiVersion);

  CompiledKernel compiled;
  compiled.unit = std::move(unit).value();
  compiled.cc = cc;
  compiled.cc_identity = compiler_identity(cc);
  compiled.flags = flags;
  compiled.host_key = host_key;
  compiled.config = config;

  KernelCache cache(options.cache_dir);
  compiled.cache_dir = cache.dir();
  StatusOr<std::string> object = cache.object_for(
      compiled.unit.source, cc, flags, &compiled.cache_hit, config);
  if (!object.is_ok()) return object.status();
  compiled.object_path = std::move(object).value();
  return compiled;
}

StatusOr<std::unique_ptr<NativeEngine>> NativeEngine::load_compiled(
    CompiledKernel compiled, const Options& options) {
  if (fault::should_fail("jit.engine.load")) {
    return internal_error("fault injected: kernel load refused");
  }
  const bool parallel = options.emits_parallel();

  auto engine = std::unique_ptr<NativeEngine>(new NativeEngine());
  engine->build_ = std::move(compiled);
  engine->num_threads_ = options.num_threads;
  CompiledKernel& build = engine->build_;

  StatusOr<void*> handle = open_private_copy(build.object_path);
  if (!handle.is_ok()) {
    // The published entry may be stale or corrupted in a way the ELF
    // sniff missed: discard it and rebuild once.
    KernelCache cache(build.cache_dir);
    cache.invalidate(build.object_path);
    StatusOr<std::string> object = cache.object_for(
        build.unit.source, build.cc, build.flags, nullptr, build.config);
    if (!object.is_ok()) return object.status();
    build.cache_hit = false;
    build.object_path = std::move(object).value();
    handle = open_private_copy(build.object_path);
    if (!handle.is_ok()) return handle.status();
  }
  engine->handle_ = handle.value();

  // ABI sanity before any call goes through.
  const auto meta = [&](const char* symbol) -> long {
    auto* fn =
        reinterpret_cast<MetaFn>(dlsym(engine->handle_, symbol));
    return fn != nullptr ? fn() : -1;
  };
  if (meta("glaf_nat_abi_version") != kAbiVersion) {
    return internal_error("kernel ABI version mismatch");
  }
  if (meta("glaf_nat_num_slots") !=
      static_cast<long>(build.unit.slots.size())) {
    return internal_error("kernel slot count mismatch");
  }
  if (meta("glaf_nat_parallel") != (parallel ? 1 : 0)) {
    return internal_error("kernel parallel-mode mismatch");
  }
  if (meta("glaf_nat_model") != (options.model == NumericModel::kOpt ? 1 : 0)) {
    return internal_error("kernel numeric-model mismatch");
  }
  if (parallel) {
    auto* set_pfor = reinterpret_cast<SetPforFn>(
        dlsym(engine->handle_, "glaf_set_pfor"));
    if (set_pfor == nullptr) {
      return internal_error("parallel kernel lacks glaf_set_pfor");
    }
    engine->pfor_host_ = std::make_unique<PforHost>();
    engine->pfor_host_->pool = options.pool;
    engine->pfor_host_->dynamic_schedule = options.dynamic_schedule;
    engine->pfor_host_->schedule_chunk = options.schedule_chunk;
    const int ranks = options.pool != nullptr ? options.pool->size() : 1;
    engine->gate_units_ = resolve_gate_units(
        options.gate_min_units, ranks, std::thread::hardware_concurrency());
    set_pfor(pfor_trampoline, engine->pfor_host_.get(), ranks,
             engine->gate_units_);
    engine->gated_fn_ = reinterpret_cast<long (*)()>(
        dlsym(engine->handle_, "glaf_nat_gated"));
    if (engine->gated_fn_ == nullptr) {
      return internal_error("parallel kernel lacks glaf_nat_gated");
    }
  }
  engine->entry_points_.resize(build.unit.functions.size(), nullptr);
  for (std::size_t i = 0; i < build.unit.functions.size(); ++i) {
    const AbiFunction& fn = build.unit.functions[i];
    if (!fn.supported) continue;
    void* sym = dlsym(engine->handle_, fn.symbol.c_str());
    if (sym == nullptr) {
      return internal_error(cat("missing kernel symbol ", fn.symbol));
    }
    engine->entry_points_[i] = sym;
  }
  return engine;
}

NativeEngine::~NativeEngine() {
  if (handle_ != nullptr) dlclose(handle_);
}

Status NativeEngine::bind_globals(std::vector<double*> grids,
                                  std::vector<long> extents) {
  if (grids.size() != slots().size() || extents.size() != slots().size()) {
    return invalid_argument(cat("native engine bound ", grids.size(),
                                " globals, kernel has ", slots().size()));
  }
  grids_ = std::move(grids);
  extents_ = std::move(extents);
  return Status::ok();
}

StatusOr<double> NativeEngine::call(std::size_t index,
                                    const std::vector<double>& scalars) {
  if (!callable(index)) {
    return failed_precondition(cat("function #", index, " has no native entry"));
  }
  if (grids_.size() != slots().size()) {
    return failed_precondition("native call before bind_globals");
  }
  NatArgs args{grids_.data(), extents_.data(), scalars.data(),
               num_threads_, 0.0};
  const long status =
      reinterpret_cast<WrapperFn>(entry_points_[index])(&args);
  if (status != 0) {
    return internal_error(cat("native kernel rejected slot ", status - 1,
                              " of '", build_.unit.functions[index].name,
                              "' (extent mismatch)"));
  }
  return args.result;
}

std::int64_t resolve_gate_units(std::int64_t requested, int pool_threads,
                                unsigned hardware_threads) {
  if (requested >= 0) return requested;
  if (pool_threads <= 1 || hardware_threads <= 1) {
    return ParallelGate::kAlwaysSerialUnits;
  }
  return ParallelGate{}.threshold_units(pool_threads);
}

}  // namespace glaf::jit
