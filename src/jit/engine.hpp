#pragma once
// The native execution engine: compiles the emitted kernel unit with the
// system C compiler (through the content-addressed KernelCache), loads
// the shared object with dlopen, and calls functions in-process through
// the flat-argument-block ABI.
//
// Isolation: the cached object is copied to a private temp file before
// dlopen (then unlinked). glibc dedupes dlopen by inode, so loading the
// cache file directly would share one copy of the unit's static state
// (SAVE'd locals, owned globals) between every Machine in the process;
// the private copy gives each engine fresh statics, mirroring the
// interpreter's per-Machine saved_locals_. Compilation — the expensive
// step — is still shared through the cache.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/parallelize.hpp"
#include "core/program.hpp"
#include "jit/emit.hpp"
#include "runtime/thread_pool.hpp"
#include "support/status.hpp"

namespace glaf::jit {

/// Host context behind the kernel's exported glaf_set_pfor hook: the
/// thread pool and dispatch knobs the trampoline consults, plus a count
/// of parallel regions actually dispatched. Heap-held by the engine so
/// its address stays stable for the kernel's whole lifetime.
struct PforHost {
  ThreadPool* pool = nullptr;
  bool dynamic_schedule = false;
  std::int64_t schedule_chunk = 4;
  std::atomic<std::uint64_t> regions{0};
};

/// One kernel build: the emitted unit, the published cache object and
/// the exact build identity it was keyed under. Produced by
/// NativeEngine::compile_object (which never dlopens — safe on a
/// background thread); load_compiled moves it into the engine it builds,
/// which keeps it as its build record.
struct CompiledKernel {
  KernelUnit unit;
  std::string object_path;  ///< published cache entry
  bool cache_hit = false;   ///< compilation skipped (entry already valid)
  /// Build provenance / cache identity: resolved compiler command, its
  /// --version line, the flag string, the host fingerprint (opt tier,
  /// non-portable only) and the full cache-key config string.
  std::string cc;
  std::string cc_identity;
  std::string flags;
  std::string host_key;
  std::string config;
  /// Cache directory the object was published into (resolved, so the
  /// load half rebuilds through the same cache on a stale entry).
  std::string cache_dir;
};

class NativeEngine {
 public:
  /// The emission knobs (parallel, policy, save_temporaries,
  /// fuse_regions, dynamic_schedule, schedule_chunk, model) are
  /// inherited; the fields below only steer compiling and loading.
  struct Options : EmitOptions {
    int num_threads = 4;
    /// Profit-gate threshold in plan_profit work units: a region
    /// dispatches to the pool only when trip_count x units reaches it.
    /// 0 disables gating (always dispatch); -1 resolves a calibrated
    /// default from the pool size and the hardware (always-serial on a
    /// single-core host). Installed at load time, so it never splits the
    /// kernel cache.
    std::int64_t gate_min_units = -1;
    /// Pool for parallel kernels (borrowed, must outlive the engine).
    /// nullptr runs parallel units serially through the same range
    /// functions — results are identical either way.
    ThreadPool* pool = nullptr;
    /// Compiler command; "" resolves $GLAF_CC, then "cc".
    std::string cc;
    /// Cache directory override ("" = $GLAF_KERNEL_CACHE / XDG default).
    std::string cache_dir;
    /// Compile the opt tier without -march=native (generic -O3), for
    /// cache directories or objects that must run on any host. Also
    /// forced by the GLAF_NATIVE_PORTABLE environment variable.
    bool portable = false;
  };

  /// Emit, compile (or reuse the cached object) and load the program.
  /// Any failure here means the whole engine is unavailable and the
  /// caller should fall back. Equivalent to compile_object() followed by
  /// load_compiled() — the synchronous path and the serve subsystem's
  /// async compile queue share those two halves.
  static StatusOr<std::unique_ptr<NativeEngine>> create(
      const Program& program, const ProgramAnalysis& analysis,
      const Options& options);

  /// Compile-only half: emit the kernel unit and compile (or reuse) the
  /// cached object, WITHOUT dlopening it. Safe to run on a background
  /// thread; the returned record carries everything load_compiled()
  /// needs, and the published cache path means a later create() with the
  /// same options is a pure cache hit.
  static StatusOr<CompiledKernel> compile_object(
      const Program& program, const ProgramAnalysis& analysis,
      const Options& options);

  /// Load half: dlopen a compiled kernel (private copy) and wire the
  /// ABI. Recompiles once through the cache when the published object
  /// turns out stale or corrupt. `options` must be the ones the kernel
  /// was compiled with (the dispatch knobs — pool, gate, schedule — are
  /// consumed here; the emission knobs were consumed by compile_object).
  static StatusOr<std::unique_ptr<NativeEngine>> load_compiled(
      CompiledKernel compiled, const Options& options);

  ~NativeEngine();
  NativeEngine(const NativeEngine&) = delete;
  NativeEngine& operator=(const NativeEngine&) = delete;

  /// Bind the host storage every call copies in and out: one base
  /// pointer and element count per slot, in slots() order. The storage
  /// must stay where it is for as long as calls are made (a Machine's
  /// global instances never move), so binding happens once.
  Status bind_globals(std::vector<double*> grids, std::vector<long> extents);

  /// Whether the function at `index` (program.functions order, i.e. its
  /// FunctionId) has a native entry point; false means per-call fallback.
  [[nodiscard]] bool callable(std::size_t index) const {
    return index < entry_points_.size() && entry_points_[index] != nullptr;
  }

  /// Call the callable function at `index` on the bound globals.
  /// `scalars` are the entry call's literal arguments.
  StatusOr<double> call(std::size_t index, const std::vector<double>& scalars);

  [[nodiscard]] const std::vector<AbiSlot>& slots() const {
    return build_.unit.slots;
  }
  /// Parallel regions dispatched through the pfor trampoline so far
  /// (0 for serial units).
  [[nodiscard]] std::uint64_t parallel_regions() const {
    return pfor_host_ != nullptr
               ? pfor_host_->regions.load(std::memory_order_relaxed)
               : 0;
  }
  /// Region dispatches the profit gate kept on the calling thread so far
  /// (0 for serial units).
  [[nodiscard]] std::uint64_t gated_regions() const {
    return gated_fn_ != nullptr ? static_cast<std::uint64_t>(gated_fn_())
                                : 0;
  }
  /// The gate threshold actually installed into the kernel.
  [[nodiscard]] std::int64_t gate_min_units() const { return gate_units_; }
  /// The build record the engine was loaded from: unit (with its slots
  /// and dispatch regions), compiler, its identity, flags, host key,
  /// object path and whether the cache hit (updated when a stale object
  /// had to be rebuilt at load).
  [[nodiscard]] const CompiledKernel& build() const { return build_; }

 private:
  NativeEngine() = default;

  CompiledKernel build_;
  long num_threads_ = 1;   ///< Options::num_threads, passed to every call
  void* handle_ = nullptr;   ///< dlopen handle of the private copy
  /// Set when the unit was emitted parallel: the context installed via
  /// the kernel's glaf_set_pfor.
  std::unique_ptr<PforHost> pfor_host_;
  /// Resolved kernel-side gated-region counter (glaf_nat_gated) and the
  /// gate threshold installed at load time.
  long (*gated_fn_)() = nullptr;
  std::int64_t gate_units_ = 0;
  /// Resolved wrapper entry points, parallel to build_.unit.functions
  /// (nullptr for unsupported entries) — the in-memory handle table
  /// that makes repeat binds symbol-lookup-free.
  std::vector<void*> entry_points_;
  /// Host storage per slot (bind_globals).
  std::vector<double*> grids_;
  std::vector<long> extents_;
};

/// Resolve an Options::gate_min_units request against the execution
/// environment: explicit values (>= 0) pass through; auto (-1) is
/// always-serial when only one rank could run (pool_threads <= 1 or a
/// single-core host) and the calibrated ParallelGate break-even
/// threshold for `pool_threads` ranks otherwise. Pure — exposed for the
/// gating tests.
std::int64_t resolve_gate_units(std::int64_t requested, int pool_threads,
                                unsigned hardware_threads);

}  // namespace glaf::jit
