#pragma once
// Multi-backend differential oracle — the paper's §4.1.1 validation
// methodology ("a code-wide side-by-side comparison of the results")
// mechanized: one program is executed by
//
//   1. the serial tree-walk interpreter (the reference),
//   2. the serial plan engine (compiled flat plans on the VM),
//   3. the parallel plan engine under each directive policy v0..v3,
//   4. the native JIT engine (src/jit) running the kernel in-process —
//      compared *bitwise* against the reference, since interp_math
//      emission promises bit-identical arithmetic,
//   5. (opt-in) the *parallel* native kernel under each policy, exactly
//      as Machine builds it (fused regions) — also compared bitwise:
//      threaded bit-exact steps must not change a single bit,
//   6. the generated C translation unit compiled with the system
//      compiler and run in a subprocess,
//   7. (opt-in) the opt-tier native kernel — typed storage, restrict,
//      -O3 with contraction — compared under a per-element ulp budget
//      instead of bitwise, the numeric contract that tier advertises,
//
// and every Global Scope grid is compared element-wise afterwards. Each
// backend is one row of a leg table (name, Machine options or compiled
// C, comparator) run by a single loop.
// Agreement is |a-b| <= atol + rtol*max(|a|,|b|), with NaN==NaN; exact
// backends match bitwise, while parallel reduction merges may
// reassociate within the tolerance.
//
// External (imported-module / COMMON) grids receive deterministic
// pseudo-random inputs derived from the *grid name*, so a corpus replay
// feeds identical inputs regardless of which seed produced the program.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "codegen/options.hpp"
#include "core/program.hpp"
#include "support/status.hpp"
#include "support/subprocess.hpp"  // cc_available, for backend gating

namespace glaf::fuzz {

/// $TMPDIR, else /tmp, as std::filesystem::temp_directory_path resolves
/// it; empty when that is not a directory.
std::string default_work_dir();

struct OracleOptions {
  double rtol = 1e-9;
  double atol = 1e-9;
  int num_threads = 4;
  bool run_parallel = true;   ///< parallel plan-engine backends
  bool run_compiled_c = true; ///< compile-and-execute C backend
  /// In-process native JIT leg (gated on cc availability, like the C
  /// backend, but with no subprocess round-trip). Compared bitwise.
  bool run_native = true;
  /// Parallel native legs ("parallel-vK-native"), one per policy: the
  /// fused-region kernel Machine builds, each held to bitwise equality
  /// against the serial reference (and so, transitively, against the
  /// serial native kernel and each other). Off by default: each policy
  /// costs an extra kernel compile.
  bool run_native_parallel = false;
  /// Opt-tier native leg ("native-opt"): the same program JIT-compiled
  /// under NumericModel::kOpt — typed storage, restrict pointers,
  /// -O3 -ffp-contract=fast -march=native. Unlike every other native
  /// leg this one is *not* bitwise: contraction and vectorization round
  /// differently, so the comparator forks to a per-element ulp budget
  /// (ulp_close with opt_max_ulp, plus an optional rtol/atol band).
  /// Off by default: an extra kernel compile per program.
  bool run_native_opt = false;
  std::uint64_t opt_max_ulp = 64;  ///< per-element budget for the opt leg
  double opt_rtol = 0.0;           ///< optional relative band on top
  double opt_atol = 0.0;           ///< optional absolute band on top
  /// Plan-engine legs: serial "plan" plus "parallel-vK-plan" per policy.
  bool run_plan = true;
  std::vector<DirectivePolicy> policies = {
      DirectivePolicy::kV0, DirectivePolicy::kV1, DirectivePolicy::kV2,
      DirectivePolicy::kV3};
  std::string cc = "cc";        ///< system compiler command
  /// Scratch directory for the C leg's source and binary, and for the
  /// default native kernel cache. Empty (no temp directory) makes
  /// run_oracle report an error instead of writing anywhere.
  std::string work_dir = default_work_dir();
  /// Kernel-cache directory for the native legs. Empty = a fuzz-private
  /// directory under work_dir, so one-off fuzz kernels never pollute the
  /// user's ~/.cache/glaf/kernels.
  std::string native_cache_dir;
  /// Test hook: rewrite the generated C source before compiling (used to
  /// inject semantic bugs and prove the oracle catches them).
  std::function<std::string(const std::string&)> c_source_transform;
};

/// One element-level disagreement against the serial reference.
struct Divergence {
  std::string backend;  ///< "plan", "parallel-v2-plan", ..., "native", "c"
  std::string grid;
  std::int64_t index = 0;  ///< flat element index
  double expected = 0.0;   ///< serial reference value
  double actual = 0.0;
};

struct OracleReport {
  std::vector<Divergence> divergences;  ///< capped per backend
  std::vector<std::string> errors;      ///< infrastructure failures
  bool c_backend_ran = false;
  bool native_backend_ran = false;
  bool opt_backend_ran = false;
  int backends_compared = 0;

  /// All executed backends matched the reference and nothing failed.
  [[nodiscard]] bool agreed() const {
    return divergences.empty() && errors.empty();
  }
};

/// Run every enabled backend and compare against the serial interpreter.
OracleReport run_oracle(const Program& program, const std::string& entry,
                        const OracleOptions& opts = {});

/// The entry point for a program: `fz_main` when present, otherwise the
/// first zero-parameter SUBROUTINE.
StatusOr<std::string> find_entry(const Program& program);

}  // namespace glaf::fuzz
