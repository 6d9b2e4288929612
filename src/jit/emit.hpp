#pragma once
// Native-engine kernel emission: lower a whole GLAF program to one
// self-contained C translation unit built around the C back-end's
// numeric models (CodegenOptions::NumericModel — the bit-identical
// kInterp tier or the typed, ulp-bounded kOpt tier), plus an
// extern-"C" ABI wrapper per function. The wrapper takes a flat argument
// block — grid base pointers in global_grids order, their element
// counts, and the entry call's scalar arguments — copies the host's
// global state into the unit's own storage, runs the function, and
// copies it back out. Keeping storage inside the unit lets one emission
// strategy cover every global kind (owned statics, module externs,
// COMMON members, TYPE elements) with the copy as the only ABI surface.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/parallelize.hpp"
#include "codegen/options.hpp"
#include "core/program.hpp"
#include "support/status.hpp"

namespace glaf::jit {

/// The ABI version baked into emitted units and checked after dlopen;
/// bump on any layout or naming change so stale cached objects miss.
/// v2: host-driven parallel ranges (glaf_set_pfor / glaf_nat_parallel).
/// v3: fused region entry points (glaf_rg_*), the profit gate
///     (glaf_set_pfor grew a gate argument; glaf_nat_gated counter) and
///     region metadata (glaf_nat_regions / glaf_nat_fused_regions).
/// v4: numeric-model tiers — opt units store grids in native widths and
///     convert element-wise at the copy-in/copy-out boundary (the host
///     block stays double*); glaf_nat_model() reports the tier.
inline constexpr long kAbiVersion = 4;

/// One comparable/copyable global: position in the flat argument block
/// is its position in program.global_grids.
struct AbiSlot {
  GridId grid = 0;
  std::string name;
  std::int64_t elements = 1;  ///< folded element count (1 for scalars)
};

/// Call surface of one GLAF function inside the unit.
struct AbiFunction {
  std::string name;        ///< GLAF function name
  std::string symbol;      ///< wrapper symbol ("glaf_nat_call_<name>")
  bool supported = false;  ///< callable through the flat-args wrapper
  std::string reason;      ///< why not, when !supported
  int num_scalar_params = 0;
  bool returns_value = false;
};

/// A lowered program: complete C source plus its ABI description.
struct KernelUnit {
  std::string source;
  std::vector<AbiSlot> slots;          ///< global_grids order
  std::vector<AbiFunction> functions;  ///< program.functions order
  /// Host-parallel dispatch regions the unit was emitted with (empty
  /// for serial units).
  std::vector<ParallelRegion> regions;
};

/// Options controlling the lowered unit (mirrors InterpOptions). The
/// native engine's options inherit these, so every emission knob is
/// declared once.
struct EmitOptions {
  /// Emit host-driven parallel range functions for bit-exact steps (the
  /// engine installs its thread pool through the exported glaf_set_pfor).
  /// A request only: emits_parallel() is the resolved mode.
  bool parallel = false;
  DirectivePolicy policy = DirectivePolicy::kV0;
  bool save_temporaries = false;
  /// Fuse adjacent fusable ranged steps into single region entry points
  /// (codegen fuse_regions); changes the emitted source, so the engine
  /// also folds it into the cache key. Machine always builds fused
  /// kernels and never sets this; it stays settable for the emitter's
  /// region-plan tests and for perfbench's compile-path layer, which
  /// copies it field by field.
  bool fuse_regions = true;
  /// Host-side dispatch knobs. They never reach the emitted source: the
  /// engine applies them when it loads the kernel, so they are not part
  /// of the cache key either (static and dynamic runs share one object).
  bool dynamic_schedule = false;
  std::int64_t schedule_chunk = 4;
  /// Numeric model of the lowered unit. kInterp is the bit-identical
  /// tier; kOpt stores grids in native widths, restrict-qualifies
  /// pointers, and applies the S4 interchange pass — its results are
  /// compared under ulp budgets.
  NumericModel model = NumericModel::kInterp;

  /// Whether the unit carries the host-parallel range ABI. It is an
  /// interp-tier feature (its bit-exact partitioning argument is
  /// meaningless under reordered typed math), so opt units are always
  /// serial. The emitter, the cache key and the load-time ABI check
  /// all read this one answer.
  [[nodiscard]] bool emits_parallel() const {
    return parallel && model != NumericModel::kOpt;
  }
};

/// Lower `program` to a native kernel unit. Fails (whole-engine
/// fallback) when a global grid is a struct or has a non-foldable
/// extent — the flat argument block cannot describe those.
StatusOr<KernelUnit> emit_kernel_unit(const Program& program,
                                      const ProgramAnalysis& analysis,
                                      const EmitOptions& options = {});

}  // namespace glaf::jit
