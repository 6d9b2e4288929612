#include "jit/emit.hpp"

#include <map>
#include <vector>

#include "analysis/access.hpp"
#include "codegen/c.hpp"
#include "codegen/optpass.hpp"
#include "support/strings.hpp"

namespace glaf::jit {
namespace {

/// The C spelling of a slot's storage inside the unit (mirrors the C
/// back-end's base_name): COMMON members live in the interop struct,
/// TYPE elements in their parent variable.
std::string storage_name(const Grid& g) {
  if (g.external == ExternalKind::kCommon) {
    return cat(g.common_block, "_.", g.name);
  }
  if (!g.type_parent.empty()) return cat(g.type_parent, ".", g.name);
  return g.name;
}

/// Storage type of one grid inside the unit: the interp tier stores
/// everything as double (the interpreter's model); the opt tier uses the
/// native width the typed C back-end would pick. Must agree with
/// CGen::ctype for the same numeric model.
std::string nat_type(DataType t, NumericModel model) {
  if (model != NumericModel::kOpt) return "double";
  switch (t) {
    case DataType::kInt: return "long";
    case DataType::kReal: return "float";
    case DataType::kDouble: return "double";
    case DataType::kLogical: return "int";
    case DataType::kVoid: break;
  }
  return "double";
}

/// Definitions the generated TU leaves to "the legacy objects": TYPE
/// parent variables (prepended — functions access parent.member), plus
/// storage for module externs and COMMON blocks (appended).
std::string prelude_text(const Program& p, const std::vector<AbiSlot>& slots,
                         NumericModel model) {
  // Group TYPE elements by parent variable, in global_grids order.
  std::vector<std::string> parents;
  std::map<std::string, std::vector<const Grid*>> members;
  for (const AbiSlot& slot : slots) {
    const Grid& g = p.grid(slot.grid);
    if (g.type_parent.empty()) continue;
    if (members[g.type_parent].empty()) parents.push_back(g.type_parent);
    members[g.type_parent].push_back(&g);
  }
  if (parents.empty()) return "";
  std::vector<std::string> out;
  out.push_back("/* TYPE parent variables (storage the legacy module"
                " would provide) */");
  for (const std::string& parent : parents) {
    out.push_back(cat("static struct {"));
    for (const Grid* g : members[parent]) {
      const std::string ty = nat_type(g->elem_type, model);
      std::int64_t elems = 1;
      for (const AbiSlot& slot : slots) {
        if (&p.grid(slot.grid) == g) elems = slot.elements;
      }
      out.push_back(g->dims.empty()
                        ? cat("  ", ty, " ", g->name, ";")
                        : cat("  ", ty, " ", g->name, "[", elems, "];"));
    }
    out.push_back(cat("} ", parent, ";"));
  }
  out.push_back("");
  return join(out, "\n") + "\n";
}

std::string wrapper_text(const Program& p, const EffectsMap& effects,
                         const std::vector<AbiSlot>& slots,
                         const std::vector<AbiFunction>& functions,
                         bool parallel,
                         const std::vector<ParallelRegion>& regions,
                         NumericModel model) {
  std::vector<std::string> out;
  out.push_back("");
  out.push_back("/* ---- native-engine ABI wrapper ---- */");
  out.push_back("#include <string.h>");
  out.push_back("");
  // Storage for module externs and COMMON blocks (harness role).
  std::map<std::string, bool> common_defined;
  for (const AbiSlot& slot : slots) {
    const Grid& g = p.grid(slot.grid);
    if (g.external == ExternalKind::kModule && g.type_parent.empty()) {
      const std::string ty = nat_type(g.elem_type, model);
      out.push_back(g.dims.empty()
                        ? cat(ty, " ", g.name, ";")
                        : cat(ty, " ", g.name, "[", slot.elements, "];"));
    } else if (g.external == ExternalKind::kCommon &&
               !common_defined[g.common_block]) {
      common_defined[g.common_block] = true;
      out.push_back(cat("struct ", g.common_block, "_common ",
                        g.common_block, "_;"));
    }
  }
  out.push_back("");
  // The flat argument block. Must match NativeEngine's host-side mirror
  // (src/jit/engine.cpp) field for field.
  out.push_back("typedef struct {");
  out.push_back("  double* const* grids;   /* base pointer per slot */");
  out.push_back("  const long* extents;    /* element count per slot */");
  out.push_back("  const double* scalars;  /* entry call scalar args */");
  out.push_back("  long num_threads;");
  out.push_back("  double result;");
  out.push_back("} glaf_nat_args;");
  out.push_back("");
  out.push_back(cat("long glaf_nat_abi_version(void) { return ", kAbiVersion,
                    "; }"));
  out.push_back(cat("long glaf_nat_num_slots(void) { return ", slots.size(),
                    "; }"));
  // Whether this unit was emitted with host-driven parallel ranges (the
  // engine installs its pool through glaf_set_pfor when so).
  out.push_back(cat("long glaf_nat_parallel(void) { return ",
                    parallel ? 1 : 0, "; }"));
  // Static region metadata: how many dispatch regions the unit carries
  // and how many of them fused two or more steps into one fork/join.
  std::size_t fused = 0;
  for (const ParallelRegion& r : regions) {
    if (r.step_count >= 2) ++fused;
  }
  out.push_back(cat("long glaf_nat_regions(void) { return ", regions.size(),
                    "; }"));
  out.push_back(cat("long glaf_nat_fused_regions(void) { return ", fused,
                    "; }"));
  // Numeric-model tier of this unit (0 = interp/bit-identical, 1 = opt/
  // typed): the engine refuses a cached object whose tier disagrees with
  // the one it was asked to run.
  out.push_back(cat("long glaf_nat_model(void) { return ",
                    model == NumericModel::kOpt ? 1 : 0, "; }"));
  out.push_back("");
  // Copy-in validates every slot's element count first (a nonzero return
  // is 1 + the offending slot index), then copies host state into the
  // unit's storage; copy-out is the mirror image. The host block is
  // always double*: the interp tier memcpys it straight through, the opt
  // tier converts element-wise into the slot's native width here — this
  // boundary is the only place the two storage models meet.
  //
  // Both tiers thread a per-entry slot mask through both copies: entry
  // wrappers only move the globals their function (transitively)
  // touches — copy-in for any access, copy-out for writes. Written grids
  // always appear in the copy-in mask too, so a partial write exports
  // the host's own values for untouched elements. Small entry points
  // over large programs would otherwise be dominated by boundary traffic
  // rather than kernel work.
  auto guard = [](std::size_t i, const std::string& line) {
    return cat("  if (glaf_nat_m[", i, "]) {", line.substr(1), " }");
  };
  out.push_back(cat("static long glaf_nat_copy_in(const glaf_nat_args* "
                    "glaf_nat_a, const unsigned char* restrict glaf_nat_m) {"));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    out.push_back(cat("  if (glaf_nat_a->extents[", i, "] != ", slots[i].elements,
                      ") return ", i + 1, ";"));
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Grid& g = p.grid(slots[i].grid);
    const std::string name = storage_name(g);
    const std::string ty = nat_type(g.elem_type, model);
    if (g.dims.empty()) {
      out.push_back(guard(i, cat("  ", name, " = (", ty,
                                 ")glaf_nat_a->grids[", i, "][0];")));
    } else if (ty == "double") {
      out.push_back(guard(i, cat("  memcpy(", name, ", glaf_nat_a->grids[", i,
                                 "], ", slots[i].elements,
                                 " * sizeof(double));")));
    } else {
      out.push_back(guard(i, cat("  { const double* restrict glaf_s = "
                                 "glaf_nat_a->grids[", i, "]; ", ty,
                                 "* restrict glaf_d = ", name, "; long glaf_k; "
                                 "for (glaf_k = 0; glaf_k < ",
                                 slots[i].elements,
                                 "; ++glaf_k) glaf_d[glaf_k] = (", ty,
                                 ")glaf_s[glaf_k]; }")));
    }
  }
  out.push_back("  return 0;");
  out.push_back("}");
  out.push_back("");
  out.push_back(cat("static void glaf_nat_copy_out(const glaf_nat_args* "
                    "glaf_nat_a, const unsigned char* restrict glaf_nat_m) {"));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Grid& g = p.grid(slots[i].grid);
    const std::string name = storage_name(g);
    const std::string ty = nat_type(g.elem_type, model);
    if (g.dims.empty()) {
      out.push_back(guard(i, cat("  glaf_nat_a->grids[", i, "][0] = (double)",
                                 name, ";")));
    } else if (ty == "double") {
      out.push_back(guard(i, cat("  memcpy(glaf_nat_a->grids[", i, "], ",
                                 name, ", ", slots[i].elements,
                                 " * sizeof(double));")));
    } else {
      out.push_back(guard(i, cat("  { const ", ty, "* restrict glaf_s = ",
                                 name,
                                 "; double* restrict glaf_d = "
                                 "glaf_nat_a->grids[", i,
                                 "]; long glaf_k; for (glaf_k = 0; glaf_k < ",
                                 slots[i].elements,
                                 "; ++glaf_k) glaf_d[glaf_k] = "
                                 "(double)glaf_s[glaf_k]; }")));
    }
  }
  out.push_back("}");
  for (const AbiFunction& fn : functions) {
    if (!fn.supported) continue;
    out.push_back("");
    // Transitive side-effect summary of this entry; a missing summary
    // degrades to copying everything, never to skipping a live slot.
    const Function* f = p.find_function(fn.name);
    const auto it = f != nullptr ? effects.find(f->id) : effects.end();
    std::vector<std::string> touch(slots.size(), "1");
    std::vector<std::string> write(slots.size(), "1");
    if (it != effects.end()) {
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const bool reads = it->second.global_reads.count(slots[i].grid) > 0;
        const bool writes = it->second.global_writes.count(slots[i].grid) > 0;
        touch[i] = reads || writes ? "1" : "0";
        write[i] = writes ? "1" : "0";
      }
    }
    out.push_back(cat("static const unsigned char glaf_nat_touch_", fn.symbol,
                      "[] = {", join(touch, ","), "};"));
    out.push_back(cat("static const unsigned char glaf_nat_write_", fn.symbol,
                      "[] = {", join(write, ","), "};"));
    out.push_back(cat("long ", fn.symbol, "(glaf_nat_args* glaf_nat_a) {"));
    out.push_back(cat("  long status = glaf_nat_copy_in(glaf_nat_a, "
                      "glaf_nat_touch_", fn.symbol, ");"));
    out.push_back("  if (status) return status;");
    std::vector<std::string> args;
    for (int i = 0; i < fn.num_scalar_params; ++i) {
      args.push_back(cat("glaf_nat_a->scalars[", i, "]"));
    }
    const std::string call = cat(fn.name, "(", join(args, ", "), ")");
    if (fn.returns_value) {
      out.push_back(cat("  glaf_nat_a->result = ", call, ";"));
    } else {
      out.push_back(cat("  ", call, ";"));
      out.push_back("  glaf_nat_a->result = 0.0;");
    }
    out.push_back(cat("  glaf_nat_copy_out(glaf_nat_a, glaf_nat_write_",
                      fn.symbol, ");"));
    out.push_back("  return 0;");
    out.push_back("}");
  }
  out.push_back("");
  return join(out, "\n");
}

}  // namespace

StatusOr<KernelUnit> emit_kernel_unit(const Program& program,
                                      const ProgramAnalysis& analysis,
                                      const EmitOptions& options) {
  KernelUnit unit;
  for (const GridId id : program.global_grids) {
    const Grid& g = program.grid(id);
    if (g.is_struct()) {
      return unimplemented(cat("native: struct global grid '", g.name,
                               "' has no flat-argument-block layout"));
    }
    AbiSlot slot;
    slot.grid = id;
    slot.name = g.name;
    for (const Dim& d : g.dims) {
      const auto v = fold_with_globals(program, *d.extent);
      if (!v) {
        return unimplemented(cat("native: global grid '", g.name,
                                 "' has a non-constant extent"));
      }
      slot.elements *= static_cast<std::int64_t>(value_as_double(*v));
    }
    unit.slots.push_back(std::move(slot));
  }

  for (const Function& fn : program.functions) {
    AbiFunction abi;
    abi.name = fn.name;
    abi.symbol = cat("glaf_nat_call_", fn.name);
    abi.num_scalar_params = static_cast<int>(fn.params.size());
    abi.returns_value = fn.return_type != DataType::kVoid;
    abi.supported = true;
    for (const GridId id : fn.params) {
      const Grid& g = program.grid(id);
      if (!g.dims.empty() || g.is_struct()) {
        // C passes scalar parameters by value; array/struct parameters
        // would need host instances bound by name — per-call fallback.
        abi.supported = false;
        abi.reason = cat("parameter '", g.name, "' is not a plain scalar");
        break;
      }
    }
    unit.functions.push_back(std::move(abi));
  }

  // The opt tier applies the S4 interchange pass before lowering; a
  // reordered program needs a fresh analysis (verdict collapse depths and
  // partition dimensions are positional).
  const Program* prog = &program;
  const ProgramAnalysis* anal = &analysis;
  Program transformed;
  ProgramAnalysis reanalysis;
  if (options.model == NumericModel::kOpt) {
    OptPassResult pass = apply_opt_loop_transforms(program);
    if (pass.interchanged_steps > 0) {
      transformed = std::move(pass.program);
      reanalysis = analyze_program(transformed);
      prog = &transformed;
      anal = &reanalysis;
    }
  }

  const bool parallel = options.emits_parallel();

  CodegenOptions copts;
  copts.language = Language::kC;
  copts.numeric_model = options.model;
  copts.emit_comments = false;
  // Parallel units are host-driven: bit-exact steps become range
  // functions dispatched through glaf_set_pfor. No OpenMP pragmas are
  // emitted — the schedule is the host pool's choice, not the kernel's.
  copts.enable_openmp = false;
  copts.host_parallel = parallel;
  copts.fuse_regions = options.fuse_regions;
  copts.policy = options.policy;
  copts.save_temporaries = options.save_temporaries;
  GeneratedCode code = generate_c(*prog, *anal, copts);
  unit.regions = code.regions;
  unit.source = cat(prelude_text(*prog, unit.slots, options.model),
                    code.source,
                    wrapper_text(*prog, anal->effects, unit.slots,
                                 unit.functions, parallel, unit.regions,
                                 options.model));
  return unit;
}

}  // namespace glaf::jit
