#include "fuliou/harness.hpp"

#include <utility>

namespace glaf::fuliou {

namespace {

Status set_field(Machine& m, const std::string& name,
                 const std::vector<double>& data) {
  return m.set_array(name, data);
}

}  // namespace

Status load_profile(Machine& machine, const AtmosphereProfile& profile) {
  if (Status s = set_field(machine, "pressure", profile.pressure); !s) return s;
  if (Status s = set_field(machine, "temperature", profile.temperature); !s) {
    return s;
  }
  if (Status s = set_field(machine, "humidity", profile.humidity); !s) return s;
  if (Status s = set_field(machine, "o3", profile.o3); !s) return s;
  if (Status s = set_field(machine, "cloud_frac", profile.cloud_frac); !s) {
    return s;
  }
  if (Status s = set_field(machine, "tau", profile.tau); !s) return s;
  if (Status s = machine.set_scalar("tsfc", profile.tsfc); !s) return s;
  if (Status s = machine.set_scalar("albedo", profile.albedo); !s) return s;
  return machine.set_scalar("cosz", profile.cosz);
}

SarbOutputs extract_outputs(const Machine& machine) {
  SarbOutputs out;
  const auto grab = [&](const std::string& name, std::vector<double>* dst) {
    auto v = machine.array(name);
    if (v.is_ok()) *dst = std::move(v).value();
  };
  grab("planck", &out.planck);
  grab("lw_flux", &out.lw_flux);
  grab("lw_entropy", &out.lw_entropy);
  grab("sw_flux", &out.sw_flux);
  grab("sw_entropy", &out.sw_entropy);
  grab("adjusted_flux", &out.adjusted_flux);
  grab("baseline", &out.baseline);
  grab("wc_flux", &out.wc_flux);
  const auto et = machine.scalar("entropy_total");
  out.entropy_total = et.is_ok() ? et.value() : 0.0;
  return out;
}

StatusOr<SarbOutputs> run_glaf_sarb(Machine& machine,
                                    const AtmosphereProfile& profile) {
  if (Status s = load_profile(machine, profile); !s) return s;
  const auto r = machine.call("entropy_interface");
  if (!r.is_ok()) return r.status();
  return extract_outputs(machine);
}

int count_statements(const Step& step) {
  int count = 0;
  visit_stmts(step.body, [&](const Stmt&) { ++count; });
  return count;
}

std::vector<LoopInfo> sarb_loop_inventory(const Program& program,
                                          const ProgramAnalysis& analysis) {
  std::vector<LoopInfo> out;
  for (const Function& fn : program.functions) {
    const auto it = analysis.verdicts.find(fn.id);
    if (it == analysis.verdicts.end()) continue;
    for (std::size_t s = 0; s < fn.steps.size(); ++s) {
      LoopInfo info;
      info.function = fn.name;
      info.step = fn.steps[s].name;
      info.verdict = it->second.at(s);
      info.stmt_count = count_statements(fn.steps[s]);
      out.push_back(std::move(info));
    }
  }
  return out;
}

}  // namespace glaf::fuliou
