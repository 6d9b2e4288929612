// Differential fuzzing of the execution semantics: randomly generated
// expression programs are run through the interpreter AND through the C
// back-end compiled with the system compiler; the two executions must
// agree. Any divergence pinpoints a semantics bug in one of the layers
// (expression typing, intrinsic lowering, operator precedence, ...).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "codegen/c.hpp"
#include "core/builder.hpp"
#include "interp/machine.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "testing/native.hpp"

namespace glaf {
namespace {

using testing::have_cc;

constexpr int kInputs = 8;
constexpr int kOutputs = 64;
constexpr int kMaxDepth = 4;

/// Random, numerically tame expression over the input scalars: guarded
/// divisions, bounded EXP, SQRT of absolute values.
E random_expr(SplitMix64& rng, const std::vector<GridHandle>& inputs,
              int depth) {
  if (depth >= kMaxDepth || rng.next_below(5) == 0) {
    // Leaf: input or literal.
    if (rng.next_below(2) == 0) {
      return E(inputs[rng.next_below(kInputs)]);
    }
    return lit(rng.uniform(-3.0, 3.0));
  }
  const auto sub = [&] { return random_expr(rng, inputs, depth + 1); };
  switch (rng.next_below(9)) {
    case 0: return sub() + sub();
    case 1: return sub() - sub();
    case 2: return sub() * sub();
    case 3: return sub() / (call("ABS", {sub()}) + 1.0);  // guarded
    case 4: return call("ABS", {sub()});
    case 5: return call("MIN", {sub(), sub()});
    case 6: return call("MAX", {sub(), sub()});
    case 7: return call("SIN", {sub()});
    case 8: return call("SQRT", {call("ABS", {sub()}) + 0.5});
  }
  return lit(1.0);
}

TEST(Differential, RandomExpressionsAgreeBetweenInterpreterAndC) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  SplitMix64 rng(20260707);

  ProgramBuilder pb("fuzz_mod");
  std::vector<GridHandle> inputs;
  std::vector<double> input_values;
  for (int i = 0; i < kInputs; ++i) {
    const double v = rng.uniform(-2.0, 2.0);
    input_values.push_back(v);
    inputs.push_back(pb.global(cat("in", i), DataType::kDouble, {},
                               {.init = {v}}));
  }
  auto out = pb.global("outv", DataType::kDouble, {kOutputs});
  auto fb = pb.function("fuzz");
  auto s = fb.step("s");
  for (int i = 0; i < kOutputs; ++i) {
    s.assign(out(liti(i)), random_expr(rng, inputs, 0));
  }
  const auto built = pb.build();
  ASSERT_TRUE(built.is_ok()) << built.status().message();
  const Program& p = built.value();

  // Interpreter execution.
  Machine m(p);
  ASSERT_TRUE(m.call("fuzz").is_ok());
  const std::vector<double> interp_out = m.array("outv").value();

  // Compiled execution of the generated C.
  std::string source = generate_c(p, analyze_program(p)).source;
  source += cat("\n#include <stdio.h>\n",
                "int main(void) {\n  fuzz();\n  for (int i = 0; i < ",
                kOutputs, "; ++i) printf(\"%.17g\\n\", outv[i]);\n",
                "  return 0;\n}\n");
  const std::string dir = ::testing::TempDir();
  const std::string c_path = dir + "/glaf_fuzz.c";
  const std::string bin = dir + "/glaf_fuzz";
  {
    std::ofstream f(c_path);
    f << source;
  }
  ASSERT_EQ(std::system(("cc -O1 -fopenmp -o " + bin + " " + c_path +
                         " -lm > /dev/null 2>&1")
                            .c_str()),
            0)
      << "generated C failed to compile";
  FILE* pipe = ::popen(bin.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::vector<double> compiled_out;
  char buf[128];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    compiled_out.push_back(std::strtod(buf, nullptr));
  }
  ::pclose(pipe);

  ASSERT_EQ(compiled_out.size(), static_cast<std::size_t>(kOutputs));
  for (int i = 0; i < kOutputs; ++i) {
    const double a = interp_out[static_cast<std::size_t>(i)];
    const double b = compiled_out[static_cast<std::size_t>(i)];
    const double tol = 1e-12 * std::max(1.0, std::max(std::fabs(a),
                                                      std::fabs(b)));
    EXPECT_NEAR(a, b, tol) << "output " << i;
  }
}

}  // namespace
}  // namespace glaf
