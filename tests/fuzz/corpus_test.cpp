// Regression corpus replay: every tests/fuzz/corpus/*.glaf file is a
// previously-diverging (now fixed) or structurally interesting case.
// Each file is registered as its own parameterized test case, must
// load, validate, and agree across all available backends — including
// the parallel native JIT legs under every directive policy, held to
// bitwise equality.

#include <gtest/gtest.h>

#include <cctype>

#include "core/validate.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/repro.hpp"
#include "testing/scoped.hpp"

namespace glaf::fuzz {
namespace {

std::vector<std::string> corpus_paths() {
  return list_corpus(GLAF_SOURCE_DIR "/tests/fuzz/corpus");
}

std::string corpus_case_name(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string stem = info.param;
  const std::size_t slash = stem.find_last_of('/');
  if (slash != std::string::npos) stem = stem.substr(slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos) stem = stem.substr(0, dot);
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return stem;
}

TEST(FuzzCorpus, CorpusIsNotEmpty) {
  EXPECT_GE(corpus_paths().size(), 6u);
}

class CorpusReplay : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusReplay, LoadsAndValidates) {
  auto loaded = load_repro(GetParam());
  ASSERT_TRUE(loaded.is_ok())
      << GetParam() << ": " << loaded.status().message();
  EXPECT_TRUE(find_entry(loaded.value()).is_ok()) << GetParam();
}

TEST_P(CorpusReplay, AgreesAcrossBackends) {
  const glaf::testing::ScopedTempDir work("corpus");
  OracleOptions opts;
  opts.work_dir = work.path();
  opts.run_compiled_c = cc_available(opts.cc);
  // Replay each repro through the parallel native legs too: every
  // directive policy, the fused-region kernels Machine builds held
  // bitwise to the serial reference.
  opts.run_native_parallel = opts.run_compiled_c;
  auto loaded = load_repro(GetParam());
  ASSERT_TRUE(loaded.is_ok()) << GetParam();
  auto entry = find_entry(loaded.value());
  ASSERT_TRUE(entry.is_ok()) << GetParam();
  const OracleReport report =
      run_oracle(loaded.value(), entry.value(), opts);
  EXPECT_TRUE(report.agreed()) << GetParam() << ": "
      << (report.errors.empty()
              ? (report.divergences.empty()
                     ? "?"
                     : report.divergences[0].backend + " diverged on " +
                           report.divergences[0].grid)
              : report.errors[0]);
  // Serial plan + 4 policies x parallel plan = 5 interpreter legs, plus
  // the native-JIT and compiled-C backends and 4 policies x
  // parallel-native when a system compiler is present (those gate on
  // the same cc probe): 5 + 2 + 4 = 11. The floor was 19 while the
  // oracle also ran 4 deterministic parallel-plan legs and 4 unfused
  // parallel-native legs; Machine no longer has the two switches those
  // legs exercised (deterministic_parallel, fuse_regions = false), so
  // 19 - 8 = 11. Before that it was 26/12, with 4 parallel tree-walk
  // legs and 3 policy-v4 legs.
  EXPECT_GE(report.backends_compared, opts.run_compiled_c ? 11 : 5);
  EXPECT_EQ(report.native_backend_ran, opts.run_compiled_c) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusReplay,
                         ::testing::ValuesIn(corpus_paths()),
                         corpus_case_name);

}  // namespace
}  // namespace glaf::fuzz
