#pragma once
// Shared native-engine test helpers: the compiler probe every
// compile-dependent test skips on, the "kernel really loaded" assertion,
// the element comparators and the all-globals differential, and the
// list of directive policies the per-policy walls iterate.

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "interp/machine.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"

namespace glaf::testing {

/// Whether the system C compiler runs; tests that need it GTEST_SKIP
/// without one.
inline bool have_cc() { return cc_available("cc"); }

inline constexpr DirectivePolicy kAllPolicies[] = {
    DirectivePolicy::kV0, DirectivePolicy::kV1, DirectivePolicy::kV2,
    DirectivePolicy::kV3};

/// Assert the machine actually loaded its kernel (tests that exist to
/// prove native execution must not silently pass through the fallback).
inline void require_native(const Machine& m) {
  ASSERT_TRUE(m.native_report().available)
      << "native engine unavailable: " << m.native_report().fallback_reason;
}

/// Identical representation: the serial native kernel against the plan
/// engine, where even the sign of a zero must survive.
inline void expect_bit_equal(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": reference " << a << " vs " << b;
}

/// Value equality with NaN==NaN: parallel kernels combine reduction
/// scratch in rank order, and `x + 0.0` turns -0.0 into +0.0 — a
/// representation change with no value change, exactly what the fuzz
/// oracle's exact legs accept.
inline void expect_value_equal(double a, double b, const std::string& what) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_TRUE(a == b) << what << ": reference " << a << " vs " << b;
}

/// How compare_all_globals matches two elements.
enum class Equality {
  kBits,   ///< expect_bit_equal
  kValue,  ///< expect_value_equal
};

/// Compare every non-struct global of two machines running the same
/// program, element by element.
inline void compare_all_globals(Machine& reference, Machine& other,
                                const std::string& tag,
                                Equality equality = Equality::kValue) {
  for (const GridId id : reference.program().global_grids) {
    const Grid& g = reference.program().grid(id);
    if (g.is_struct()) continue;
    const std::vector<double> a = reference.array(g.name).value();
    const std::vector<double> b = other.array(g.name).value();
    ASSERT_EQ(a.size(), b.size()) << tag << ": " << g.name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::string what = cat(tag, ": ", g.name, "[", i, "]");
      if (equality == Equality::kBits) {
        expect_bit_equal(a[i], b[i], what);
      } else {
        expect_value_equal(a[i], b[i], what);
      }
    }
  }
}

}  // namespace glaf::testing
