#include "inputs.hpp"

#include <cmath>
#include <limits>

#include "support/rng.hpp"

namespace perfbench {

std::vector<std::uint64_t> derive_seeds(std::uint64_t seed,
                                        const std::string& stream,
                                        std::size_t n) {
  std::uint64_t mixed = seed;
  for (const char c : stream) {
    mixed = (mixed ^ static_cast<std::uint8_t>(c)) * 0x100000001B3ULL;
  }
  glaf::SplitMix64 rng(mixed);
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t& s : out) s = rng.next_u64();
  return out;
}

std::vector<glaf::fuliou::AtmosphereProfile> sarb_profiles(
    std::uint64_t seed, int levels, std::size_t n) {
  std::vector<glaf::fuliou::AtmosphereProfile> out;
  out.reserve(n);
  for (const std::uint64_t s : derive_seeds(seed, "sarb.profile", n)) {
    out.push_back(glaf::fuliou::make_profile(s, levels));
  }
  return out;
}

glaf::fun3d::Mesh fun3d_mesh(std::uint64_t seed, std::int64_t cells) {
  return glaf::fun3d::make_mesh(cells, derive_seeds(seed, "fun3d.mesh", 1)[0]);
}

std::vector<std::vector<double>> fun3d_solutions(
    std::uint64_t seed, const glaf::fun3d::Mesh& mesh, std::size_t n) {
  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (const std::uint64_t s : derive_seeds(seed, "fun3d.q", n)) {
    glaf::SplitMix64 rng(s);
    std::vector<double> q = mesh.q;
    for (double& v : q) v *= rng.uniform(0.95, 1.05);
    out.push_back(std::move(q));
  }
  return out;
}

const std::vector<ServeEntry>& serve_entries() {
  static const std::vector<ServeEntry> entries = {
      {"fun3d", "find_offset", 2},
      {"sarb", "entropy_interface", 0},
      {"sarb", "lw_spectral_integration", 0},
      {"sarb", "sw_spectral_integration", 0},
      {"fun3d", "edge_scatter", 0},
      {"fun3d", "smooth_q", 0},
  };
  return entries;
}

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kRun: return "run";
    case OpKind::kBatch: return "run_batch";
    case OpKind::kStats: return "stats";
    case OpKind::kHealth: return "health";
  }
  return "?";
}

std::vector<std::pair<double, double>> find_offset_args(std::uint64_t seed,
                                                        std::size_t n) {
  glaf::SplitMix64 rng(derive_seeds(seed, "serve.find_offset", 1)[0]);
  std::vector<std::pair<double, double>> out(n);
  for (auto& [row, target] : out) {
    // The builtin's CSR arrays have 64 rows and 512 edges.
    row = static_cast<double>(rng.next_below(64));
    target = static_cast<double>(rng.next_below(64));
  }
  return out;
}

namespace {

/// Single-run entry shares: find_offset carries the checked values.
int draw_entry(glaf::SplitMix64& rng) {
  const double u = rng.next_double();
  if (u < 0.45) return 0;  // find_offset
  if (u < 0.65) return 1;  // entropy_interface
  if (u < 0.75) return 2;
  if (u < 0.85) return 3;
  if (u < 0.95) return 4;
  return 5;
}


}  // namespace

std::vector<ServeOp> serve_ops(std::uint64_t seed, std::size_t n) {
  glaf::SplitMix64 rng(derive_seeds(seed, "serve.ops", 1)[0]);
  const auto pairs = find_offset_args(seed, kFindOffsetPairs);
  std::vector<ServeOp> ops(n);
  for (std::size_t k = 0; k < n; ++k) {
    ServeOp& op = ops[k];
    if (k % kProbeEvery == kProbeEvery - 1) {
      op.kind = OpKind::kStats;
      continue;
    }
    if (k % kProbeEvery == kProbeEvery / 2 - 1) {
      op.kind = OpKind::kHealth;
      continue;
    }
    const bool batch = rng.next_double() < kBatchShare;
    op.kind = batch ? OpKind::kBatch : OpKind::kRun;
    op.entry = batch ? (rng.next_double() < 0.5 ? 0 : 1) : draw_entry(rng);
    op.count = batch ? kBatchCalls : 1;
    if (serve_entries()[static_cast<std::size_t>(op.entry)].num_args > 0) {
      for (std::uint32_t c = 0; c < op.count; ++c) {
        const std::size_t pair = rng.next_below(kFindOffsetPairs);
        op.pairs.push_back(static_cast<std::uint16_t>(pair));
        op.args.push_back(pairs[pair].first);
        op.args.push_back(pairs[pair].second);
      }
    }
  }
  return ops;
}

std::int64_t OpenLoop::due_ns(std::size_t slot) const {
  return static_cast<std::int64_t>(
      std::llround(static_cast<double>(slot) * 1e9 / rate_per_s));
}

std::size_t OpenLoop::slots_within(double seconds) const {
  return static_cast<std::size_t>(std::floor(seconds * rate_per_s));
}

double latency_from_due_ms(const OpTiming& t) {
  if (!t.ok) return std::numeric_limits<double>::infinity();
  return static_cast<double>(t.done_ns - t.due_ns) / 1e6;
}

double lateness_ms(const OpTiming& t) {
  return t.sent_ns > t.due_ns ? static_cast<double>(t.sent_ns - t.due_ns) / 1e6
                              : 0.0;
}

}  // namespace perfbench
