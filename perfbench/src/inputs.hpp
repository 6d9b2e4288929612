#pragma once
// Seeded workload inputs. Everything a workload feeds the program is
// generated here from the --seed argument, so one seed always gives the
// same inputs and the program sees only the generated data.

#include <cstdint>
#include <string>
#include <vector>

#include "fuliou/profile.hpp"
#include "fun3d/mesh.hpp"

namespace perfbench {

/// `n` seeds derived from (seed, stream): independent streams per input
/// kind, so adding one kind of input never shifts another.
std::vector<std::uint64_t> derive_seeds(std::uint64_t seed,
                                        const std::string& stream,
                                        std::size_t n);

/// sarb_deep_column: `n` atmosphere profiles of `levels` levels.
std::vector<glaf::fuliou::AtmosphereProfile> sarb_profiles(
    std::uint64_t seed, int levels, std::size_t n);

/// fun3d_jacobian: the mesh, and `n` solution vectors for it. Each
/// vector perturbs the mesh's own solution by up to +-5% per entry.
glaf::fun3d::Mesh fun3d_mesh(std::uint64_t seed, std::int64_t cells);
std::vector<std::vector<double>> fun3d_solutions(
    std::uint64_t seed, const glaf::fun3d::Mesh& mesh, std::size_t n);

// ---- serve_mixed traffic ----------------------------------------------------

/// One entry point a served request can name.
struct ServeEntry {
  const char* builtin;  ///< "sarb" or "fun3d"
  const char* entry;
  int num_args;         ///< scalar arguments (find_offset: row, target)
};
/// The served entries, indexed by ServeOp::entry.
const std::vector<ServeEntry>& serve_entries();

enum class OpKind : std::uint8_t { kRun, kBatch, kStats, kHealth };
[[nodiscard]] const char* to_string(OpKind kind);

/// One scheduled operation of the open loop.
struct ServeOp {
  OpKind kind = OpKind::kRun;
  int entry = 0;              ///< index into serve_entries()
  std::uint32_t count = 1;    ///< calls in the frame (kBatch)
  /// count x num_args scalar arguments.
  std::vector<double> args;
  /// find_offset: per call, the index of its (row, target) pair in
  /// find_offset_args(seed, kFindOffsetPairs) — the golden table's key.
  std::vector<std::uint16_t> pairs;
};

/// Mix of the open loop, by slot: every kProbeEvery-th slot is a stats
/// probe and the slot half-way between two of them a health probe; of
/// the rest, kBatchShare are run_batch frames of kBatchCalls calls, and
/// the others single runs.
inline constexpr std::size_t kProbeEvery = 500;
inline constexpr double kBatchShare = 0.08;
inline constexpr std::uint32_t kBatchCalls = 16;

/// Seeded (row, target) pairs for find_offset; the traffic draws from
/// the first kFindOffsetPairs.
inline constexpr std::size_t kFindOffsetPairs = 256;
std::vector<std::pair<double, double>> find_offset_args(std::uint64_t seed,
                                                        std::size_t n);

/// The first `n` operations of the traffic for `seed`.
std::vector<ServeOp> serve_ops(std::uint64_t seed, std::size_t n);

// ---- open-loop accounting ---------------------------------------------------

/// A fixed offered rate spread round-robin over `connections`: slot k is
/// due k / rate seconds after the phase starts and goes out on
/// connection k % connections.
struct OpenLoop {
  double rate_per_s = 1.0;
  int connections = 1;

  [[nodiscard]] std::int64_t due_ns(std::size_t slot) const;
  /// Slots that fall due within `seconds`.
  [[nodiscard]] std::size_t slots_within(double seconds) const;
};

/// One operation's timestamps (ns since the phase start).
struct OpTiming {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  bool ok = true;
};

/// Latency from when the operation was due to its reply; a failed or
/// refused operation is infinitely late (it misses any limit).
double latency_from_due_ms(const OpTiming& t);
/// How late the generator sent it (0 when on time or early).
double lateness_ms(const OpTiming& t);

}  // namespace perfbench
