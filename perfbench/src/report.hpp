#pragma once
// The benchmark's output: provenance and every metric as
// "name = value unit" lines, a full JSON report file, and the one-line
// JSON result (last line of stdout) with the metrics the workload's
// mode tracks.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// A wrong value, a native fallback, or a failed set-up: the run stops
/// and exits non-zero, naming the workload, seed and call.
class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);
  void metric(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// Provenance and metric lines for a human reader.
  [[nodiscard]] std::string lines() const;
  /// Everything as one JSON object.
  [[nodiscard]] std::string json() const;
  /// The result line: correct/attempted/failed and every metric.
  [[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                        std::uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
