// glafbench — runs one benchmark workload and prints its metrics.
//
//   glafbench --workload sarb_deep_column|fun3d_jacobian|serve_mixed
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Standard output: "# key: value" provenance lines, one
// "name value unit" line per metric, then, as the last line, the JSON
// result {"correct", "attempted", "failed", "metrics"} with every metric
// of the run; run.py keeps the ones BENCHMARK.json lists for the mode
// (end-to-end untraced, per-layer traced). The full report goes to
// DIR/report.json and, when traced, the spans to DIR/trace.json (Chrome
// trace_event format). A wrong value or a native fallback prints the
// workload, seed and call to stderr and exits 1 without a result.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "layers.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "support/cli.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// The end-to-end names BENCHMARK.json tracks on every workload, and the
/// workload metric each one reads.
struct Alias {
  const char* name;
  const char* kernel;  ///< sarb_deep_column, fun3d_jacobian
  const char* serve;   ///< serve_mixed
};
constexpr Alias kEndToEnd[] = {
    {"setup_s", "setup_s", "setup_s"},
    {"peak_rss_mb", "peak_rss_mb", "peak_rss_mb"},
    {"op_p50_ms", "call_p50_ms", "capacity_req_p50_ms"},
    {"ops_per_s", "calls_per_s", "capacity_qps"},
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const glaf::CliArgs cli(argc, argv);
  RunArgs args;
  args.workload = cli.get("workload", "");
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  args.seconds = static_cast<double>(cli.get_int("seconds", 10));
  args.trace = cli.get_int("trace", 0) != 0;
  args.threads = std::min(nproc(), kMaxThreads);
  args.work_dir = cli.get("work-dir", "");
  if (args.work_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr, "glafbench: --work-dir and --seconds > 0 required\n");
    return 2;
  }
  const bool serve = args.workload == "serve_mixed";
  auto* run = args.workload == "sarb_deep_column" ? &run_sarb_deep_column
              : args.workload == "fun3d_jacobian" ? &run_fun3d_jacobian
              : serve                              ? &run_serve_mixed
                                                   : nullptr;
  if (run == nullptr) {
    std::fprintf(stderr, "glafbench: unknown --workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);

  Report report;
  report.note("workload", args.workload);
  report.note("seed", static_cast<double>(args.seed));
  report.note("seconds", args.seconds);
  report.note("traced", args.trace ? "yes" : "no");
  report.note("nproc", static_cast<double>(nproc()));
  report.note("threads", static_cast<double>(args.threads));
  report.note("effective_cores_start", probe_effective_cores());
  TraceSink sink(args.trace);
  Outcome outcome;
  std::string result;
  try {
    {
      const CpuPin pin(serve ? kServeCpus : args.threads);
      report.note("pinned_cpus", pin.cpus().empty() ? "(none)" : pin.cpus());
      outcome = run(args, report, sink);
    }
    if (args.trace) record_self_times(report, sink.all());
    report.note("effective_cores_end", probe_effective_cores());
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    for (const Alias& a : kEndToEnd) {
      if (const Metric* m = report.find(serve ? a.serve : a.kernel)) {
        report.metric(a.name, m->value, m->unit);
      }
    }
    result = report.result_line(true, outcome.attempted, outcome.failed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "glafbench: %s seed %llu: %s\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), e.what());
    return 1;
  }
  write_file(args.work_dir + "/report.json", report.json());
  if (args.trace) {
    write_file(args.work_dir + "/trace.json", chrome_trace_json(sink.all()));
  }
  std::printf("%s%s\n", report.lines().c_str(), result.c_str());
  return 0;
}
