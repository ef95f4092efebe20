// phast_perfbench — the PHAST benchmark's measuring program.
//
//   phast_perfbench --workload=tree_serve --seed=1 --seconds=10 --trace=0
//                   [--smoke]
//
// Runs in (and writes only to) its working directory. Prints one JSON info
// line (host and instance block, sample counts, answer digest), then the
// result line {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace=0, per-layer metrics with --trace=1 (which also
// writes the span trace to trace.json). Exit 1 on a wrong or stale answer
// or any error, 2 on a usage error.

#include <cstdio>
#include <exception>
#include <string>

#include "bench.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  const phast::CommandLine cli(argc, argv);
  perfbench::RunConfig cfg;
  cfg.workload = cli.GetString("workload", "");
  cfg.seed = static_cast<uint64_t>(cli.GetInt("seed", 1));
  cfg.seconds = cli.GetDouble("seconds", 10.0);
  cfg.trace = cli.GetInt("trace", 0) != 0;
  cfg.smoke = cli.GetBool("smoke", false);
  if (!perfbench::IsWorkload(cfg.workload) || cfg.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: %s --workload=tree_serve|table_serve|batch_trees|"
                 "reweight_serve --seed=N --seconds=S --trace=0|1 [--smoke]\n",
                 cli.ProgramName().c_str());
    return 2;
  }
  try {
    const perfbench::RunReport report = perfbench::RunWorkload(cfg);
    if (cfg.trace) perfbench::Tracer::Get().WriteChromeTrace("trace.json");
    std::printf("%s\n", report.info.c_str());
    std::string line = "{\"correct\": ";
    line += report.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(report.attempted);
    line += ", \"failed\": " + std::to_string(report.failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value_unit] : report.metrics.Items()) {
      line += (first ? "" : ", ") + perfbench::JsonString(name) +
              ": {\"value\": " + perfbench::JsonNumber(value_unit.first) +
              ", \"unit\": " + perfbench::JsonString(value_unit.second) + "}";
      first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return report.correct && report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phast_perfbench: %s\n", e.what());
    return 1;
  }
}
