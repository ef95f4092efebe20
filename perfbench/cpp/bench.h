#pragma once

// The four workloads and the per-layer probes of the traced run.

#include <cstdint>
#include <string>

#include "util.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes and short phases: every workload end to end in seconds.
  bool smoke = false;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;  // end-to-end metrics, or per-layer ones when traced
  /// Host and instance block plus run facts (sample counts, answer digest).
  std::string info;
};

[[nodiscard]] bool IsWorkload(const std::string& name);
[[nodiscard]] RunReport RunWorkload(const RunConfig& config);

/// The synthetic road network a workload runs on. The network is fixed per
/// workload; --seed varies the traffic drawn over it.
struct InstanceSpec {
  uint32_t width = 128;
  uint32_t height = 128;
  uint64_t graph_seed = 1;
  bool customizable = false;
};

/// What the traced run measured at the serving layers; zero on a workload
/// whose requests never reach them (batch_trees is in-process).
struct ServeLayerStats {
  double service_latency_p50_ms = 0.0;
  double service_latency_p99_ms = 0.0;
  double batch_width = 0.0;
  double cache_hit_frac = 0.0;
  double rphast_batch_frac = 0.0;
  double shed_frac = 0.0;
  double upward_ms_p50 = 0.0;
  double sweep_ms_p50 = 0.0;
  double transport_p50_ms = 0.0;
  double transport_p99_ms = 0.0;
  double hop_p50_ms = 0.0;
  double fanout_parts = 0.0;
  double retries = 0.0;
  double swap_customize_ms = 0.0;
  double swap_cache_flushes = 0.0;
  double lag_p99_ms = 0.0;
};

/// Times calls into each layer's public functions on the workload's
/// instance, in process, and appends the per-layer metrics (probes first,
/// then `serve`, then trace_overhead_frac).
void RunLayerProbes(const InstanceSpec& spec, uint64_t seed, bool smoke,
                    const ServeLayerStats& serve, double trace_overhead_frac,
                    MetricSet& out);

}  // namespace perfbench
