// Per-level sweep profiling (DESIGN.md §8): the paper's Figure 1 argues the
// sweep's character from how vertices and arcs distribute across CH levels —
// a handful of huge low levels scanned at memory bandwidth and a long tail
// of tiny high ones. SweepProfile captures exactly that for one batch:
// per-level vertex/arc counts, kernel nanoseconds, and modeled bytes (so a
// derived effective bandwidth), plus the upward CH search's settle/arc work.
// Collection is opt-in via PhastOptions::collect_profile.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace phast::obs {

/// One level group of a profiled sweep.
struct LevelProfile {
  uint32_t level = 0;     ///< CH level (the sweep visits levels descending)
  uint32_t vertices = 0;  ///< sweep positions in this level group
  uint64_t arcs = 0;      ///< incoming downward arcs scanned
  uint64_t nanos = 0;     ///< wall time of the level's kernel call
  uint64_t bytes = 0;     ///< modeled bytes touched (ModelSweepBytes)

  /// Effective bandwidth in GB/s; 0 when the level timed below resolution.
  [[nodiscard]] double BandwidthGBps() const {
    return nanos > 0 ? static_cast<double>(bytes) / static_cast<double>(nanos)
                     : 0.0;
  }
};

/// Phase-one (upward CH search) work counters for the batch.
struct UpwardStats {
  /// Vertices settled across all k sources. The name (and JSON key) dates
  /// from the heap-based search, where each settle was a queue pop.
  uint64_t queue_pops = 0;
  uint64_t arcs_relaxed = 0;  ///< upward arcs scanned from settled vertices
  uint64_t nanos = 0;         ///< wall time of the whole upward phase
};

/// Profile of one batch (k simultaneous trees). Levels appear in sweep
/// order, i.e. descending CH level.
struct SweepProfile {
  uint32_t k = 0;
  UpwardStats upward;
  std::vector<LevelProfile> levels;
  uint64_t sweep_nanos = 0;  ///< whole-sweep wall time (all levels)

  [[nodiscard]] uint64_t TotalArcs() const;
  [[nodiscard]] uint64_t TotalVertices() const;
  [[nodiscard]] uint64_t TotalBytes() const;

  /// Compact JSON object ({"k":..,"upward":{..},"levels":[..]}) used by the
  /// bench emitters and phast_trace --json.
  [[nodiscard]] std::string ToJson() const;
};

/// Models the bytes a level-ordered sweep touches for one level group:
/// label writes (vertices*k lanes), arc records and tail-label reads
/// (arcs * (record + k lanes)), the CSR offset column, and — under implicit
/// init — the visit-mark bitmap. A traffic model, not a measurement: it
/// counts each byte once and ignores caching, so the derived "effective
/// bandwidth" is comparable across levels and machines but is not DRAM
/// traffic (hardware counters cover that side).
[[nodiscard]] uint64_t ModelSweepBytes(uint64_t vertices, uint64_t arcs,
                                       uint32_t k, bool implicit_init);

}  // namespace phast::obs
