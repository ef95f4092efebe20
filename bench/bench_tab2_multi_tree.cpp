// Table II: average running time per tree when computing multiple trees,
// varying k (sources per sweep), the number of cores, and SSE on/off.
//
// Paper shape (Europe, 4-core Core-i7): larger k lowers ms/tree; SIMD adds
// ~2.6x at k=16 on one core; multi-core scales almost perfectly without
// SIMD and sublinearly with it (memory bandwidth saturates). On a host with
// fewer than 4 cores the threads dimension collapses to one column.
//
// Every (k, threads) cell computes enough distinct trees that each thread
// runs kBatchesPerThread batches, whatever --sources says (--sources only
// raises that floor). --json-out adds each cell's upward/sweep split.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <utility>
#include <vector>

#include "common.h"
#include "phast/batch.h"
#include "phast/phast.h"
#include "util/omp_env.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace phast;
using namespace phast::bench;

namespace {

constexpr size_t kBatchesPerThread = 32;

/// One timed (k, threads, kernel) cell.
struct Cell {
  double us_per_tree = 0;
  uint64_t batches = 0;
  /// Mean per-batch phase times, from Workspace::LastUpwardNanos and
  /// LastSweepNanos (thread time, not wall time).
  double upward_us_per_batch = 0;
  double sweep_us_per_batch = 0;
};

/// `count` distinct vertices (at most n), in random order. Distinct sources
/// give every batch k trees, and exactly one of them lands in lane 0.
std::vector<VertexId> DistinctSources(VertexId n, size_t count,
                                      uint64_t seed) {
  std::vector<VertexId> ids(n);
  std::iota(ids.begin(), ids.end(), VertexId{0});
  Rng rng(seed);
  count = std::min<size_t>(count, n);
  for (size_t i = 0; i < count; ++i) {
    std::swap(ids[i], ids[i + rng.NextBounded(n - i)]);
  }
  ids.resize(count);
  return ids;
}

/// Computes one tree from each source, k per sweep over `threads` OpenMP
/// threads.
Cell TimeCell(const Phast& engine, const std::vector<VertexId>& sources,
              uint32_t k, int threads) {
  ScopedNumThreads scope(threads);
  BatchOptions options;
  options.trees_per_sweep = k;
  std::atomic<uint64_t> upward_ns{0};
  std::atomic<uint64_t> sweep_ns{0};
  Timer timer;
  const BatchStats stats = ComputeManyTrees(
      engine, sources, options,
      [&](size_t, const Phast::Workspace& ws, uint32_t slot) {
        if (slot != 0) return;  // once per batch
        upward_ns.fetch_add(ws.LastUpwardNanos(), std::memory_order_relaxed);
        sweep_ns.fetch_add(ws.LastSweepNanos(), std::memory_order_relaxed);
      });
  Cell cell;
  cell.us_per_tree =
      timer.ElapsedMs() * 1e3 / static_cast<double>(sources.size());
  cell.batches = stats.num_batches;
  const double batches =
      static_cast<double>(std::max<uint64_t>(1, cell.batches));
  cell.upward_us_per_batch =
      static_cast<double>(upward_ns.load()) * 1e-3 / batches;
  cell.sweep_us_per_batch =
      static_cast<double>(sweep_ns.load()) * 1e-3 / batches;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  const BenchConfig config = BenchConfig::FromCommandLine(cli);

  std::printf("=== Table II: multiple trees per sweep ===\n");
  const Instance instance = MakeCountryInstance(
      "country-time", config.width, config.height, Metric::kTravelTime,
      config.seed);
  const VertexId n = instance.graph.NumVertices();

  Phast::Options scalar_options;
  scalar_options.simd = SimdMode::kScalar;
  Phast::Options simd_options;
  simd_options.simd = SimdMode::kAuto;
  const Phast scalar_engine(instance.ch, scalar_options);
  const Phast simd_engine(instance.ch, simd_options);

  const int max_threads = MaxThreads();
  const std::vector<int> thread_counts =
      max_threads >= 4 ? std::vector<int>{1, 2, 4} : std::vector<int>{1};
  const std::vector<uint32_t> ks = {1, 4, 8, 16};

  BenchReport report("tab2_multi_tree");
  report.AddConfig("width", config.width);
  report.AddConfig("height", config.height);
  report.AddConfig("vertices", n);
  report.AddConfig("batches_per_thread", kBatchesPerThread);
  report.AddConfig("simd_kernel", simd_engine.KernelNameFor(16));

  std::printf("\ntime per tree [us]; parentheses = SIMD kernel (%s)\n",
              simd_engine.KernelNameFor(16));
  std::printf("%-14s", "sources/sweep");
  for (const int t : thread_counts) {
    std::printf("%8d core%s       ", t, t > 1 ? "s" : " ");
  }
  std::printf("\n");

  double base_us = 0;
  double best_us = 0;
  for (const uint32_t k : ks) {
    std::printf("%-14u", k);
    for (const int t : thread_counts) {
      const size_t trees = std::max<size_t>(
          config.num_sources, static_cast<size_t>(k) * t * kBatchesPerThread);
      const std::vector<VertexId> sources =
          DistinctSources(n, trees, config.seed + 3);
      const Cell scalar = TimeCell(scalar_engine, sources, k, t);
      const Cell simd = TimeCell(simd_engine, sources, k, t);
      std::printf("%8.1f (%7.1f) ", scalar.us_per_tree, simd.us_per_tree);
      const auto add_row = [&](const char* variant, const char* kernel,
                               const Cell& cell) {
        char label[48];
        std::snprintf(label, sizeof(label), "k%u_t%d_%s", k, t, variant);
        report.AddRow(label)
            .Add("k", k)
            .Add("threads", t)
            .Add("kernel", kernel)
            .Add("trees", sources.size())
            .Add("batches", cell.batches)
            .Add("us_per_tree", cell.us_per_tree)
            .Add("upward_us_per_batch", cell.upward_us_per_batch)
            .Add("sweep_us_per_batch", cell.sweep_us_per_batch);
      };
      add_row("scalar", "scalar", scalar);
      add_row("simd", simd_engine.KernelNameFor(k), simd);
      if (k == 1 && t == 1) base_us = scalar.us_per_tree;
      if (k == 16 && t == thread_counts.back()) best_us = simd.us_per_tree;
    }
    std::printf("\n");
  }

  std::printf(
      "\nk=16 + SIMD + %d core(s) vs k=1 scalar 1 core: %.1fx "
      "(paper: >9x on 4 cores)\n",
      thread_counts.back(), base_us / best_us);
  report.AddConfig("speedup_k16_simd_vs_k1_scalar", base_us / best_us);
  report.WriteJsonIfRequested(cli);
  return 0;
}
