// Micro-benchmarks (google-benchmark): sweep kernels across k and SIMD
// modes, priority queues under a Dijkstra-like load, and the upward CH
// search. These support the table drivers by isolating the primitives.
#include <benchmark/benchmark.h>

#include "ch/contraction.h"
#include "common.h"
#include "dijkstra/dijkstra.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "obs/trace.h"
#include "phast/phast.h"
#include "pq/dary_heap.h"
#include "pq/dial_buckets.h"
#include "pq/multilevel_buckets.h"
#include "pq/radix_heap.h"
#include "util/rng.h"

namespace phast {
namespace {

/// Shared mid-size instance (built once per binary run).
const bench::Instance& SharedInstance() {
  static const bench::Instance instance = bench::MakeCountryInstance(
      "kernels", 96, 96, Metric::kTravelTime, 1);
  return instance;
}

/// The sweep kernel alone (phase two), at k trees per sweep: one upward
/// phase outside the timed loop, then the same sweep repeated over its
/// labels. Every repetition does identical work, since marked rows reload
/// their final labels and unmarked rows restart from +infinity.
void BM_SweepKernel(benchmark::State& state, SimdMode mode) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  if (!SimdModeAvailable(mode)) {
    state.SkipWithError("SIMD mode unavailable");
    return;
  }
  Phast::Options options;
  options.simd = mode;
  const Phast engine(SharedInstance().ch, options);
  Phast::Workspace ws = engine.MakeWorkspace(k);
  const std::vector<VertexId> sources =
      bench::SampleSources(engine.NumVertices(), k, 3);
  engine.RunUpwardPhase(sources, ws);
  const SweepKernelFn kernel =
      SelectSweepKernel(mode, k, /*want_parents=*/false,
                        options.implicit_init);
  const SweepArgs args = engine.MakeSweepArgs(ws);
  for (auto _ : state) {
    kernel(args, 0, engine.NumVertices());
    benchmark::ClobberMemory();
  }
  engine.FinishExternalSweep(ws);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * k);
  state.SetLabel(engine.KernelNameFor(k));
}

// k = 1 and the service's batch widths (multiples of 4 up to 16); each ISA
// runs the widths its register divides.
BENCHMARK_CAPTURE(BM_SweepKernel, scalar, SimdMode::kScalar)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16);
BENCHMARK_CAPTURE(BM_SweepKernel, sse, SimdMode::kSse)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16);
BENCHMARK_CAPTURE(BM_SweepKernel, avx2, SimdMode::kAvx2)->Arg(8)->Arg(16);

template <typename Queue, typename... Args>
void BM_DijkstraQueue(benchmark::State& state, Args... args) {
  const Graph& g = SharedInstance().graph;
  Queue queue(g.NumVertices(), args...);
  std::vector<Weight> dist(g.NumVertices());
  Rng rng(7);
  for (auto _ : state) {
    const VertexId s =
        static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    DijkstraInto(g, s, queue, dist, {});
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          g.NumVertices());
}

void BM_DijkstraBinaryHeap(benchmark::State& state) {
  BM_DijkstraQueue<BinaryHeap>(state);
}
void BM_DijkstraFourHeap(benchmark::State& state) {
  BM_DijkstraQueue<FourHeap>(state);
}
void BM_DijkstraDial(benchmark::State& state) {
  BM_DijkstraQueue<DialBuckets>(state, MaxArcWeight(SharedInstance().graph));
}
void BM_DijkstraRadix(benchmark::State& state) {
  BM_DijkstraQueue<RadixHeap>(state);
}
void BM_DijkstraSmartQueue(benchmark::State& state) {
  BM_DijkstraQueue<MultiLevelBuckets>(state);
}
BENCHMARK(BM_DijkstraBinaryHeap);
BENCHMARK(BM_DijkstraFourHeap);
BENCHMARK(BM_DijkstraDial);
BENCHMARK(BM_DijkstraRadix);
BENCHMARK(BM_DijkstraSmartQueue);

/// Phase one alone: the upward search of one batch of k random sources
/// (k = 16 is the batch_trees width), under the ISA `mode` resolves to at
/// that k.
void BM_UpwardSearch(benchmark::State& state, SimdMode mode) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  Phast::Options options;
  options.simd = mode;
  const Phast engine(SharedInstance().ch, options);
  Phast::Workspace ws = engine.MakeWorkspace(k);
  Rng rng(9);
  std::vector<VertexId> sources(k);
  for (auto _ : state) {
    for (VertexId& s : sources) {
      s = static_cast<VertexId>(rng.NextBounded(engine.NumVertices()));
    }
    engine.RunUpwardPhase(sources, ws);
    engine.FinishExternalSweep(ws);
    benchmark::DoNotOptimize(ws.UpwardSearchSpace());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * k);
  state.SetLabel(engine.KernelNameFor(k));
}
BENCHMARK_CAPTURE(BM_UpwardSearch, scalar, SimdMode::kScalar)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16);
BENCHMARK_CAPTURE(BM_UpwardSearch, auto, SimdMode::kAuto)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16);

// The tracing zero-overhead pair (DESIGN.md §8): with PHAST_TRACING=OFF
// the PHAST_SPAN macro expands to nothing and BM_SpanOverhead must time
// identically to BM_SpanOverheadBaseline — the CI trace-smoke job builds
// that configuration and compares. With tracing compiled in but disabled
// at runtime (the default here), the delta is one relaxed atomic load.
void BM_SpanOverheadBaseline(benchmark::State& state) {
  uint64_t acc = 0;
  for (auto _ : state) {
    acc = acc * 3 + 1;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SpanOverheadBaseline);

void BM_SpanOverhead(benchmark::State& state) {
  uint64_t acc = 0;
  for (auto _ : state) {
    PHAST_SPAN("bench.span_overhead");
    acc = acc * 3 + 1;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SpanOverhead);

void BM_ChPreprocessing(benchmark::State& state) {
  const uint32_t side = static_cast<uint32_t>(state.range(0));
  CountryParams params;
  params.width = side;
  params.height = side;
  const GeneratedGraph raw = GenerateCountry(params);
  const Graph g = Graph::FromEdgeList(
      LargestStronglyConnectedComponent(raw.edges).edges);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildContractionHierarchy(g));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          g.NumVertices());
}
BENCHMARK(BM_ChPreprocessing)->Arg(24)->Arg(48)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace phast

BENCHMARK_MAIN();
