// Per-layer probes of the traced run: each times calls into one layer's
// public functions, in process, on the workload's own network, inside a
// span. Bytes moved by the sweep are computed from array sizes, not
// measured (the host block gives the cache sizes to compare them with).

#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/poi.h"
#include "bench.h"
#include "ch/customize.h"
#include "dijkstra/dijkstra.h"
#include "fabric/mapping.h"
#include "graph/generators.h"
#include "phast/batch.h"
#include "phast/matrix.h"
#include "phast/phast.h"
#include "phast/prepare.h"
#include "phast/rphast.h"
#include "pq/dary_heap.h"
#include "server/protocol.h"
#include "server/snapshot.h"
#include "util/omp_env.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using phast::Rng;
using phast::VertexId;
using phast::Weight;

/// Runs `fn` inside a span named `name`; returns the span's length in ms.
double TimedMs(const char* name, const std::function<void()>& fn) {
  const int64_t t0 = NowNs();
  fn();
  const int64_t t1 = NowNs();
  Tracer::Get().Record(name, t0, t1);
  return static_cast<double>(t1 - t0) * 1e-6;
}

std::vector<VertexId> RandomVertices(Rng& rng, uint32_t n, size_t count) {
  std::vector<VertexId> out(count);
  for (VertexId& v : out) v = static_cast<VertexId>(rng.NextBounded(n));
  return out;
}

/// Trees per second of ComputeManyTrees at k = 16 with `threads` threads.
double TreesPerSecond(const phast::Phast& engine,
                      std::span<const VertexId> sources, int threads) {
  const phast::ScopedNumThreads scoped(threads);
  phast::BatchOptions options;
  options.trees_per_sweep = 16;
  const double ms = TimedMs("phast.many_trees", [&] {
    phast::ComputeManyTrees(engine, sources, options,
                            [](size_t, const phast::Phast::Workspace&,
                               uint32_t) {});
  });
  return static_cast<double>(sources.size()) / (ms * 1e-3);
}

}  // namespace

void RunLayerProbes(const InstanceSpec& spec, uint64_t seed, bool smoke,
                    const ServeLayerStats& serve, double trace_overhead_frac,
                    MetricSet& out) {
  const int reps = smoke ? 3 : 15;
  Rng rng(seed ^ 0x9B0BE5ULL);

  // graph / ch: what phast_prepare does, call by call.
  phast::EdgeList edges;
  const double generate_ms = TimedMs("graph.generate", [&] {
    phast::CountryParams params;
    params.width = spec.width;
    params.height = spec.height;
    params.seed = spec.graph_seed;
    edges = phast::GenerateCountry(params).edges;
  });
  phast::PrepareOptions prepare_options;
  prepare_options.ch_params.witness_pruning = !spec.customizable;
  std::unique_ptr<phast::PreparedNetwork> prepared;
  const double contract_ms = TimedMs("ch.contract", [&] {
    prepared = std::make_unique<phast::PreparedNetwork>(
        phast::PrepareNetwork(edges, prepare_options));
  });
  double customize_ms = 0.0;
  if (spec.customizable) {
    // Only a witness-free hierarchy is triangle-closed, so only
    // reweight_serve's network can be customized.
    phast::CHData copy = prepared->ch;
    customize_ms = TimedMs("ch.customize", [&] {
      phast::CustomizeWeights(copy, prepared->graph);
    });
  }
  out.Add("graph.generate_s", generate_ms * 1e-3, "s");
  out.Add("ch.contract_s", contract_ms * 1e-3, "s");
  out.Add("ch.shortcuts", static_cast<double>(prepared->ch.num_shortcuts),
          "count");
  out.Add("ch.levels", prepared->ch.NumLevels(), "count");
  out.Add("ch.customize_s", customize_ms * 1e-3, "s");

  const phast::Phast engine(prepared->ch);
  const uint32_t n = engine.NumVertices();

  // snapshot / mapping: the artifact a replica starts from.
  const std::string path = "probe.snap";
  const double write_ms = TimedMs("snapshot.write", [&] {
    const auto snapshot = phast::server::MakeSnapshot(
        engine, &prepared->graph, spec.customizable ? &prepared->ch : nullptr);
    phast::server::WriteSnapshotFile(snapshot, path,
                                     phast::server::SnapshotFormat::kPhsnap02);
  });
  std::vector<double> map_ms;
  for (int r = 0; r < reps; ++r) {
    map_ms.push_back(TimedMs("fabric.map", [&] {
      const phast::fabric::MappedSnapshot mapped(
          path, phast::fabric::VerifyMode::kSections);
      const phast::Phast view(mapped.LayoutView(), mapped.Validation());
    }));
  }
  out.Add("snapshot.write_s", write_ms * 1e-3, "s");
  out.Add("snapshot.bytes",
          static_cast<double>(std::filesystem::file_size(path)), "bytes");
  out.Add("fabric.map_ms", Median(map_ms), "ms");

  // phast: the engine's two phases at k = 1, 8 and 16 (its own phase clocks).
  double sweep_us_k16 = 0.0;
  for (const uint32_t k : {1u, 8u, 16u}) {
    auto ws = engine.MakeWorkspace(k);
    std::vector<double> upward_us, sweep_us, visited;
    for (int r = 0; r < reps * 2; ++r) {
      const auto sources = RandomVertices(rng, n, k);
      TimedMs("phast.compute_trees", [&] { engine.ComputeTrees(sources, ws); });
      upward_us.push_back(static_cast<double>(ws.LastUpwardNanos()) * 1e-3);
      sweep_us.push_back(static_cast<double>(ws.LastSweepNanos()) * 1e-3);
      visited.push_back(static_cast<double>(ws.UpwardSearchSpace()));
    }
    const std::string suffix = ".k" + std::to_string(k);
    out.Add("phast.upward_us" + suffix, Median(upward_us), "us");
    out.Add("phast.sweep_us" + suffix, Median(sweep_us), "us");
    out.Add("phast.upward_visited" + suffix, Median(visited), "count");
    if (k == 16) sweep_us_k16 = Median(sweep_us);
  }
  {
    // Computed, not measured: per downward arc the arc and its tail's k
    // labels, per vertex its CSR offset and k label writes.
    const phast::PhastLayout layout = engine.ExportLayout();
    const double k = 16.0;
    const double bytes =
        static_cast<double>(layout.down_arcs.size()) *
            (sizeof(phast::DownArc) + k * sizeof(Weight)) +
        static_cast<double>(layout.down_first.size() + layout.order.size()) *
            sizeof(phast::ArcId) +
        static_cast<double>(n) * k * sizeof(Weight);
    out.Add("phast.sweep_gbps_computed",
            sweep_us_k16 > 0.0 ? bytes / (sweep_us_k16 * 1e3) : 0.0, "GB/s");
  }
  const auto batch_sources = RandomVertices(rng, n, smoke ? 64 : 1024);
  const int threads = phast::MaxThreads();
  (void)TreesPerSecond(engine, batch_sources, threads);  // warm
  const double tps1 = TreesPerSecond(engine, batch_sources, 1);
  const double tpsn = TreesPerSecond(engine, batch_sources, threads);
  out.Add("phast.trees_per_s_1thread", tps1, "1/s");
  out.Add("phast.scaling_eff", tpsn / (tps1 * threads), "ratio");
  std::vector<double> dijkstra_ms;
  for (int r = 0; r < reps; ++r) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(n));
    dijkstra_ms.push_back(TimedMs("dijkstra.tree", [&] {
      (void)phast::Dijkstra<phast::BinaryHeap>(prepared->graph, s);
    }));
  }
  const double dijkstra_tree_ms = Median(dijkstra_ms);
  out.Add("dijkstra.tree_ms", dijkstra_tree_ms, "ms");
  // The paper's headline ratio, against one core of k = 16 sweeps.
  out.Add("phast.speedup_vs_dijkstra", dijkstra_tree_ms / (1e3 / tps1),
          "ratio");

  // matrix / rphast / apps: the batch workloads' engines.
  std::vector<double> row_ms, restrict_ms, restricted_frac;
  for (int r = 0; r < reps; ++r) {
    const auto rows = RandomVertices(rng, n, 8);
    const auto cols = RandomVertices(rng, n, 8);
    row_ms.push_back(TimedMs("matrix.table", [&] {
                       (void)phast::ComputeDistanceTable(engine, rows, cols);
                     }) /
                     8.0);
    std::unique_ptr<phast::RPhast> restricted;
    restrict_ms.push_back(TimedMs("rphast.restrict", [&] {
      restricted = std::make_unique<phast::RPhast>(engine, cols);
    }));
    restricted_frac.push_back(
        static_cast<double>(restricted->RestrictedVertices()) / n);
  }
  out.Add("matrix.row_ms", Median(row_ms), "ms");
  out.Add("rphast.restrict_ms", Median(restrict_ms), "ms");
  out.Add("rphast.restricted_frac", Median(restricted_frac), "ratio");
  {
    // The sidecar phast_prepare --poi writes: 4 categories of 32.
    const auto poi = phast::PoiIndex::GenerateRandom(n, 4, 32, spec.graph_seed);
    std::vector<phast::KnnSweeper> sweepers;
    double sweep_frac = 0.0;
    for (uint32_t c = 0; c < poi.NumCategories(); ++c) {
      sweepers.emplace_back(engine, poi, c);
      sweep_frac += static_cast<double>(sweepers.back().SweepLength()) / n;
    }
    auto ws = engine.MakeWorkspace(1);
    std::vector<double> query_ms;
    for (int r = 0; r < reps * 2; ++r) {
      const VertexId s = static_cast<VertexId>(rng.NextBounded(n));
      query_ms.push_back(TimedMs("knn.query", [&] {
        (void)sweepers[static_cast<size_t>(r) % sweepers.size()].Query(s, 8, ws);
      }));
    }
    out.Add("knn.query_ms", Median(query_ms), "ms");
    out.Add("knn.sweep_frac", sweep_frac / poi.NumCategories(), "ratio");
  }

  // protocol: one response frame of each kind, encoded and decoded.
  {
    using phast::server::MessageType;
    auto ws = engine.MakeWorkspace(1);
    engine.ComputeTree(static_cast<VertexId>(rng.NextBounded(n)), ws);
    phast::server::Response tree;
    tree.distances.resize(n);
    for (VertexId v = 0; v < n; ++v) tree.distances[v] = engine.Distance(ws, v);
    phast::server::Response table;
    table.rows = 8;
    table.cols = 8;
    table.distances.assign(64, 12345);
    phast::server::Response knn;
    knn.distances.assign(8, 12345);
    knn.poi_vertices.assign(8, 7);
    const std::pair<const char*, std::pair<MessageType,
                                           const phast::server::Response*>>
        kinds[] = {{"tree", {MessageType::kQuery, &tree}},
                   {"matrix", {MessageType::kMatrix, &table}},
                   {"knn", {MessageType::kNearestPoi, &knn}}};
    for (const auto& [name, kind] : kinds) {
      std::vector<double> encode_us, decode_us;
      std::vector<uint8_t> payload;
      for (int r = 0; r < reps * 10; ++r) {
        encode_us.push_back(1e3 * TimedMs("protocol.encode", [&] {
          payload = phast::server::EncodeResponseFor(kind.first, 1, *kind.second);
        }));
        decode_us.push_back(1e3 * TimedMs("protocol.decode", [&] {
          (void)phast::server::DecodeAnyResponse(payload);
        }));
      }
      const std::string suffix = std::string(".") + name;
      out.Add("protocol.encode_us" + suffix, Median(encode_us), "us");
      out.Add("protocol.decode_us" + suffix, Median(decode_us), "us");
      // Payload plus the u32 length prefix of the frame.
      out.Add("protocol.response_bytes" + suffix,
              static_cast<double>(payload.size() + sizeof(uint32_t)), "bytes");
    }
  }

  // server / fabric / router / snapshot_manager / client: from the run.
  out.Add("service.latency_p50_ms", serve.service_latency_p50_ms, "ms");
  out.Add("service.latency_p99_ms", serve.service_latency_p99_ms, "ms");
  out.Add("service.batch_width", serve.batch_width, "count");
  out.Add("service.cache_hit_frac", serve.cache_hit_frac, "ratio");
  out.Add("service.rphast_batch_frac", serve.rphast_batch_frac, "ratio");
  out.Add("service.shed_frac", serve.shed_frac, "ratio");
  out.Add("service.upward_ms_p50", serve.upward_ms_p50, "ms");
  out.Add("service.sweep_ms_p50", serve.sweep_ms_p50, "ms");
  out.Add("fabric.transport_p50_ms", serve.transport_p50_ms, "ms");
  out.Add("fabric.transport_p99_ms", serve.transport_p99_ms, "ms");
  out.Add("router.hop_p50_ms", serve.hop_p50_ms, "ms");
  // Only kMatrix requests fan out (table_serve, not a listed workload).
  if (serve.fanout_parts > 0.0) {
    out.Add("router.fanout_parts", serve.fanout_parts, "count");
  }
  out.Add("router.retries", serve.retries, "count");
  out.Add("swap.customize_ms", serve.swap_customize_ms, "ms");
  out.Add("swap.cache_flushes", serve.swap_cache_flushes, "count");
  out.Add("client.lag_p99_ms", serve.lag_p99_ms, "ms");
  out.Add("trace_overhead_frac", trace_overhead_frac, "ratio");
}

}  // namespace perfbench
