#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "ch/contraction.h"
#include "dijkstra/dijkstra.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "phast/phast.h"
#include "phast/tree.h"
#include "pq/dary_heap.h"
#include "util/rng.h"

namespace phast {
namespace {

Graph CountryGraph(uint32_t side, uint64_t seed = 1,
                   Metric metric = Metric::kTravelTime) {
  CountryParams params;
  params.width = side;
  params.height = side;
  params.seed = seed;
  params.metric = metric;
  const GeneratedGraph g = GenerateCountry(params);
  return Graph::FromEdgeList(LargestStronglyConnectedComponent(g.edges).edges);
}

std::vector<Weight> PhastDistances(const Phast& engine,
                                   const Phast::Workspace& ws, VertexId n,
                                   uint32_t tree = 0) {
  std::vector<Weight> dist(n);
  for (VertexId v = 0; v < n; ++v) dist[v] = engine.Distance(ws, v, tree);
  return dist;
}

// PHAST must equal Dijkstra for every sweep order, on every graph family.
struct ModeCase {
  SweepOrder order;
  const char* name;
};

class PhastModes : public ::testing::TestWithParam<ModeCase> {};

TEST_P(PhastModes, MatchesDijkstraOnCountry) {
  const Graph g = CountryGraph(12);
  const CHData ch = BuildContractionHierarchy(g);
  Phast::Options options;
  options.order = GetParam().order;
  const Phast engine(ch, options);
  Phast::Workspace ws = engine.MakeWorkspace();
  Rng rng(11);
  for (int i = 0; i < 10; ++i) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    engine.ComputeTree(s, ws);
    const SsspResult ref = Dijkstra<BinaryHeap>(g, s);
    EXPECT_EQ(PhastDistances(engine, ws, g.NumVertices()), ref.dist)
        << "mode=" << GetParam().name << " source=" << s;
  }
}

TEST_P(PhastModes, MatchesDijkstraOnGnm) {
  const EdgeList edges = GenerateGnm(100, 400, 60, 5);
  const Graph g = Graph::FromEdgeList(edges);
  const CHData ch = BuildContractionHierarchy(g);
  Phast::Options options;
  options.order = GetParam().order;
  const Phast engine(ch, options);
  Phast::Workspace ws = engine.MakeWorkspace();
  for (VertexId s = 0; s < 20; ++s) {
    engine.ComputeTree(s, ws);
    const SsspResult ref = Dijkstra<BinaryHeap>(g, s);
    EXPECT_EQ(PhastDistances(engine, ws, g.NumVertices()), ref.dist);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, PhastModes,
    ::testing::Values(ModeCase{SweepOrder::kRankDescending, "rank"},
                      ModeCase{SweepOrder::kLevelNoReorder, "level"},
                      ModeCase{SweepOrder::kLevelReordered, "reordered"}),
    [](const ::testing::TestParamInfo<ModeCase>& param_info) {
      return param_info.param.name;
    });

TEST(Phast, RepeatedTreesFromSameWorkspace) {
  // Implicit initialization (§IV-C): back-to-back trees must not leak
  // labels from the previous source.
  const Graph g = CountryGraph(10);
  const CHData ch = BuildContractionHierarchy(g);
  const Phast engine(ch);
  Phast::Workspace ws = engine.MakeWorkspace();
  for (VertexId s : {VertexId{0}, VertexId{17}, VertexId{0}, VertexId{42}}) {
    engine.ComputeTree(s, ws);
    const SsspResult ref = Dijkstra<BinaryHeap>(g, s);
    EXPECT_EQ(PhastDistances(engine, ws, g.NumVertices()), ref.dist);
  }
}

TEST(Phast, ExplicitInitMatchesImplicit) {
  const Graph g = CountryGraph(10);
  const CHData ch = BuildContractionHierarchy(g);
  Phast::Options explicit_options;
  explicit_options.implicit_init = false;
  const Phast implicit_engine(ch);
  const Phast explicit_engine(ch, explicit_options);
  Phast::Workspace ws_a = implicit_engine.MakeWorkspace();
  Phast::Workspace ws_b = explicit_engine.MakeWorkspace();
  for (VertexId s : {VertexId{3}, VertexId{50}}) {
    implicit_engine.ComputeTree(s, ws_a);
    explicit_engine.ComputeTree(s, ws_b);
    EXPECT_EQ(PhastDistances(implicit_engine, ws_a, g.NumVertices()),
              PhastDistances(explicit_engine, ws_b, g.NumVertices()));
  }
}

TEST(Phast, DisconnectedGraphGivesInfinity) {
  EdgeList edges(5);
  edges.AddBidirectional(0, 1, 2);
  edges.AddBidirectional(2, 3, 4);
  const Graph g = Graph::FromEdgeList(edges);
  const CHData ch = BuildContractionHierarchy(g);
  const Phast engine(ch);
  Phast::Workspace ws = engine.MakeWorkspace();
  engine.ComputeTree(0, ws);
  EXPECT_EQ(engine.Distance(ws, 1), 2u);
  EXPECT_EQ(engine.Distance(ws, 2), kInfWeight);
  EXPECT_EQ(engine.Distance(ws, 4), kInfWeight);
}

TEST(Phast, SingleVertex) {
  EdgeList edges(1);
  const CHData ch = BuildContractionHierarchy(Graph::FromEdgeList(edges));
  const Phast engine(ch);
  Phast::Workspace ws = engine.MakeWorkspace();
  engine.ComputeTree(0, ws);
  EXPECT_EQ(engine.Distance(ws, 0), 0u);
}

TEST(Phast, SourceOutOfRangeThrows) {
  const Graph g = CountryGraph(8);
  const CHData ch = BuildContractionHierarchy(g);
  const Phast engine(ch);
  Phast::Workspace ws = engine.MakeWorkspace();
  EXPECT_THROW(engine.ComputeTree(g.NumVertices(), ws), InputError);
}

TEST(Phast, WorkspaceTreeCountMustMatch) {
  const Graph g = CountryGraph(8);
  const CHData ch = BuildContractionHierarchy(g);
  const Phast engine(ch);
  Phast::Workspace ws = engine.MakeWorkspace(4);
  const VertexId s = 0;
  EXPECT_THROW(engine.ComputeTrees({&s, 1}, ws), InputError);
}

TEST(Phast, LevelBoundariesPartitionTheSweep) {
  const Graph g = CountryGraph(12);
  const CHData ch = BuildContractionHierarchy(g);
  const Phast engine(ch);
  const std::span<const VertexId> bounds = engine.LevelBoundaries();
  ASSERT_EQ(bounds.size(), engine.NumLevels() + 1);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), engine.NumVertices());
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    EXPECT_LE(bounds[i], bounds[i + 1]);
  }
}

TEST(Phast, PermutationRoundTrips) {
  const Graph g = CountryGraph(10);
  const CHData ch = BuildContractionHierarchy(g);
  const Phast engine(ch);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(engine.OriginalOf(engine.LabelIndexOf(v)), v);
  }
}

TEST(Phast, UpwardSearchSpaceTracked) {
  const Graph g = CountryGraph(16);
  const CHData ch = BuildContractionHierarchy(g);
  const Phast engine(ch);
  Phast::Workspace ws = engine.MakeWorkspace();
  engine.ComputeTree(5, ws);
  EXPECT_GT(ws.UpwardSearchSpace(), 0u);
  EXPECT_LT(ws.UpwardSearchSpace(), g.NumVertices() / 2);
}

// --------------------------- upward phase ----------------------------------

/// Dijkstra on G-up alone, per source: distances, the touched set (the
/// source plus every head of an arc out of a queued vertex), and the work a
/// queue-based search does (queued vertices, arcs scanned from them).
struct UpwardReference {
  std::vector<SsspResult> trees;
  std::set<VertexId> touched;
  uint64_t settled = 0;
  uint64_t scanned = 0;
};

UpwardReference ReferenceUpward(const CHData& ch,
                                const std::vector<VertexId>& sources) {
  EdgeList up(ch.num_vertices);
  std::vector<uint64_t> out_degree(ch.num_vertices, 0);
  for (const CHArc& a : ch.up_arcs) {
    up.AddArc(a.tail, a.head, a.weight);
    ++out_degree[a.tail];
  }
  const Graph up_graph = Graph::FromEdgeList(up);
  UpwardReference ref;
  for (const VertexId s : sources) {
    ref.trees.push_back(Dijkstra<BinaryHeap>(up_graph, s));
    const std::vector<Weight>& dist = ref.trees.back().dist;
    ref.touched.insert(s);
    for (const CHArc& a : ch.up_arcs) {
      if (dist[a.tail] != kInfWeight) ref.touched.insert(a.head);
    }
    for (VertexId v = 0; v < ch.num_vertices; ++v) {
      if (dist[v] == kInfWeight) continue;
      ++ref.settled;
      ref.scanned += out_degree[v];
    }
  }
  return ref;
}

/// Every finite non-source lane of the upward phase names a parent u with
/// a G-up arc u -> v that is tight: label(u) + w == label(v). Source lanes
/// have no parent.
void ExpectUpwardParentsTight(const CHData& ch, const Phast& engine,
                              const Phast::Workspace& ws,
                              const std::vector<VertexId>& sources) {
  std::map<std::pair<VertexId, VertexId>, std::vector<Weight>> up_weights;
  for (const CHArc& a : ch.up_arcs) {
    up_weights[{a.tail, a.head}].push_back(a.weight);
  }
  const uint32_t k = ws.NumTrees();
  const std::span<const Weight> labels = engine.RawLabels(ws);
  const std::span<const VertexId> parents = engine.RawParents(ws);
  for (const VertexId v : engine.VisitedLabelVertices(ws)) {
    for (uint32_t tree = 0; tree < k; ++tree) {
      const size_t slot = static_cast<size_t>(v) * k + tree;
      if (labels[slot] == kInfWeight) continue;
      const VertexId u = parents[slot];
      if (engine.OriginalOf(v) == sources[tree]) {
        EXPECT_EQ(u, kInvalidVertex) << "source of tree " << tree;
        continue;
      }
      ASSERT_LT(u, engine.NumVertices()) << "tree " << tree << " label " << v;
      const auto it =
          up_weights.find({engine.OriginalOf(u), engine.OriginalOf(v)});
      ASSERT_NE(it, up_weights.end()) << "parent is not a G-up in-neighbour";
      const Weight du = labels[static_cast<size_t>(u) * k + tree];
      EXPECT_TRUE(std::any_of(it->second.begin(), it->second.end(),
                              [&](Weight w) {
                                return SaturatingAdd(du, w) == labels[slot];
                              }))
          << "parent arc is not tight, tree " << tree << " label " << v;
    }
  }
}

/// Runs the engine's upward phase alone and checks it against Dijkstra on
/// G-up: every lane's labels on the touched set, the touched set itself,
/// and (on level-ordered engines, which can profile) the work counters.
/// An explicit-init engine records no touched set; there every label is
/// checked instead. With `want_parents`, the parents must be tight G-up
/// arcs.
void ExpectUpwardMatchesDijkstra(const CHData& ch, SweepOrder order,
                                 const std::vector<VertexId>& sources,
                                 bool implicit_init = true,
                                 bool want_parents = false) {
  Phast::Options options;
  options.order = order;
  options.implicit_init = implicit_init;
  options.collect_profile = order != SweepOrder::kRankDescending;
  const Phast engine(ch, options);
  const auto k = static_cast<uint32_t>(sources.size());
  Phast::Workspace ws = engine.MakeWorkspace(k, want_parents);
  // Run twice: the second batch must not see the first one's residue.
  for (int round = 0; round < 2; ++round) {
    std::vector<VertexId> batch = sources;
    if (round == 1) std::reverse(batch.begin(), batch.end());
    const UpwardReference ref = ReferenceUpward(ch, batch);
    engine.RunUpwardPhase(batch, ws);
    if (implicit_init) {
      std::set<VertexId> visited;
      for (const VertexId label : engine.VisitedLabelVertices(ws)) {
        visited.insert(engine.OriginalOf(label));
      }
      EXPECT_EQ(visited, ref.touched);
      EXPECT_EQ(engine.VisitedLabelVertices(ws).size(), ref.touched.size())
          << "a vertex was recorded twice";
    } else {
      EXPECT_TRUE(engine.VisitedLabelVertices(ws).empty());
    }
    for (uint32_t tree = 0; tree < k; ++tree) {
      if (implicit_init) {
        for (const VertexId v : ref.touched) {
          ASSERT_EQ(engine.Distance(ws, v, tree), ref.trees[tree].dist[v])
              << "tree " << tree << " vertex " << v;
        }
      } else {
        for (VertexId v = 0; v < ch.num_vertices; ++v) {
          ASSERT_EQ(engine.Distance(ws, v, tree), ref.trees[tree].dist[v])
              << "tree " << tree << " vertex " << v;
        }
      }
    }
    if (want_parents && implicit_init) {
      ExpectUpwardParentsTight(ch, engine, ws, batch);
    }
    if (options.collect_profile) {
      EXPECT_EQ(ws.Profile().upward.queue_pops, ref.settled);
      EXPECT_EQ(ws.Profile().upward.arcs_relaxed, ref.scanned);
    }
    engine.FinishExternalSweep(ws);
  }
}

TEST_P(PhastModes, UpwardPhaseEqualsDijkstraOnGUp) {
  const Graph g = CountryGraph(14);
  const CHData ch = BuildContractionHierarchy(g);
  Rng rng(21);
  for (const uint32_t k : {1u, 4u, 16u}) {
    std::vector<VertexId> sources(k);
    for (VertexId& s : sources) {
      s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    }
    ExpectUpwardMatchesDijkstra(ch, GetParam().order, sources);
  }
}

TEST_P(PhastModes, UpwardPhaseEqualsDijkstraOnWitnessFreeHierarchy) {
  const Graph g = CountryGraph(10);
  CHParams params;
  params.witness_pruning = false;
  const CHData ch = BuildContractionHierarchy(g, params);
  Rng rng(22);
  for (const uint32_t k : {1u, 8u}) {
    std::vector<VertexId> sources(k);
    for (VertexId& s : sources) {
      s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    }
    ExpectUpwardMatchesDijkstra(ch, GetParam().order, sources);
  }
}

// The batched search's dispatch: k = 5 runs scalar chunks, k = 12 the
// fixed-width SSE kernel and k = 24 AVX2 chunks (where the CPU has them).
TEST_P(PhastModes, UpwardPhaseEqualsDijkstraAtEveryKernelWidth) {
  const Graph g = CountryGraph(14);
  const CHData ch = BuildContractionHierarchy(g);
  Rng rng(23);
  for (const uint32_t k : {5u, 12u, 24u}) {
    std::vector<VertexId> sources(k);
    for (VertexId& s : sources) {
      s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    }
    ExpectUpwardMatchesDijkstra(ch, GetParam().order, sources);
  }
}

/// `count` vertices of `source`'s upward search space, spread from its
/// nearest to its farthest: each lies on an upward path from `source`.
std::vector<VertexId> UpwardPathVertices(const CHData& ch, VertexId source,
                                         size_t count) {
  const UpwardReference ref = ReferenceUpward(ch, {source});
  std::vector<std::pair<Weight, VertexId>> reached;
  for (VertexId v = 0; v < ch.num_vertices; ++v) {
    const Weight d = ref.trees[0].dist[v];
    if (d != kInfWeight && v != source) reached.emplace_back(d, v);
  }
  std::sort(reached.begin(), reached.end());
  std::vector<VertexId> picked;
  for (size_t i = 0; i < count && !reached.empty(); ++i) {
    picked.push_back(reached[i * (reached.size() - 1) / (count - 1)].second);
  }
  return picked;
}

TEST_P(PhastModes, UpwardPhaseHandlesRepeatedAndNestedSources) {
  const Graph g = CountryGraph(14);
  const CHData ch = BuildContractionHierarchy(g);
  // Repeats, as ComputeManyTrees pads its last batch with.
  ExpectUpwardMatchesDijkstra(ch, GetParam().order, {3, 40, 3, 3, 77, 40, 9, 9});
  // Sources on each other's upward paths: every later source is reached by
  // the first one's search (and the round-two batch runs them reversed).
  std::vector<VertexId> nested{11};
  for (const VertexId v : UpwardPathVertices(ch, 11, 7)) nested.push_back(v);
  ASSERT_EQ(nested.size(), 8u);
  ExpectUpwardMatchesDijkstra(ch, GetParam().order, nested);
}

TEST_P(PhastModes, UpwardPhaseEqualsDijkstraWithExplicitInit) {
  const Graph g = CountryGraph(14);
  const CHData ch = BuildContractionHierarchy(g);
  Rng rng(24);
  for (const uint32_t k : {1u, 5u, 16u}) {
    std::vector<VertexId> sources(k);
    for (VertexId& s : sources) {
      s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    }
    ExpectUpwardMatchesDijkstra(ch, GetParam().order, sources,
                                /*implicit_init=*/false);
  }
}

TEST_P(PhastModes, UpwardPhaseParentsAreTightUpArcs) {
  const Graph g = CountryGraph(14);
  const CHData ch = BuildContractionHierarchy(g);
  Rng rng(25);
  for (const uint32_t k : {1u, 5u, 8u, 16u}) {
    std::vector<VertexId> sources(k);
    for (VertexId& s : sources) {
      s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    }
    ExpectUpwardMatchesDijkstra(ch, GetParam().order, sources,
                                /*implicit_init=*/true, /*want_parents=*/true);
  }
}

// The scalar kernels and the widest SIMD kernels compute the same bits:
// labels and parents after the upward phase, and again after full trees.
TEST(Phast, ScalarAndSimdKernelsAgreeBitForBit) {
  const Graph g = CountryGraph(14);
  const CHData ch = BuildContractionHierarchy(g);
  Phast::Options scalar_options;
  scalar_options.simd = SimdMode::kScalar;
  const Phast scalar_engine(ch, scalar_options);
  const Phast simd_engine(ch);
  Rng rng(26);
  for (const uint32_t k : {4u, 8u, 12u, 16u, 24u}) {
    Phast::Workspace scalar_ws = scalar_engine.MakeWorkspace(k, true);
    Phast::Workspace simd_ws = simd_engine.MakeWorkspace(k, true);
    for (int round = 0; round < 3; ++round) {
      std::vector<VertexId> sources(k);
      for (VertexId& s : sources) {
        s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      }
      scalar_engine.RunUpwardPhase(sources, scalar_ws);
      simd_engine.RunUpwardPhase(sources, simd_ws);
      // Every parent slot, stale ones included: both workspaces ran the
      // same batches, so even slots behind a +infinity label must agree.
      const auto same = [&](const char* phase) {
        EXPECT_TRUE(std::ranges::equal(scalar_engine.RawLabels(scalar_ws),
                                       simd_engine.RawLabels(simd_ws)))
            << phase << " labels, k = " << k;
        const std::span<const VertexId> scalar_parents =
            scalar_engine.RawParents(scalar_ws);  // phast-lint: allow(stale-parent)
        const std::span<const VertexId> simd_parents =
            simd_engine.RawParents(simd_ws);  // phast-lint: allow(stale-parent)
        EXPECT_TRUE(std::ranges::equal(scalar_parents, simd_parents))
            << phase << " parents, k = " << k;
      };
      same("upward");
      scalar_engine.FinishExternalSweep(scalar_ws);
      simd_engine.FinishExternalSweep(simd_ws);
      scalar_engine.ComputeTrees(sources, scalar_ws);
      simd_engine.ComputeTrees(sources, simd_ws);
      same("tree");
    }
  }
}

TEST(Phast, RejectsUpwardArcThatDoesNotClimb) {
  // Two vertices, one level: an "upward" arc between equal levels breaks
  // the topological order the queue-free upward search relies on.
  CHData ch;
  ch.num_vertices = 2;
  ch.rank = {0, 1};
  ch.level = {0, 0};
  ch.up_arcs = {CHArc{0, 1, 5}};
  ch.down_arcs = {CHArc{1, 0, 5}};
  EXPECT_THROW({ const Phast engine(ch); }, InputError);
}

// --------------------------- parents / trees -------------------------------

TEST(PhastTree, ParentsInGPlusReachSource) {
  const Graph g = CountryGraph(10);
  const CHData ch = BuildContractionHierarchy(g);
  const Phast engine(ch);
  Phast::Workspace ws = engine.MakeWorkspace(1, /*want_parents=*/true);
  const VertexId s = 7;
  engine.ComputeTree(s, ws);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (engine.Distance(ws, v) == kInfWeight) continue;
    VertexId cur = v;
    size_t steps = 0;
    while (cur != s) {
      cur = engine.ParentInGPlus(ws, cur);
      ASSERT_NE(cur, kInvalidVertex) << "chain broken at v=" << v;
      ASSERT_LE(++steps, static_cast<size_t>(g.NumVertices()));
    }
  }
}

TEST(PhastTree, OriginalTreeIsValid) {
  const Graph g = CountryGraph(10);
  const CHData ch = BuildContractionHierarchy(g);
  const Phast engine(ch);
  Phast::Workspace ws = engine.MakeWorkspace();
  const VertexId s = 3;
  engine.ComputeTree(s, ws);
  const std::vector<Weight> dist = PhastDistances(engine, ws, g.NumVertices());
  const std::vector<VertexId> parent = BuildTreeInOriginalGraph(g, engine, ws);
  EXPECT_TRUE(ValidateTree(g, s, dist, parent));
}

TEST(PhastTree, ParentDistancesConsistent) {
  const Graph g = CountryGraph(12);
  const CHData ch = BuildContractionHierarchy(g);
  const Phast engine(ch);
  Phast::Workspace ws = engine.MakeWorkspace(1, /*want_parents=*/true);
  const VertexId s = 0;
  engine.ComputeTree(s, ws);
  // In G+, d(parent) <= d(v) along every tree arc.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const VertexId p = engine.ParentInGPlus(ws, v);
    if (p == kInvalidVertex) continue;
    EXPECT_LE(engine.Distance(ws, p), engine.Distance(ws, v));
  }
}

// --------------------------- parallel sweep --------------------------------

TEST(PhastParallel, MatchesSerial) {
  const Graph g = CountryGraph(14);
  const CHData ch = BuildContractionHierarchy(g);
  const Phast engine(ch);
  Phast::Workspace ws_serial = engine.MakeWorkspace();
  Phast::Workspace ws_parallel = engine.MakeWorkspace();
  Rng rng(4);
  for (int i = 0; i < 5; ++i) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    engine.ComputeTree(s, ws_serial);
    const VertexId src[] = {s};
    engine.ComputeTreesParallel(src, ws_parallel);
    EXPECT_EQ(PhastDistances(engine, ws_serial, g.NumVertices()),
              PhastDistances(engine, ws_parallel, g.NumVertices()));
  }
}

TEST(PhastParallel, RankOrderRejectsParallelSweep) {
  const Graph g = CountryGraph(8);
  const CHData ch = BuildContractionHierarchy(g);
  Phast::Options options;
  options.order = SweepOrder::kRankDescending;
  const Phast engine(ch, options);
  Phast::Workspace ws = engine.MakeWorkspace();
  const VertexId s = 0;
  EXPECT_THROW(engine.ComputeTreesParallel({&s, 1}, ws), InputError);
}

}  // namespace
}  // namespace phast
