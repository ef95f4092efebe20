#include <gtest/gtest.h>

#include <algorithm>
#include <set>
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

/// Runs the engine's upward phase alone and checks it against Dijkstra on
/// G-up: every lane's labels on the touched set, the touched set itself,
/// and (on level-ordered engines, which can profile) the work counters.
void ExpectUpwardMatchesDijkstra(const CHData& ch, SweepOrder order,
                                 const std::vector<VertexId>& sources) {
  Phast::Options options;
  options.order = order;
  options.collect_profile = order != SweepOrder::kRankDescending;
  const Phast engine(ch, options);
  const auto k = static_cast<uint32_t>(sources.size());
  Phast::Workspace ws = engine.MakeWorkspace(k);
  // Run twice: the second batch must not see the first one's residue.
  for (int round = 0; round < 2; ++round) {
    std::vector<VertexId> batch = sources;
    if (round == 1) std::reverse(batch.begin(), batch.end());
    const UpwardReference ref = ReferenceUpward(ch, batch);
    engine.RunUpwardPhase(batch, ws);
    std::set<VertexId> visited;
    for (const VertexId label : engine.VisitedLabelVertices(ws)) {
      visited.insert(engine.OriginalOf(label));
    }
    EXPECT_EQ(visited, ref.touched);
    EXPECT_EQ(engine.VisitedLabelVertices(ws).size(), ref.touched.size())
        << "a vertex was recorded twice";
    for (uint32_t tree = 0; tree < k; ++tree) {
      for (const VertexId v : ref.touched) {
        ASSERT_EQ(engine.Distance(ws, v, tree), ref.trees[tree].dist[v])
            << "tree " << tree << " vertex " << v;
      }
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
