// Direct unit tests of the sweep kernels on hand-built topologies — the
// engine-level tests in test_phast*.cpp cover end-to-end behaviour; these
// pin down kernel semantics (saturation, marks, parents, ranges) in
// isolation, for every available instruction set, and check every kernel
// bit for bit against a plain scalar reference on random topologies.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "phast/kernels.h"
#include "util/aligned.h"
#include "util/bit_vector.h"
#include "util/rng.h"

namespace phast {
namespace {

/// A tiny fixed sweep: 4 positions; position p's vertex is p (identity
/// order). Arcs: 2 <- {0 (w=3), 1 (w=1)}, 3 <- {2 (w=2)}.
struct TinySweep {
  std::vector<ArcId> first = {0, 0, 0, 2, 3};
  std::vector<DownArc> arcs = {{0, 3}, {1, 1}, {2, 2}};
  AlignedVector<Weight> labels;
  std::vector<VertexId> parents;
  BitVector marks;
  uint32_t k;

  explicit TinySweep(uint32_t k_in) : k(k_in) {
    labels.assign(4 * k, kInfWeight);
    parents.assign(4 * k, kInvalidVertex);
    marks.Resize(4);
  }

  SweepArgs Args(bool use_marks, bool use_parents) {
    SweepArgs args;
    args.down_first = first.data();
    args.down_arcs = arcs.data();
    args.order = nullptr;
    args.num_vertices = 4;
    args.k = k;
    args.labels = labels.data();
    args.marks = use_marks ? marks.Words() : nullptr;
    args.parents = use_parents ? parents.data() : nullptr;
    return args;
  }
};

struct KernelCase {
  SimdMode mode;
  uint32_t k;
  const char* name;
};

class KernelSemantics : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (!SimdModeAvailable(GetParam().mode)) {
      GTEST_SKIP() << "CPU lacks " << GetParam().name;
    }
  }
};

TEST_P(KernelSemantics, BasicRelaxation) {
  const auto [mode, k, name] = GetParam();
  TinySweep sweep(k);
  // Tree i: source labels 0 at vertex 0 with offset i (distinct trees).
  for (uint32_t i = 0; i < k; ++i) {
    sweep.labels[0 * k + i] = i;      // d(0) = i
    sweep.labels[1 * k + i] = 10 + i; // d(1) = 10 + i
  }
  const SweepKernelFn kernel = SelectSweepKernel(mode, k, false, false);
  kernel(sweep.Args(false, false), 0, 4);
  for (uint32_t i = 0; i < k; ++i) {
    // d(2) = min(d(0)+3, d(1)+1) = min(i+3, 11+i) = i+3.
    EXPECT_EQ(sweep.labels[2 * k + i], i + 3) << name << " tree " << i;
    // d(3) = d(2)+2.
    EXPECT_EQ(sweep.labels[3 * k + i], i + 5) << name << " tree " << i;
  }
}

TEST_P(KernelSemantics, SaturationAtInfinity) {
  const auto [mode, k, name] = GetParam();
  TinySweep sweep(k);
  // All sources at infinity: everything must stay exactly kInfWeight —
  // never wrap around to a small value.
  const SweepKernelFn kernel = SelectSweepKernel(mode, k, false, false);
  kernel(sweep.Args(false, false), 0, 4);
  for (size_t i = 0; i < sweep.labels.size(); ++i) {
    EXPECT_EQ(sweep.labels[i], kInfWeight) << name << " slot " << i;
  }
}

TEST_P(KernelSemantics, NearInfinitySaturates) {
  const auto [mode, k, name] = GetParam();
  TinySweep sweep(k);
  for (uint32_t i = 0; i < k; ++i) {
    sweep.labels[0 * k + i] = kInfWeight - 2;
    sweep.labels[1 * k + i] = kInfWeight - 1;
  }
  const SweepKernelFn kernel = SelectSweepKernel(mode, k, false, false);
  kernel(sweep.Args(false, false), 0, 4);
  for (uint32_t i = 0; i < k; ++i) {
    // d(0)+3 and d(1)+1 both exceed the label range: clamp to infinity.
    EXPECT_EQ(sweep.labels[2 * k + i], kInfWeight) << name;
    EXPECT_EQ(sweep.labels[3 * k + i], kInfWeight) << name;
  }
}

TEST_P(KernelSemantics, MarksGateStaleLabels) {
  const auto [mode, k, name] = GetParam();
  TinySweep sweep(k);
  // Vertex 0 marked with a real label; vertex 1 unmarked with stale
  // garbage that must be ignored.
  for (uint32_t i = 0; i < k; ++i) {
    sweep.labels[0 * k + i] = 5;
    sweep.labels[1 * k + i] = 0;  // stale!
    sweep.labels[2 * k + i] = 7;  // stale!
    sweep.labels[3 * k + i] = 0;  // stale!
  }
  sweep.marks.Set(0);
  const SweepKernelFn kernel = SelectSweepKernel(mode, k, false, true);
  kernel(sweep.Args(true, false), 0, 4);
  for (uint32_t i = 0; i < k; ++i) {
    EXPECT_EQ(sweep.labels[1 * k + i], kInfWeight) << name;  // reset to inf
    EXPECT_EQ(sweep.labels[2 * k + i], 8u) << name;          // 5 + 3 via 0
    EXPECT_EQ(sweep.labels[3 * k + i], 10u) << name;         // 8 + 2
  }
}

TEST_P(KernelSemantics, ParentsTrackWinningArc) {
  const auto [mode, k, name] = GetParam();
  TinySweep sweep(k);
  for (uint32_t i = 0; i < k; ++i) {
    sweep.labels[0 * k + i] = 0;
    sweep.labels[1 * k + i] = 1;
  }
  const SweepKernelFn kernel = SelectSweepKernel(mode, k, true, false);
  kernel(sweep.Args(false, true), 0, 4);
  for (uint32_t i = 0; i < k; ++i) {
    // d(2) = min(0+3, 1+1) = 2 via vertex 1.
    EXPECT_EQ(sweep.labels[2 * k + i], 2u) << name;
    EXPECT_EQ(sweep.parents[2 * k + i], 1u) << name;
    EXPECT_EQ(sweep.parents[3 * k + i], 2u) << name;
    // Sources were never improved: parents untouched.
    EXPECT_EQ(sweep.parents[0 * k + i], kInvalidVertex) << name;
  }
}

TEST_P(KernelSemantics, RangeRestriction) {
  const auto [mode, k, name] = GetParam();
  TinySweep sweep(k);
  for (uint32_t i = 0; i < k; ++i) sweep.labels[0 * k + i] = 0;
  const SweepKernelFn kernel = SelectSweepKernel(mode, k, false, false);
  kernel(sweep.Args(false, false), 0, 3);  // exclude position 3
  for (uint32_t i = 0; i < k; ++i) {
    EXPECT_EQ(sweep.labels[2 * k + i], 3u) << name;
    EXPECT_EQ(sweep.labels[3 * k + i], kInfWeight) << name;  // untouched
  }
  kernel(sweep.Args(false, false), 3, 4);  // now just position 3
  for (uint32_t i = 0; i < k; ++i) {
    EXPECT_EQ(sweep.labels[3 * k + i], 5u) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelSemantics,
    ::testing::Values(KernelCase{SimdMode::kScalar, 1, "scalar1"},
                      KernelCase{SimdMode::kScalar, 2, "scalar2"},
                      KernelCase{SimdMode::kScalar, 5, "scalar5"},
                      KernelCase{SimdMode::kSse, 4, "sse4"},
                      KernelCase{SimdMode::kSse, 8, "sse8"},
                      KernelCase{SimdMode::kAvx2, 8, "avx8"},
                      KernelCase{SimdMode::kAvx2, 16, "avx16"}),
    [](const ::testing::TestParamInfo<KernelCase>& param_info) {
      return param_info.param.name;
    });

TEST(KernelOrderArray, NonIdentityOrderFollowed) {
  // Two vertices, swapped sweep order via the order array; the arc
  // (label-space tail 1) must be read correctly.
  std::vector<ArcId> first = {0, 0, 1};
  std::vector<DownArc> arcs = {{1, 4}};  // position 1's vertex gets 1 -> v
  std::vector<VertexId> order = {1, 0};  // position 0 = vertex 1, pos 1 = v0
  AlignedVector<Weight> labels = {kInfWeight, 2};  // d(v1) = 2
  SweepArgs args;
  args.down_first = first.data();
  args.down_arcs = arcs.data();
  args.order = order.data();
  args.num_vertices = 2;
  args.k = 1;
  args.labels = labels.data();
  const SweepKernelFn kernel =
      SelectSweepKernel(SimdMode::kScalar, 1, false, false);
  kernel(args, 0, 2);
  EXPECT_EQ(labels[0], 6u);  // vertex 0 improved via arc from vertex 1
  EXPECT_EQ(labels[1], 2u);
}

// --- every kernel against a plain scalar reference --------------------------

/// Labels that sit on the saturation edges most of the time.
Weight EdgeLabel(Rng& rng) {
  switch (rng.NextBounded(8)) {
    case 0:
      return kInfWeight;
    case 1:
      return kInfWeight - 1;  // + weight 1 lands exactly on kInfWeight
    case 2:
      return 0;
    case 3:
      return 1;  // + weight 2^32 - 2 lands exactly on kInfWeight
    case 4:
      return 2;  // + weight 2^32 - 2 overflows
    default:
      return static_cast<Weight>(rng.NextBounded(64));
  }
}

Weight EdgeWeight(Rng& rng) {
  switch (rng.NextBounded(6)) {
    case 0:
      return 0;
    case 1:
      return kInfWeight - 1;  // 2^32 - 2, the largest finite arc
    case 2:
      return 1;
    default:
      return static_cast<Weight>(rng.NextBounded(64));
  }
}

/// A random sweep over kPositions positions: each position's incoming arcs
/// come from vertices at earlier positions (as in a CH's G-down), the order
/// array is the identity or a shuffle, and labels, marks and stale parents
/// are random. Small label and weight ranges make ties common, so the
/// strict-improvement rule for parents is exercised too.
struct RandomSweep {
  static constexpr VertexId kPositions = 40;
  std::vector<ArcId> first;
  std::vector<DownArc> arcs;
  std::vector<VertexId> order;
  AlignedVector<Weight> labels;
  std::vector<VertexId> parents;
  BitVector marks;
  uint32_t k;

  RandomSweep(uint32_t k_in, uint64_t seed) : k(k_in) {
    Rng rng(seed);
    order.resize(kPositions);
    std::iota(order.begin(), order.end(), VertexId{0});
    if (rng.NextBool()) Shuffle(order.begin(), order.end(), rng);
    first.push_back(0);
    for (VertexId pos = 0; pos < kPositions; ++pos) {
      const uint64_t degree = pos == 0 ? 0 : rng.NextBounded(6);
      for (uint64_t i = 0; i < degree; ++i) {
        const VertexId tail = order[rng.NextBounded(pos)];
        arcs.push_back({tail, EdgeWeight(rng)});
      }
      first.push_back(static_cast<ArcId>(arcs.size()));
    }
    labels.resize(size_t{kPositions} * k);
    for (Weight& label : labels) label = EdgeLabel(rng);
    parents.resize(size_t{kPositions} * k);
    for (VertexId& parent : parents) {
      parent = static_cast<VertexId>(rng.NextBounded(kPositions));
    }
    marks.Resize(kPositions);
    for (VertexId v = 0; v < kPositions; ++v) {
      if (rng.NextBool(0.7)) marks.Set(v);
    }
  }

  SweepArgs Args(bool use_marks, bool use_parents, bool use_order) {
    SweepArgs args;
    args.down_first = first.data();
    args.down_arcs = arcs.data();
    args.order = use_order ? order.data() : nullptr;
    args.num_vertices = kPositions;
    args.k = k;
    args.labels = labels.data();
    args.marks = use_marks ? marks.Words() : nullptr;
    args.parents = use_parents ? parents.data() : nullptr;
    return args;
  }
};

/// The sweep semantics written as plainly as possible: per vertex, per
/// lane, +infinity for an unmarked vertex, then a strict min over the
/// saturating sums of its incoming arcs, recording the winning tail.
void ReferenceSweep(const SweepArgs& a) {
  for (VertexId pos = 0; pos < a.num_vertices; ++pos) {
    const VertexId v = a.order != nullptr ? a.order[pos] : pos;
    for (uint32_t lane = 0; lane < a.k; ++lane) {
      const size_t slot = size_t{v} * a.k + lane;
      Weight d = a.marks != nullptr && !a.Marked(v) ? kInfWeight
                                                    : a.labels[slot];
      for (ArcId arc = a.down_first[pos]; arc < a.down_first[pos + 1];
           ++arc) {
        const DownArc in = a.down_arcs[arc];
        const Weight candidate =
            SaturatingAdd(a.labels[size_t{in.tail} * a.k + lane], in.weight);
        if (candidate < d) {
          d = candidate;
          if (a.parents != nullptr) a.parents[slot] = in.tail;
        }
      }
      a.labels[slot] = d;
    }
  }
}

TEST(KernelReference, EveryWidthModeMarkAndParentMatchesBitForBit) {
  std::vector<uint32_t> widths(17);
  std::iota(widths.begin(), widths.end(), 1u);
  widths.push_back(24);
  widths.push_back(32);
  const SimdMode modes[] = {SimdMode::kScalar, SimdMode::kSse, SimdMode::kAvx2,
                            SimdMode::kAuto};
  for (const SimdMode mode : modes) {
    if (!SimdModeAvailable(mode)) continue;
    for (const uint32_t k : widths) {
      for (const bool use_marks : {false, true}) {
        for (const bool use_parents : {false, true}) {
          for (uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE("kernel " + std::string(SweepKernelName(mode, k)) +
                         " k=" + std::to_string(k) +
                         " marks=" + std::to_string(use_marks) +
                         " parents=" + std::to_string(use_parents) +
                         " seed=" + std::to_string(seed));
            const bool use_order = seed % 2 == 0;
            RandomSweep got(k, seed);
            RandomSweep want(k, seed);
            const SweepKernelFn kernel =
                SelectSweepKernel(mode, k, use_parents, use_marks);
            // Two ranges, so range boundaries are covered as well.
            const SweepArgs args = got.Args(use_marks, use_parents, use_order);
            kernel(args, 0, RandomSweep::kPositions / 3);
            kernel(args, RandomSweep::kPositions / 3, RandomSweep::kPositions);
            ReferenceSweep(want.Args(use_marks, use_parents, use_order));
            ASSERT_EQ(got.labels, want.labels);
            ASSERT_EQ(got.parents, want.parents);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace phast
