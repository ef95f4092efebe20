#include "phast/rphast.h"

#include <algorithm>

#include "phast/kernels.h"
#include "util/bit_vector.h"
#include "util/error.h"

namespace phast {

// The k-wide path reinterprets the restricted arc array as DownArc[] so the
// engine's sweep kernels can stream it; the layouts must stay in lockstep.
static_assert(sizeof(RPhast::RestrictedArc) == sizeof(DownArc) &&
                  std::is_trivially_copyable_v<RPhast::RestrictedArc>,
              "RestrictedArc must mirror DownArc's layout for kernel reuse");

RPhast::RPhast(const Phast& engine, std::span<const VertexId> targets)
    : engine_(engine) {
  Require(!targets.empty(), "RPHAST needs at least one target");
  Require(!engine.LevelBoundaries().empty(),
          "RPHAST requires a level-ordered PHAST engine");
  Require(engine.GetOptions().implicit_init,
          "RPHAST requires implicit initialization (visited tracking)");
  const VertexId n = engine.NumVertices();

  const SweepArgs args = engine.SweepTopology();
  const auto label_of_pos = [&args](VertexId pos) {
    return args.order != nullptr ? args.order[pos] : pos;
  };

  // Relevance pass: a vertex is relevant iff it is a target or has a
  // downward arc into a relevant vertex. Arc tails sit at strictly smaller
  // sweep positions than their heads, so one descending pass suffices.
  BitVector relevant(n);
  for (const VertexId t : targets) {
    Require(t < n, "RPHAST target out of range");
    relevant.Set(engine.SweepPositionOf(engine.LabelIndexOf(t)));
  }
  for (VertexId pos = n; pos-- > 0;) {
    if (!relevant.Get(pos)) continue;
    const ArcId end = args.down_first[pos + 1];
    for (ArcId a = args.down_first[pos]; a < end; ++a) {
      relevant.Set(engine.SweepPositionOf(args.down_arcs[a].tail));
    }
  }

  // Compact the restricted subgraph in ascending sweep order. Tails always
  // precede heads, so their restricted positions are already assigned.
  position_of_.assign(n, kNotRestricted);
  first_.push_back(0);
  for (VertexId pos = 0; pos < n; ++pos) {
    if (!relevant.Get(pos)) continue;
    order_.push_back(label_of_pos(pos));
    position_of_[label_of_pos(pos)] = static_cast<uint32_t>(order_.size() - 1);
    const ArcId end = args.down_first[pos + 1];
    for (ArcId a = args.down_first[pos]; a < end; ++a) {
      arcs_.push_back(RestrictedArc{position_of_[args.down_arcs[a].tail],
                                    args.down_arcs[a].weight});
    }
    first_.push_back(static_cast<ArcId>(arcs_.size()));
  }

  target_slot_.reserve(targets.size());
  for (const VertexId t : targets) {
    target_slot_.push_back(position_of_[engine.LabelIndexOf(t)]);
  }
}

void RPhast::ComputeTree(VertexId source, Workspace& ws) const {
  // Phase one: unrestricted upward CH search (it is tiny regardless).
  engine_.RunUpwardPhase({&source, 1}, ws.full);

  // Scatter upward labels into the restricted label array. The restricted
  // set is small, so explicit initialization is cheap here.
  std::fill(ws.labels.begin(), ws.labels.end(), kInfWeight);
  const std::span<const Weight> full_labels = engine_.RawLabels(ws.full);
  for (const VertexId v : engine_.VisitedLabelVertices(ws.full)) {
    const uint32_t slot = position_of_[v];
    if (slot != kNotRestricted) ws.labels[slot] = full_labels[v];
  }
  engine_.FinishExternalSweep(ws.full);

  // Phase two: linear sweep over the restricted arrays only.
  const size_t m = order_.size();
  for (size_t slot = 0; slot < m; ++slot) {
    Weight d = ws.labels[slot];
    const ArcId end = first_[slot + 1];
    for (ArcId a = first_[slot]; a < end; ++a) {
      const Weight candidate =
          SaturatingAdd(ws.labels[arcs_[a].tail], arcs_[a].weight);
      d = std::min(d, candidate);
    }
    ws.labels[slot] = d;
  }
}

void RPhast::ComputeTrees(std::span<const VertexId> sources,
                          BatchWorkspace& ws) const {
  const uint32_t k = ws.k_;
  Require(sources.size() == k, "ComputeTrees: sources must match workspace k");

  // Phase one: one batched upward search over the full graph.
  engine_.RunUpwardPhase(sources, ws.full);

  // Scatter upward labels into the k-strided restricted array. Explicit
  // initialization keeps the kernel invocation mark-free.
  std::fill(ws.labels.begin(), ws.labels.end(), kInfWeight);
  const std::span<const Weight> full_labels = engine_.RawLabels(ws.full);
  for (const VertexId v : engine_.VisitedLabelVertices(ws.full)) {
    const uint32_t slot = position_of_[v];
    if (slot == kNotRestricted) continue;
    const size_t src = static_cast<size_t>(v) * k;
    const size_t dst = static_cast<size_t>(slot) * k;
    for (uint32_t tree = 0; tree < k; ++tree) {
      ws.labels[dst + tree] = full_labels[src + tree];
    }
  }
  engine_.FinishExternalSweep(ws.full);

  // Phase two: the restricted arrays already form a sweep topology (arc
  // tails at strictly earlier slots, order == identity), so hand them to
  // the same kernel the full engine would use at this k.
  SweepArgs args;
  args.down_first = first_.data();
  args.down_arcs = reinterpret_cast<const DownArc*>(arcs_.data());
  args.order = nullptr;
  args.num_vertices = static_cast<VertexId>(order_.size());
  args.k = k;
  args.labels = ws.labels.data();
  args.marks = nullptr;
  args.parents = nullptr;
  const SweepKernelFn kernel = SelectSweepKernel(
      engine_.GetOptions().simd, k, /*want_parents=*/false,
      /*use_marks=*/false);
  kernel(args, 0, args.num_vertices);
}

}  // namespace phast
