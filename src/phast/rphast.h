#pragma once

#include <span>
#include <vector>

#include "graph/types.h"
#include "phast/phast.h"
#include "util/aligned.h"

namespace phast {

/// RPHAST — restricted PHAST for one-to-many queries (the follow-up work
/// the paper's applications motivate: Delling, Goldberg, Werneck, "Faster
/// Batched Shortest Paths in Road Networks", ATMOS 2011).
///
/// When only distances to a fixed target set T are needed, the linear sweep
/// can be restricted to the vertices that can reach T in the downward graph
/// — typically a small fraction of n for localized targets. Restriction is
/// a one-time cost per target set (one backward pass over the downward
/// arcs); each subsequent source costs one upward CH search plus a sweep
/// over the *restricted* arrays, which are compacted for the same
/// sequential locality as the full §IV-A layout.
class RPhast {
 public:
  /// Builds the restriction for `targets` (original vertex ids). The engine
  /// must be level-ordered with implicit initialization (the defaults).
  RPhast(const Phast& engine, std::span<const VertexId> targets);

  /// Per-source state: restricted labels plus a full-graph workspace for
  /// the (unrestricted) upward search.
  class Workspace {
   public:
    explicit Workspace(const Phast& engine, size_t restricted_size)
        : full(engine.MakeWorkspace(1)),
          labels(restricted_size, kInfWeight) {}

   private:
    friend class RPhast;
    Phast::Workspace full;
    AlignedVector<Weight> labels;  // indexed by restricted position
  };

  [[nodiscard]] Workspace MakeWorkspace() const {
    return Workspace(engine_, order_.size());
  }

  /// Per-batch state for k-wide restricted sweeps: a k-tree full workspace
  /// for the batched upward search plus k-strided restricted labels
  /// (labels[slot * k + tree], same stride convention as the full engine).
  class BatchWorkspace {
   public:
    BatchWorkspace(const Phast& engine, size_t restricted_size, uint32_t k)
        : k_(k),
          full(engine.MakeWorkspace(k)),
          labels(restricted_size * k, kInfWeight) {}

    [[nodiscard]] uint32_t NumTrees() const { return k_; }

   private:
    friend class RPhast;
    uint32_t k_;
    Phast::Workspace full;
    AlignedVector<Weight> labels;  // restricted position * k + tree
  };

  [[nodiscard]] BatchWorkspace MakeBatchWorkspace(uint32_t k) const {
    return BatchWorkspace(engine_, order_.size(), k);
  }

  /// Computes distances from `source` to every vertex of the restricted
  /// subgraph (in particular to all targets).
  void ComputeTree(VertexId source, Workspace& ws) const;

  /// Computes sources.size() trees in one pass: a batched upward search
  /// followed by a single k-strided sweep over the restricted arrays. The
  /// restricted topology is a valid SweepArgs graph of its own, so the
  /// engine's SIMD kernels run unchanged here (SSE for k % 4 == 0, AVX2
  /// for k % 8 == 0); results are bit-identical to per-source ComputeTree.
  /// sources.size() must equal ws.NumTrees().
  void ComputeTrees(std::span<const VertexId> sources,
                    BatchWorkspace& ws) const;

  /// Distance to targets[target_index] after ComputeTree.
  [[nodiscard]] Weight DistanceToTarget(const Workspace& ws,
                                        size_t target_index) const {
    return ws.labels[target_slot_[target_index]];
  }

  /// Distance from sources[tree] to targets[target_index] after ComputeTrees.
  [[nodiscard]] Weight DistanceToTarget(const BatchWorkspace& ws,
                                        size_t target_index,
                                        uint32_t tree) const {
    return ws.labels[static_cast<size_t>(target_slot_[target_index]) * ws.k_ +
                     tree];
  }

  [[nodiscard]] size_t NumTargets() const { return target_slot_.size(); }

  /// Size of the restricted sweep — the quantity RPHAST exists to shrink.
  [[nodiscard]] size_t RestrictedVertices() const { return order_.size(); }
  [[nodiscard]] size_t RestrictedArcs() const { return arcs_.size(); }

  /// One compacted downward arc of the restricted subgraph. Public only so
  /// the implementation can static_assert layout compatibility with DownArc
  /// (the k-wide sweep feeds these arrays to the shared SIMD kernels).
  struct RestrictedArc {
    uint32_t tail;  // restricted position of the tail
    Weight weight;
  };

 private:
  const Phast& engine_;
  /// Restricted position -> label-space vertex id (ascending sweep order).
  std::vector<VertexId> order_;
  /// Label-space vertex id -> restricted position (kNotRestricted if cut).
  std::vector<uint32_t> position_of_;
  std::vector<ArcId> first_;
  std::vector<RestrictedArc> arcs_;
  std::vector<uint32_t> target_slot_;  // target index -> restricted position

  static constexpr uint32_t kNotRestricted =
      std::numeric_limits<uint32_t>::max();
};

}  // namespace phast
