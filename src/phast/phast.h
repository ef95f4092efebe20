#pragma once

#include <span>
#include <vector>

#include "ch/ch_data.h"
#include "graph/reorder.h"
#include "graph/types.h"
#include "obs/sweep_profile.h"
#include "phast/kernels.h"
#include "phast/options.h"
#include "util/aligned.h"
#include "util/bit_vector.h"

namespace phast {

/// Every array a Phast engine holds after construction, in one movable
/// bundle. This is the serialization surface of the serving subsystem
/// (src/server/snapshot.*): a snapshot persists the *prepared* engine —
/// permutations, reordered G↓/G↑ CSR, level boundaries — so a server
/// process restarts with zero re-preprocessing. Phast::ExportLayout()
/// produces one; the Phast(PhastLayout) constructor validates and adopts
/// one (rejecting structurally inconsistent data with InputError).
struct PhastLayout {
  PhastOptions options;
  VertexId num_vertices = 0;
  uint32_t num_levels = 0;
  Permutation perm;      // original id -> label space
  Permutation inv_perm;  // label space -> original id
  /// Sweep position -> label-space id; empty for kLevelReordered (the
  /// sweep is then a pure ascending scan).
  std::vector<VertexId> order;
  std::vector<ArcId> down_first;   // n+1, keyed by sweep position
  std::vector<DownArc> down_arcs;  // grouped by sweep position
  std::vector<ArcId> up_first;     // n+1, label space
  std::vector<Arc> up_arcs;
  /// Level-group boundaries; empty for kRankDescending.
  std::vector<VertexId> level_begin;
};

/// Non-owning view of a prepared layout: the same arrays as PhastLayout but
/// as read-only spans over memory the caller keeps alive (typically a
/// PHSNAP02 file mapped by fabric::MappedSnapshot). Adopting a view copies
/// nothing — the engine serves straight out of the mapping, so N server
/// processes over one snapshot share one page-cache copy of the arrays.
struct PhastLayoutView {
  PhastOptions options;
  VertexId num_vertices = 0;
  uint32_t num_levels = 0;
  std::span<const VertexId> perm;      // original id -> label space
  std::span<const VertexId> inv_perm;  // label space -> original id
  /// Sweep position -> label-space id; empty for kLevelReordered.
  std::span<const VertexId> order;
  std::span<const ArcId> down_first;   // n+1, keyed by sweep position
  std::span<const DownArc> down_arcs;  // grouped by sweep position
  std::span<const ArcId> up_first;     // n+1, label space
  std::span<const Arc> up_arcs;
  std::span<const VertexId> level_begin;
};

/// How much of an adopted layout the Phast constructor re-checks.
///
/// kFull reads every array once (permutation bijectivity, CSR monotonicity,
/// arc endpoint ranges, level partition) — the right choice when the bytes
/// came from an unauthenticated stream. kShallow checks only sizes and
/// counts, touching no array *content*: it exists for the mmap cold-start
/// path, where reading the arrays would fault the whole file in and defeat
/// the O(TOC) start (integrity is then the snapshot checksums' job, on
/// whatever schedule the --verify knob chose).
enum class LayoutValidation { kFull, kShallow };

/// The PHAST engine (paper §III–§V): answers non-negative single-source
/// shortest path queries with one upward CH search plus one linear sweep
/// over the downward graph.
///
/// The engine itself is immutable after construction and can be shared by
/// any number of threads; all per-query state lives in a Workspace, so the
/// "one tree per core" parallelization (§V) is simply one workspace per
/// thread.
class Phast {
 public:
  using Options = PhastOptions;

  /// Per-query state: k distance labels per vertex (laid out k-strided as
  /// in §IV-B), visit marks for implicit initialization, optional parent
  /// pointers, and the upward-search frontier.
  class Workspace {
   public:
    [[nodiscard]] uint32_t NumTrees() const { return k_; }
    [[nodiscard]] bool WantsParents() const { return want_parents_; }

    /// Label-space vertices touched by the latest batch's upward search
    /// (the union over the k sources; implicit-init engines only). The
    /// paper quotes ~500 per source on Europe (§II-B).
    [[nodiscard]] size_t UpwardSearchSpace() const { return num_visited_; }

    /// Per-level profile of the latest batch; populated only when the
    /// engine was built with Options::collect_profile (empty otherwise).
    [[nodiscard]] const obs::SweepProfile& Profile() const { return profile_; }

    /// Wall time of the latest batch's two phases. Always recorded (two
    /// clock reads per batch), so the server can export phase histograms
    /// without enabling full profiling.
    [[nodiscard]] uint64_t LastUpwardNanos() const { return last_upward_ns_; }
    [[nodiscard]] uint64_t LastSweepNanos() const { return last_sweep_ns_; }

   private:
    friend class Phast;
    Workspace(VertexId n, uint32_t k, bool want_parents, bool implicit_init,
              bool collect_profile);

    uint32_t k_;
    bool want_parents_;
    bool implicit_init_;
    bool collect_profile_;
    AlignedVector<Weight> labels_;    // n*k, k-strided
    std::vector<VertexId> parents_;   // n*k or empty
    BitVector marks_;                 // visit marks (implicit init only)
    /// Marked vertices of the current batch in [0, num_visited_); sized
    /// n + 1 (implicit init only) so the search appends without a branch.
    std::vector<VertexId> visited_;
    size_t num_visited_ = 0;
    /// Upward-search frontier: bit p set = sweep position p reached and not
    /// yet settled. All-zero between searches (each search drains it).
    std::vector<uint64_t> reached_;
    /// Bit w set = reached_ word w may be non-zero; lets the downward scan
    /// skip empty stretches 4096 positions at a time.
    std::vector<uint64_t> reached_words_;
    obs::SweepProfile profile_;       // latest batch (collect_profile only)
    uint64_t last_upward_ns_ = 0;
    uint64_t last_sweep_ns_ = 0;
  };

  Phast(const CHData& ch, const Options& options = {});

  /// Adopts a previously exported layout (snapshot loading). Validates the
  /// structural invariants — permutations are mutual inverses, CSR offset
  /// arrays are monotone and sized n+1, arc endpoints are in range, level
  /// boundaries partition [0, n) — and throws InputError otherwise, so a
  /// corrupted-but-checksum-consistent snapshot cannot build a broken
  /// engine.
  explicit Phast(PhastLayout layout);

  /// Adopts a layout *by reference*: the engine's arrays alias `view`'s
  /// spans, whose backing memory (typically an mmap-ed PHSNAP02 snapshot)
  /// must stay mapped and unmodified for the engine's lifetime. kFull runs
  /// the same structural validation as the owning constructor; kShallow
  /// checks only sizes, reading no array content — the O(TOC) cold-start
  /// path (see LayoutValidation).
  Phast(const PhastLayoutView& view, LayoutValidation validation);

  /// Copies the engine's arrays into a serializable bundle (the inverse of
  /// the PhastLayout constructor).
  [[nodiscard]] PhastLayout ExportLayout() const;

  /// The engine's arrays may alias external memory (view constructor) or
  /// live in storage_ with span members pointing into it (owning
  /// constructors) — copying would silently leave the copy's spans dangling
  /// into the original, so copies are deleted. Moves are safe: moving the
  /// storage vectors preserves their heap allocations, so spans bound to
  /// them stay valid.
  Phast(const Phast&) = delete;
  Phast& operator=(const Phast&) = delete;
  Phast(Phast&&) = default;
  Phast& operator=(Phast&&) = default;

  /// ExportLayout with the arc weights replaced by those of `customized` —
  /// the weight re-export half of metric customization (ch::CustomizeWeights
  /// recomputes CHData weights; this projects them into the engine's sweep
  /// layout). The hierarchy must have the engine's exact topology: same
  /// vertex count, same up/down arc sets in the same order (which
  /// customization guarantees, since it rewrites weights in place). The
  /// permutations, CSR offsets, arc targets, and level boundaries of the
  /// result are byte-identical to ExportLayout(); only the weight fields
  /// differ. Topology mismatches throw InputError.
  [[nodiscard]] PhastLayout ExportReweightedLayout(const CHData& customized)
      const;

  [[nodiscard]] Workspace MakeWorkspace(uint32_t num_trees = 1,
                                        bool want_parents = false) const;

  /// One shortest path tree from `source` (original vertex id). Workspace
  /// must have been created with num_trees == 1.
  void ComputeTree(VertexId source, Workspace& ws) const;

  /// k trees in one sweep (§IV-B); sources.size() must equal
  /// ws.NumTrees(). The sweep kernel is chosen by Options::simd.
  void ComputeTrees(std::span<const VertexId> sources, Workspace& ws) const;

  /// Single-batch computation with the sweep parallelized *within* each
  /// level across OpenMP threads (§V; the scheme GPHAST maps to GPU
  /// kernels). Requires a level-ordered sweep (order != kRankDescending).
  void ComputeTreesParallel(std::span<const VertexId> sources,
                            Workspace& ws) const;

  /// Phase one only, for external sweep executors (the GPU simulator):
  /// runs the batch's upward search into the workspace and leaves the sweep
  /// to the caller (via MakeSweepArgs).
  void RunUpwardPhase(std::span<const VertexId> sources, Workspace& ws) const {
    PrepareBatch(sources, ws);
  }

  /// Clears visit marks after an externally executed sweep.
  void FinishExternalSweep(Workspace& ws) const { FinishBatch(ws); }

  /// Distance from the batch's tree `tree` source to original vertex v.
  [[nodiscard]] Weight Distance(const Workspace& ws, VertexId v,
                                uint32_t tree = 0) const {
    return ws.labels_[static_cast<size_t>(perm_[v]) * ws.k_ + tree];
  }

  /// Parent of v in the shortest path tree *in G+* (§VII-A): may be the
  /// far endpoint of a shortcut. kInvalidVertex for the source and for
  /// unreached vertices. Workspace must have want_parents.
  [[nodiscard]] VertexId ParentInGPlus(const Workspace& ws, VertexId v,
                                       uint32_t tree = 0) const;

  // --- topology accessors -------------------------------------------------

  [[nodiscard]] VertexId NumVertices() const { return n_; }
  [[nodiscard]] uint32_t NumLevels() const { return num_levels_; }

  /// Sweep positions where each level group starts; size NumLevels()+1,
  /// groups ordered by descending level. Empty for kRankDescending.
  [[nodiscard]] std::span<const VertexId> LevelBoundaries() const {
    return level_begin_;
  }

  [[nodiscard]] VertexId LabelIndexOf(VertexId original) const {
    return perm_[original];
  }
  [[nodiscard]] VertexId OriginalOf(VertexId label_index) const {
    return inv_perm_[label_index];
  }

  [[nodiscard]] const Options& GetOptions() const { return options_; }

  /// Which sweep kernel ComputeTrees would run for batches of k trees.
  [[nodiscard]] const char* KernelNameFor(uint32_t k) const {
    return SweepKernelName(options_.simd, k);
  }

  /// Raw sweep topology with no workspace bound: labels, marks and parents
  /// are null and k is 1 (for RPHAST, the POI cutoff and the GPU
  /// simulator). Pointers remain valid for the engine's lifetime.
  [[nodiscard]] SweepArgs SweepTopology() const;

  /// SweepTopology() bound to a workspace's labels, marks and parents (for
  /// external sweep executors and the lower-bound benchmark).
  [[nodiscard]] SweepArgs MakeSweepArgs(Workspace& ws) const;

  /// Sweep position of a label-space vertex: the inverse of
  /// SweepArgs::order (the identity for the reordered layout).
  [[nodiscard]] VertexId SweepPositionOf(VertexId label) const {
    return position_of_.empty() ? label : position_of_[label];
  }

  /// Raw per-label views in label space (for applications that post-process
  /// whole trees without per-vertex accessor overhead).
  [[nodiscard]] std::span<const Weight> RawLabels(const Workspace& ws) const {
    return ws.labels_;
  }

  /// Label-space vertices touched by the current batch's upward search
  /// (valid between RunUpwardPhase and FinishExternalSweep; RPHAST gathers
  /// upward labels from it).
  [[nodiscard]] std::span<const VertexId> VisitedLabelVertices(
      const Workspace& ws) const {
    return {ws.visited_.data(), ws.num_visited_};
  }
  [[nodiscard]] std::span<const VertexId> RawParents(
      const Workspace& ws) const {
    return ws.parents_;
  }

 private:
  void PrepareBatch(std::span<const VertexId> sources, Workspace& ws) const;
  void FinishBatch(Workspace& ws) const;
  /// Sweep run level group by level group with a per-level timer, filling
  /// ws.profile_ (the Options::collect_profile path).
  void ProfiledSweep(SweepKernelFn kernel, Workspace& ws) const;

  /// Points the span members at storage_'s vectors. Must be re-run after
  /// any move of storage_ (the constructors' job; Phast itself is movable
  /// afterwards because vector moves keep the heap allocations alive).
  void BindToStorage();
  /// Checks the structural invariants of whatever the spans currently
  /// reference (shared by the owning and kFull-view constructors).
  void ValidateFull() const;
  /// Size/count consistency only; reads no array content.
  void ValidateShallow() const;
  /// Fills position_of_ from order_ (nothing to do for reordered engines).
  void BuildPositionIndex();
  /// Throws unless every G↑ arc ends at a strictly earlier sweep position —
  /// the topological order the upward search depends on.
  void RequireUpwardArcsClimb() const;
  /// Original id -> sweep position: perm_ itself for the reordered layout,
  /// otherwise position_of_ (label space is the identity there).
  [[nodiscard]] std::span<const VertexId> PositionByOriginalId() const {
    return position_of_.empty() ? perm_
                                : std::span<const VertexId>(position_of_);
  }

  Options options_;
  VertexId n_ = 0;
  uint32_t num_levels_ = 0;

  /// Owned backing for the span members below. The view constructor leaves
  /// it empty and the spans alias caller-owned memory (an mmap-ed
  /// snapshot); the owning constructors fill it and bind the spans to it.
  PhastLayout storage_;

  std::span<const VertexId> perm_;      // original id -> label space
  std::span<const VertexId> inv_perm_;  // label space -> original id

  /// Sweep position -> label-space id; empty when they coincide (the
  /// reordered layout, where the sweep is a pure ascending scan).
  std::span<const VertexId> order_;

  // Downward graph: incoming arcs grouped by sweep position (§IV-A).
  std::span<const ArcId> down_first_;
  std::span<const DownArc> down_arcs_;

  // Upward graph: outgoing arcs in label space, for phase one.
  std::span<const ArcId> up_first_;
  std::span<const Arc> up_arcs_;

  std::span<const VertexId> level_begin_;

  /// Label-space id -> sweep position, the inverse of order_ (built once by
  /// every constructor); empty when they coincide. The upward search keys
  /// its frontier by sweep position.
  std::vector<VertexId> position_of_;
};

}  // namespace phast
