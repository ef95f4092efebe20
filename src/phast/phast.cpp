#include "phast/phast.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "obs/trace.h"
#include "util/error.h"
#include "util/omp_env.h"
#include "util/timer.h"

namespace phast {
namespace {

/// Elapsed nanoseconds of a Timer as the integer the profile structs carry.
uint64_t ElapsedNanos(const Timer& timer) {
  return static_cast<uint64_t>(timer.ElapsedSec() * 1e9);
}

/// Sweep sequence (position -> original id) for the requested order.
std::vector<VertexId> BuildSweepSequence(const CHData& ch, SweepOrder order) {
  std::vector<VertexId> seq(ch.num_vertices);
  std::iota(seq.begin(), seq.end(), VertexId{0});
  if (order == SweepOrder::kRankDescending) {
    std::sort(seq.begin(), seq.end(), [&ch](VertexId a, VertexId b) {
      return ch.rank[a] > ch.rank[b];
    });
  } else {
    // Descending level; stable keeps ascending input id within a level
    // (callers feed a DFS-relabeled graph to get the paper's tie-break).
    std::stable_sort(seq.begin(), seq.end(), [&ch](VertexId a, VertexId b) {
      return ch.level[a] > ch.level[b];
    });
  }
  return seq;
}

}  // namespace

Phast::Workspace::Workspace(VertexId n, uint32_t k, bool want_parents,
                            bool implicit_init, bool collect_profile)
    : k_(k),
      want_parents_(want_parents),
      implicit_init_(implicit_init),
      collect_profile_(collect_profile),
      labels_(static_cast<size_t>(n) * k, kInfWeight),
      reached_((static_cast<size_t>(n) + 63) / 64, 0),
      reached_words_((reached_.size() + 63) / 64, 0) {
  if (want_parents_) {
    parents_.assign(static_cast<size_t>(n) * k, kInvalidVertex);
  }
  if (implicit_init_) {
    marks_.Resize(n);
    visited_.assign(static_cast<size_t>(n) + 1, 0);
  }
}

Phast::Phast(const CHData& ch, const Options& options)
    : options_(options), n_(ch.num_vertices), num_levels_(ch.NumLevels()) {
  Require(n_ > 0, "PHAST needs a non-empty hierarchy");
  Require(ch.rank.size() == n_ && ch.level.size() == n_,
          "CHData arrays have inconsistent sizes");

  const std::vector<VertexId> sequence = BuildSweepSequence(ch, options_.order);

  if (options_.order == SweepOrder::kLevelReordered) {
    // Physically relabel: label space == sweep position space.
    storage_.perm.assign(n_, 0);
    for (VertexId pos = 0; pos < n_; ++pos) storage_.perm[sequence[pos]] = pos;
    storage_.inv_perm = sequence;
    storage_.order.clear();  // identity
  } else {
    storage_.perm = IdentityPermutation(n_);
    storage_.inv_perm = storage_.perm;
    storage_.order = sequence;
  }
  const Permutation& perm = storage_.perm;

  // Downward arcs are grouped by the sweep position of their head. perm
  // and order are final here, so bind them early and derive that mapping
  // once.
  perm_ = storage_.perm;
  order_ = storage_.order;
  BuildPositionIndex();
  const std::span<const VertexId> position_of = PositionByOriginalId();

  // Downward graph: incoming arcs of each head, grouped by sweep position,
  // tails stored in label space (§IV-A data layout).
  std::vector<ArcId>& down_first = storage_.down_first;
  down_first.assign(static_cast<size_t>(n_) + 1, 0);
  for (const CHArc& a : ch.down_arcs) ++down_first[position_of[a.head] + 1];
  for (size_t i = 1; i <= n_; ++i) down_first[i] += down_first[i - 1];
  storage_.down_arcs.resize(ch.down_arcs.size());
  {
    std::vector<ArcId> cursor(down_first.begin(), down_first.end() - 1);
    for (const CHArc& a : ch.down_arcs) {
      storage_.down_arcs[cursor[position_of[a.head]]++] =
          DownArc{perm[a.tail], a.weight};
    }
  }

  // Upward graph in label space, for the forward CH search.
  std::vector<ArcId>& up_first = storage_.up_first;
  up_first.assign(static_cast<size_t>(n_) + 1, 0);
  for (const CHArc& a : ch.up_arcs) ++up_first[perm[a.tail] + 1];
  for (size_t i = 1; i <= n_; ++i) up_first[i] += up_first[i - 1];
  storage_.up_arcs.resize(ch.up_arcs.size());
  {
    std::vector<ArcId> cursor(up_first.begin(), up_first.end() - 1);
    for (const CHArc& a : ch.up_arcs) {
      storage_.up_arcs[cursor[perm[a.tail]]++] = Arc{perm[a.head], a.weight};
    }
  }

  // Level group boundaries in sweep positions (levels descending).
  if (options_.order != SweepOrder::kRankDescending) {
    storage_.level_begin.assign(static_cast<size_t>(num_levels_) + 1, 0);
    for (VertexId pos = 0; pos < n_; ++pos) {
      // Group index of level L is (num_levels_ - 1 - L).
      const uint32_t group = num_levels_ - 1 - ch.level[sequence[pos]];
      ++storage_.level_begin[group + 1];
    }
    for (size_t i = 1; i <= num_levels_; ++i) {
      storage_.level_begin[i] += storage_.level_begin[i - 1];
    }
  }
  BindToStorage();
  RequireUpwardArcsClimb();
}

void Phast::BindToStorage() {
  perm_ = storage_.perm;
  inv_perm_ = storage_.inv_perm;
  order_ = storage_.order;
  down_first_ = storage_.down_first;
  down_arcs_ = storage_.down_arcs;
  up_first_ = storage_.up_first;
  up_arcs_ = storage_.up_arcs;
  level_begin_ = storage_.level_begin;
}

namespace {

/// Shared validation for a CSR offset array: size n+1, monotone, sentinel
/// equal to the arc count.
void RequireCsrOffsets(std::span<const ArcId> first, VertexId n,
                       size_t num_arcs, const char* what) {
  Require(first.size() == static_cast<size_t>(n) + 1,
          std::string(what) + " offset array must have n+1 entries");
  Require(first.front() == 0 && first.back() == num_arcs,
          std::string(what) + " offset array must start at 0 and end at the "
                              "arc count");
  for (size_t i = 0; i + 1 < first.size(); ++i) {
    Require(first[i] <= first[i + 1],
            std::string(what) + " offset array must be non-decreasing");
  }
}

}  // namespace

Phast::Phast(PhastLayout layout)
    : options_(layout.options),
      n_(layout.num_vertices),
      num_levels_(layout.num_levels),
      storage_(std::move(layout)) {
  BindToStorage();
  ValidateShallow();
  BuildPositionIndex();
  ValidateFull();
}

Phast::Phast(const PhastLayoutView& view, LayoutValidation validation)
    : options_(view.options),
      n_(view.num_vertices),
      num_levels_(view.num_levels),
      perm_(view.perm),
      inv_perm_(view.inv_perm),
      order_(view.order),
      down_first_(view.down_first),
      down_arcs_(view.down_arcs),
      up_first_(view.up_first),
      up_arcs_(view.up_arcs),
      level_begin_(view.level_begin) {
  ValidateShallow();
  BuildPositionIndex();
  if (validation == LayoutValidation::kFull) ValidateFull();
}

void Phast::BuildPositionIndex() {
  if (order_.empty()) return;
  position_of_.assign(n_, 0);
  for (VertexId pos = 0; pos < n_; ++pos) {
    Require(order_[pos] < n_, "PHAST layout order entry out of range");
    position_of_[order_[pos]] = pos;
  }
}

void Phast::RequireUpwardArcsClimb() const {
  for (VertexId v = 0; v < n_; ++v) {
    const VertexId from = SweepPositionOf(v);
    for (ArcId i = up_first_[v]; i < up_first_[v + 1]; ++i) {
      Require(SweepPositionOf(up_arcs_[i].other) < from,
              "PHAST layout upward arc must end at a strictly earlier sweep "
              "position (a higher CH level or rank)");
    }
  }
}

void Phast::ValidateShallow() const {
  Require(n_ > 0, "PHAST layout needs at least one vertex");
  Require(perm_.size() == n_, "PHAST layout perm has wrong size");
  Require(inv_perm_.size() == n_, "PHAST layout inv_perm has wrong size");
  if (options_.order == SweepOrder::kLevelReordered) {
    Require(order_.empty(),
            "PHAST layout: reordered engines sweep in label order and must "
            "not carry an order array");
  } else {
    Require(order_.size() == n_, "PHAST layout order has wrong size");
  }
  Require(down_first_.size() == static_cast<size_t>(n_) + 1,
          "PHAST layout G-down offset array must have n+1 entries");
  Require(up_first_.size() == static_cast<size_t>(n_) + 1,
          "PHAST layout G-up offset array must have n+1 entries");
  if (options_.order == SweepOrder::kRankDescending) {
    Require(level_begin_.empty(),
            "PHAST layout: rank-descending engines have no level groups");
  } else {
    Require(level_begin_.size() == static_cast<size_t>(num_levels_) + 1,
            "PHAST layout level boundaries must have num_levels+1 entries");
  }
}

void Phast::ValidateFull() const {
  Require(IsPermutation(perm_),
          "PHAST layout perm is not a permutation of [0, n)");
  for (VertexId v = 0; v < n_; ++v) {
    Require(inv_perm_[perm_[v]] == v,
            "PHAST layout perm/inv_perm are not mutual inverses");
  }
  if (options_.order != SweepOrder::kLevelReordered) {
    Require(IsPermutation(order_),
            "PHAST layout order is not a permutation of [0, n)");
  }
  RequireCsrOffsets(down_first_, n_, down_arcs_.size(), "PHAST layout G-down");
  RequireCsrOffsets(up_first_, n_, up_arcs_.size(), "PHAST layout G-up");
  for (const DownArc& a : down_arcs_) {
    Require(a.tail < n_, "PHAST layout downward arc tail out of range");
  }
  for (const Arc& a : up_arcs_) {
    Require(a.other < n_, "PHAST layout upward arc head out of range");
  }
  RequireUpwardArcsClimb();
  if (options_.order != SweepOrder::kRankDescending) {
    Require(level_begin_.front() == 0 && level_begin_.back() == n_,
            "PHAST layout level boundaries must span [0, n)");
    for (size_t i = 0; i + 1 < level_begin_.size(); ++i) {
      Require(level_begin_[i] <= level_begin_[i + 1],
              "PHAST layout level boundaries must be non-decreasing");
    }
  }
}

PhastLayout Phast::ExportLayout() const {
  PhastLayout layout;
  layout.options = options_;
  layout.num_vertices = n_;
  layout.num_levels = num_levels_;
  layout.perm.assign(perm_.begin(), perm_.end());
  layout.inv_perm.assign(inv_perm_.begin(), inv_perm_.end());
  layout.order.assign(order_.begin(), order_.end());
  layout.down_first.assign(down_first_.begin(), down_first_.end());
  layout.down_arcs.assign(down_arcs_.begin(), down_arcs_.end());
  layout.up_first.assign(up_first_.begin(), up_first_.end());
  layout.up_arcs.assign(up_arcs_.begin(), up_arcs_.end());
  layout.level_begin.assign(level_begin_.begin(), level_begin_.end());
  return layout;
}

PhastLayout Phast::ExportReweightedLayout(const CHData& customized) const {
  PHAST_SPAN("phast.export_reweighted");
  Require(customized.num_vertices == n_,
          "reweighted export: hierarchy vertex count differs from the engine");
  Require(customized.down_arcs.size() == down_arcs_.size() &&
              customized.up_arcs.size() == up_arcs_.size(),
          "reweighted export: hierarchy arc counts differ from the engine");

  PhastLayout layout = ExportLayout();

  const std::span<const VertexId> positions = PositionByOriginalId();

  // Replay the constructor's cursor fills over the customized arc lists,
  // writing only the weight fields. Each slot's stored endpoint must match
  // the arc being replayed — any divergence means the hierarchy's topology
  // is not the one this engine was built from.
  {
    std::vector<ArcId> cursor(down_first_.begin(), down_first_.end() - 1);
    for (const CHArc& a : customized.down_arcs) {
      Require(a.head < n_ && a.tail < n_,
              "reweighted export: downward arc endpoint out of range");
      const ArcId slot = cursor[positions[a.head]]++;
      Require(layout.down_arcs[slot].tail == perm_[a.tail],
              "reweighted export: downward arc topology differs from the "
              "engine");
      layout.down_arcs[slot].weight = a.weight;
    }
  }
  {
    std::vector<ArcId> cursor(up_first_.begin(), up_first_.end() - 1);
    for (const CHArc& a : customized.up_arcs) {
      Require(a.tail < n_ && a.head < n_,
              "reweighted export: upward arc endpoint out of range");
      const ArcId slot = cursor[perm_[a.tail]]++;
      Require(layout.up_arcs[slot].other == perm_[a.head],
              "reweighted export: upward arc topology differs from the "
              "engine");
      layout.up_arcs[slot].weight = a.weight;
    }
  }
  return layout;
}

Phast::Workspace Phast::MakeWorkspace(uint32_t num_trees,
                                      bool want_parents) const {
  Require(num_trees >= 1, "need at least one tree per sweep");
  Require(!options_.collect_profile || !level_begin_.empty(),
          "sweep profiling requires a level-ordered engine");
  return Workspace(n_, num_trees, want_parents, options_.implicit_init,
                   options_.collect_profile);
}

SweepArgs Phast::SweepTopology() const {
  SweepArgs args;
  args.down_first = down_first_.data();
  args.down_arcs = down_arcs_.data();
  args.order = order_.empty() ? nullptr : order_.data();
  args.num_vertices = n_;
  return args;
}

SweepArgs Phast::MakeSweepArgs(Workspace& ws) const {
  SweepArgs args = SweepTopology();
  args.k = ws.k_;
  args.labels = ws.labels_.data();
  args.marks = ws.implicit_init_ ? ws.marks_.Words() : nullptr;
  args.parents = ws.want_parents_ ? ws.parents_.data() : nullptr;
  return args;
}

void Phast::PrepareBatch(std::span<const VertexId> sources,
                         Workspace& ws) const {
  Require(sources.size() == ws.k_,
          "source count must equal the workspace tree count");
  for (const VertexId s : sources) {
    Require(s < n_, "PHAST source out of range");
  }
  if (!ws.implicit_init_) {
    std::fill(ws.labels_.begin(), ws.labels_.end(), kInfWeight);
    if (ws.want_parents_) {
      std::fill(ws.parents_.begin(), ws.parents_.end(), kInvalidVertex);
    }
  }
  if (ws.collect_profile_) {
    ws.profile_ = obs::SweepProfile{};
    ws.profile_.k = ws.k_;
  }
  UpwardArgs args;
  args.up_first = up_first_.data();
  args.up_arcs = up_arcs_.data();
  args.perm = perm_.data();
  args.order = order_.empty() ? nullptr : order_.data();
  args.position_of = position_of_.empty() ? nullptr : position_of_.data();
  args.k = ws.k_;
  args.labels = ws.labels_.data();
  args.parents = ws.want_parents_ ? ws.parents_.data() : nullptr;
  args.marks = ws.implicit_init_ ? ws.marks_.Words() : nullptr;
  args.visited = ws.implicit_init_ ? ws.visited_.data() : nullptr;
  args.reached = ws.reached_.data();
  args.reached_words = ws.reached_words_.data();
  args.count_work = ws.collect_profile_;
  const UpwardResult result = SelectUpwardKernel(
      options_.simd, ws.k_, ws.want_parents_, ws.implicit_init_)(args, sources);
  ws.num_visited_ = result.num_visited;
  if (ws.collect_profile_) {
    ws.profile_.upward.queue_pops = result.settled;
    ws.profile_.upward.arcs_relaxed = result.arcs_scanned;
  }
}

void Phast::FinishBatch(Workspace& ws) const {
  // Clear visit marks for the next batch (§IV-C: "after scanning v we
  // unmark the vertex"); clearing from the recorded visit list keeps the
  // sweep kernels read-only on the mark words, which lets the per-level
  // parallel sweep share them without atomics.
  if (ws.implicit_init_) {
    for (const VertexId v : VisitedLabelVertices(ws)) ws.marks_.Clear(v);
  }
}

void Phast::ComputeTree(VertexId source, Workspace& ws) const {
  ComputeTrees({&source, 1}, ws);
}

void Phast::ComputeTrees(std::span<const VertexId> sources,
                         Workspace& ws) const {
  PHAST_SPAN_ARG("phast.batch", ws.k_);
  Timer phase;
  {
    PHAST_SPAN("phast.upward");
    PrepareBatch(sources, ws);
  }
  ws.last_upward_ns_ = ElapsedNanos(phase);
  const SweepKernelFn kernel = SelectSweepKernel(
      options_.simd, ws.k_, ws.want_parents_, ws.implicit_init_);
  phase.Reset();
  if (ws.collect_profile_) {
    ProfiledSweep(kernel, ws);
  } else {
    PHAST_SPAN("phast.sweep");
    kernel(MakeSweepArgs(ws), 0, n_);
  }
  ws.last_sweep_ns_ = ElapsedNanos(phase);
  if (ws.collect_profile_) {
    ws.profile_.upward.nanos = ws.last_upward_ns_;
    ws.profile_.sweep_nanos = ws.last_sweep_ns_;
  }
  FinishBatch(ws);
}

void Phast::ProfiledSweep(SweepKernelFn kernel, Workspace& ws) const {
  // MakeWorkspace already rejected profiling on rank-ordered engines.
  const SweepArgs args = MakeSweepArgs(ws);
  ws.profile_.levels.reserve(num_levels_);
  for (size_t group = 0; group < num_levels_; ++group) {
    const VertexId begin = level_begin_[group];
    const VertexId end = level_begin_[group + 1];
    // Group g holds CH level num_levels_ - 1 - g (the sweep descends).
    const auto level = static_cast<uint32_t>(num_levels_ - 1 - group);
    PHAST_SPAN_ARG("sweep.level", level);
    const Timer timer;
    kernel(args, begin, end);
    obs::LevelProfile profile;
    profile.level = level;
    profile.vertices = end - begin;
    // Arc ranges are keyed by sweep position, so a level group's scanned
    // arc count is one subtraction on the CSR offset column.
    profile.arcs = down_first_[end] - down_first_[begin];
    profile.nanos = ElapsedNanos(timer);
    profile.bytes = obs::ModelSweepBytes(profile.vertices, profile.arcs,
                                         ws.k_, ws.implicit_init_);
    ws.profile_.levels.push_back(profile);
  }
}

void Phast::ComputeTreesParallel(std::span<const VertexId> sources,
                                 Workspace& ws) const {
  Require(!level_begin_.empty(),
          "per-level parallel sweep requires a level-ordered engine");
  PHAST_SPAN_ARG("phast.batch_parallel", ws.k_);
  Timer timer;
  {
    PHAST_SPAN("phast.upward");
    PrepareBatch(sources, ws);
  }
  ws.last_upward_ns_ = ElapsedNanos(timer);
  const SweepKernelFn kernel = SelectSweepKernel(
      options_.simd, ws.k_, ws.want_parents_, ws.implicit_init_);
  const SweepArgs args = MakeSweepArgs(ws);

  // Levels with fewer vertices than this run serially; forking threads for
  // the tiny top levels costs more than it saves.
  constexpr VertexId kParallelThreshold = 512;

  timer.Reset();
  if (ws.collect_profile_) ws.profile_.levels.reserve(num_levels_);
  for (size_t group = 0; group < num_levels_; ++group) {
    const VertexId begin = level_begin_[group];
    const VertexId end = level_begin_[group + 1];
    const Timer level_timer;
    if (end - begin < kParallelThreshold) {
      kernel(args, begin, end);
    } else {
      // The kernel only reads shared sweep state (labels of lower levels
      // are finalized by the per-level barrier; mark words are read-only
      // during the sweep), so the explicit sharing list is all read-only.
#pragma omp parallel default(none) shared(kernel, args, begin, end)
      {
        const uint32_t threads = static_cast<uint32_t>(TeamSize());
        const uint32_t me = static_cast<uint32_t>(CurrentThread());
        const VertexId span = end - begin;
        const VertexId chunk = (span + threads - 1) / threads;
        const VertexId my_begin = begin + std::min<VertexId>(span, me * chunk);
        const VertexId my_end =
            begin + std::min<VertexId>(span, (me + 1) * chunk);
        if (my_begin < my_end) kernel(args, my_begin, my_end);
      }
    }
    if (ws.collect_profile_) {
      obs::LevelProfile profile;
      profile.level = static_cast<uint32_t>(num_levels_ - 1 - group);
      profile.vertices = end - begin;
      profile.arcs = down_first_[end] - down_first_[begin];
      profile.nanos = ElapsedNanos(level_timer);
      profile.bytes = obs::ModelSweepBytes(profile.vertices, profile.arcs,
                                           ws.k_, ws.implicit_init_);
      ws.profile_.levels.push_back(profile);
    }
  }
  ws.last_sweep_ns_ = ElapsedNanos(timer);
  if (ws.collect_profile_) {
    ws.profile_.upward.nanos = ws.last_upward_ns_;
    ws.profile_.sweep_nanos = ws.last_sweep_ns_;
  }
  FinishBatch(ws);
}

VertexId Phast::ParentInGPlus(const Workspace& ws, VertexId v,
                              uint32_t tree) const {
  Require(ws.want_parents_, "workspace was created without parent tracking");
  const size_t slot = static_cast<size_t>(perm_[v]) * ws.k_ + tree;
  if (ws.labels_[slot] == kInfWeight) return kInvalidVertex;
  const VertexId parent_label = ws.parents_[slot];
  if (parent_label == kInvalidVertex) return kInvalidVertex;
  return inv_perm_[parent_label];
}

}  // namespace phast
