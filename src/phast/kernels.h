#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "graph/csr.h"
#include "graph/types.h"
#include "phast/options.h"
#include "util/aligned.h"

namespace phast {

/// One incoming downward arc as stored by the sweep: the tail in label
/// space (the index used for distance lookups) and the arc length.
struct DownArc {
  VertexId tail = 0;
  Weight weight = 0;

  friend bool operator==(const DownArc&, const DownArc&) = default;
};

// Layout contracts of the sweep (§IV-A/§IV-B). The SIMD kernels assume
// 32-bit labels (4 per SSE lane, 8 per AVX2 lane) laid out k-strided in a
// backing array whose alignment covers the widest vector; DownArc entries
// must pack so the downward arc scan streams 8 arcs per cache line.
static_assert(std::is_trivially_copyable_v<DownArc> && sizeof(DownArc) == 8,
              "DownArc must pack to 8 bytes for the streaming arc scan");
static_assert(sizeof(Weight) == 4 && sizeof(VertexId) == 4,
              "sweep kernels assume 32-bit labels and parents "
              "(4 per 128-bit lane, 8 per 256-bit lane)");
static_assert(AlignedVector<Weight>::allocator_type::alignment % 32 == 0,
              "label arrays must be aligned to at least the AVX2 width; the "
              "k-strided row of vertex v starts at offset v*k*4");

/// Everything a sweep kernel needs, in raw-pointer form so the same kernels
/// serve the CPU engine and the GPU simulator's reference path.
struct SweepArgs {
  const ArcId* down_first = nullptr;   // n+1, keyed by sweep position
  const DownArc* down_arcs = nullptr;  // grouped by sweep position
  /// Sweep position -> label-space vertex id; nullptr when they coincide
  /// (the reordered layout).
  const VertexId* order = nullptr;
  VertexId num_vertices = 0;
  uint32_t k = 1;  // trees per sweep

  Weight* labels = nullptr;  // k-strided: labels[v*k + tree]
  /// Visit marks for implicit initialization (read-only during the sweep);
  /// nullptr when labels were explicitly initialized.
  const uint64_t* marks = nullptr;
  /// Parent (arc tail, label space) per label; nullptr if not requested.
  ///
  /// INVARIANT (implicit-init mode): when a sweep kernel resets the labels
  /// of an unmarked vertex to +infinity, it does NOT reset the vertex's
  /// parent slots — they keep whatever the previous batch wrote. A parent
  /// slot is therefore only meaningful where labels[v*k + tree] != inf;
  /// every reader must check the label first (Phast::ParentInGPlus does).
  /// Kernels rely on this asymmetry to keep the unmarked-vertex fast path
  /// a pure label fill.
  VertexId* parents = nullptr;

  [[nodiscard]] bool Marked(VertexId v) const {
    return (marks[v >> 6] >> (v & 63)) & 1;
  }
};

// SweepArgs is passed by value into every kernel invocation (and
// firstprivate-copied into OpenMP regions); it must stay a plain bundle of
// pointers and scalars.
static_assert(std::is_trivially_copyable_v<SweepArgs>,
              "SweepArgs must remain trivially copyable");

/// Pointer to a kernel that sweeps positions [begin, end).
using SweepKernelFn = void (*)(const SweepArgs&, VertexId begin, VertexId end);

/// Everything the batched upward search (phase one) needs, in the same
/// raw-pointer form as SweepArgs. The search keys its frontier by sweep
/// position, so it carries both directions of the position mapping.
struct UpwardArgs {
  const ArcId* up_first = nullptr;  // n+1, label space
  const Arc* up_arcs = nullptr;     // heads in label space
  const VertexId* perm = nullptr;   // original id -> label space
  /// Sweep position -> label-space id and its inverse; both nullptr when
  /// they coincide (the reordered layout).
  const VertexId* order = nullptr;
  const VertexId* position_of = nullptr;
  uint32_t k = 1;  // trees per batch

  Weight* labels = nullptr;     // k-strided, as SweepArgs::labels
  VertexId* parents = nullptr;  // nullptr if not requested
  /// Visit marks and the list of marked vertices (implicit init only,
  /// nullptr otherwise). `visited` has room for every vertex plus one: a
  /// head is appended with an unconditional store and a conditional count.
  uint64_t* marks = nullptr;
  VertexId* visited = nullptr;
  /// Frontier: bit p of `reached` = sweep position p reached and not yet
  /// settled; bit w of `reached_words` = word w of `reached` may be
  /// non-zero. Both are all-zero on entry and on return.
  uint64_t* reached = nullptr;
  uint64_t* reached_words = nullptr;
  /// Fill UpwardResult's work counters (profiling only).
  bool count_work = false;
};

/// What one batched upward search did.
struct UpwardResult {
  size_t num_visited = 0;  // vertices appended to UpwardArgs::visited
  /// Work of k separate queue-based searches: (vertex, tree) pairs settled
  /// with a finite label, and G↑ arcs scanned from them. Zero unless
  /// UpwardArgs::count_work.
  uint64_t settled = 0;
  uint64_t arcs_scanned = 0;
};

static_assert(std::is_trivially_copyable_v<UpwardArgs>,
              "UpwardArgs must remain trivially copyable");

/// Upward search of a batch: tree i starts at sources[i] (original ids,
/// sources.size() == k). Labels must be +infinity on every vertex the
/// search reaches (implicit init: unmarked; explicit init: filled).
using UpwardKernelFn = UpwardResult (*)(const UpwardArgs&,
                                        std::span<const VertexId> sources);

/// Selects the widest kernel compatible with the requested mode, the CPU,
/// and k (SSE needs k % 4 == 0, AVX2 needs k % 8 == 0). k = 1, 4, 8, 12
/// and 16 get an instantiation with k fixed at compile time, whose rows
/// stay in registers across a vertex's arcs; other k run register-sized
/// chunks of the row. `want_parents` and `use_marks` pick the matching
/// template instantiation.
SweepKernelFn SelectSweepKernel(SimdMode mode, uint32_t k, bool want_parents,
                                bool use_marks);

/// The upward-search kernel for the same (mode, k, want_parents, use_marks):
/// one search over the union of the k search spaces, relaxing each G↑ arc
/// for all k trees at once with the sweep's ISA.
UpwardKernelFn SelectUpwardKernel(SimdMode mode, uint32_t k,
                                  bool want_parents, bool use_marks);

/// Name of the kernel that SelectSweepKernel would return ("scalar", "sse",
/// "avx2") — benchmarks report it.
const char* SweepKernelName(SimdMode mode, uint32_t k);

/// True if the binary and CPU can run the given SIMD mode at all.
bool SimdModeAvailable(SimdMode mode);

}  // namespace phast
