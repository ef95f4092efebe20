#pragma once

#include <cstdint>
#include <type_traits>

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

/// Selects the widest kernel compatible with the requested mode, the CPU,
/// and k (SSE needs k % 4 == 0, AVX2 needs k % 8 == 0). k = 1, 4, 8, 12
/// and 16 get an instantiation with k fixed at compile time, whose rows
/// stay in registers across a vertex's arcs; other k run register-sized
/// chunks of the row. `want_parents` and `use_marks` pick the matching
/// template instantiation.
SweepKernelFn SelectSweepKernel(SimdMode mode, uint32_t k, bool want_parents,
                                bool use_marks);

/// Name of the kernel that SelectSweepKernel would return ("scalar", "sse",
/// "avx2") — benchmarks report it.
const char* SweepKernelName(SimdMode mode, uint32_t k);

/// True if the binary and CPU can run the given SIMD mode at all.
bool SimdModeAvailable(SimdMode mode);

}  // namespace phast
