#include "phast/kernels.h"

#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace phast {
namespace {

// ---------------------------------------------------------------------------
// One sweep kernel template, instantiated per instruction set (§IV-B). An ISA
// is a register type V holding kWidth 32-bit lanes plus the five operations
// the relaxation needs. The scalar "ISA" is one lane in a general register;
// SSE4.1 packs four trees per 128-bit register (the paper's kernel), AVX2
// eight per 256-bit register (our extension).
//
// The saturating add is min(d, ~w) + w: a label no larger than ~w = 2^32-1-w
// cannot overflow, and a larger one is clamped to ~w so the sum lands
// exactly on kInfWeight — bit for bit what SaturatingAdd returns, with no
// compare-and-flood step.
// ---------------------------------------------------------------------------

struct ScalarIsa {
  using V = uint32_t;
  static constexpr uint32_t kWidth = 1;
  static V Load(const uint32_t* p) { return *p; }
  static void Store(uint32_t* p, V v) { *p = v; }
  static V Splat(uint32_t x) { return x; }
  static V Min(V a, V b) { return a < b ? a : b; }
  static V Add(V a, V b) { return a + b; }
  /// Per lane: a == b ? keep : take.
  static V KeepIfEqual(V a, V b, V keep, V take) {
    return a == b ? keep : take;
  }
};

#if defined(__SSE4_1__)
struct SseIsa {
  using V = __m128i;
  static constexpr uint32_t kWidth = 4;
  static V Load(const uint32_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void Store(uint32_t* p, V v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static V Splat(uint32_t x) { return _mm_set1_epi32(static_cast<int>(x)); }
  static V Min(V a, V b) { return _mm_min_epu32(a, b); }
  static V Add(V a, V b) { return _mm_add_epi32(a, b); }
  static V KeepIfEqual(V a, V b, V keep, V take) {
    return _mm_blendv_epi8(take, keep, _mm_cmpeq_epi32(a, b));
  }
};
#endif  // __SSE4_1__

#if defined(__AVX2__)
struct Avx2Isa {
  using V = __m256i;
  static constexpr uint32_t kWidth = 8;
  static V Load(const uint32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void Store(uint32_t* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V Splat(uint32_t x) { return _mm256_set1_epi32(static_cast<int>(x)); }
  static V Min(V a, V b) { return _mm256_min_epu32(a, b); }
  static V Add(V a, V b) { return _mm256_add_epi32(a, b); }
  static V KeepIfEqual(V a, V b, V keep, V take) {
    return _mm256_blendv_epi8(take, keep, _mm256_cmpeq_epi32(a, b));
  }
};
#endif  // __AVX2__

/// Relaxes every incoming arc of sweep position `pos` (vertex v) into lanes
/// [lane, lane + kRegs * kWidth) of v's k-strided row. Those labels — and
/// parents — live in kRegs registers for the whole arc list: one load (or
/// +infinity for an unmarked vertex, §IV-C) before the first arc, one store
/// after the last. The min is branchless; a parent lane takes the arc's
/// tail exactly where the min strictly lowered the label.
template <class Isa, uint32_t kRegs, bool kUseMarks, bool kParents>
inline void RelaxLanes(const SweepArgs& a, VertexId pos, VertexId v,
                       uint32_t k, uint32_t lane) {
  using V = typename Isa::V;
  constexpr uint32_t kWidth = Isa::kWidth;
  const size_t row = static_cast<size_t>(v) * k + lane;
  V d[kRegs];
  if (kUseMarks && !a.Marked(v)) {
    for (size_t r = 0; r < kRegs; ++r) d[r] = Isa::Splat(kInfWeight);
  } else {
    for (size_t r = 0; r < kRegs; ++r) {
      d[r] = Isa::Load(a.labels + row + r * kWidth);
    }
  }
  // Unmarked vertices keep their stale parent lanes unless improved (see
  // the SweepArgs::parents invariant).
  [[maybe_unused]] V p[kParents ? kRegs : 1];
  if constexpr (kParents) {
    for (size_t r = 0; r < kRegs; ++r) {
      p[r] = Isa::Load(a.parents + row + r * kWidth);
    }
  }
  const ArcId arc_end = a.down_first[pos + 1];
  for (ArcId arc = a.down_first[pos]; arc < arc_end; ++arc) {
    const DownArc in = a.down_arcs[arc];
    const Weight* du = a.labels + static_cast<size_t>(in.tail) * k + lane;
    const V w = Isa::Splat(in.weight);
    const V cap = Isa::Splat(~in.weight);
    for (size_t r = 0; r < kRegs; ++r) {
      V tail_label = Isa::Load(du + r * kWidth);
      if constexpr (Isa::kWidth == 1 && kRegs > 1) {
        // Keeps a multi-lane scalar row scalar: the compiler's SLP
        // vectorizer would pack its lanes into AVX2 registers, and the
        // scalar-vs-SIMD comparison (Table II) would time two vector
        // kernels. At k = 1, where no SIMD kernel exists, the compiler is
        // free to vectorize the arc loop instead.
        __asm__("" : "+r"(tail_label));
      }
      const V candidate = Isa::Add(Isa::Min(tail_label, cap), w);
      const V next = Isa::Min(d[r], candidate);
      if constexpr (kParents) {
        p[r] = Isa::KeepIfEqual(next, d[r], p[r], Isa::Splat(in.tail));
      }
      d[r] = next;
    }
  }
  for (size_t r = 0; r < kRegs; ++r) {
    Isa::Store(a.labels + row + r * kWidth, d[r]);
  }
  if constexpr (kParents) {
    for (size_t r = 0; r < kRegs; ++r) {
      Isa::Store(a.parents + row + r * kWidth, p[r]);
    }
  }
}

/// Sweeps positions [begin, end). kLanes > 0 fixes k at compile time, so
/// the whole row sits in kLanes / kWidth registers; kLanes == 0 serves any
/// other multiple of the register width one register-sized chunk at a time
/// (chunks outside, arcs inside).
template <class Isa, uint32_t kLanes, bool kUseMarks, bool kParents>
void Sweep(const SweepArgs& a, VertexId begin, VertexId end) {
  for (VertexId pos = begin; pos < end; ++pos) {
    const VertexId v = a.order != nullptr ? a.order[pos] : pos;
    if constexpr (kLanes != 0) {
      RelaxLanes<Isa, kLanes / Isa::kWidth, kUseMarks, kParents>(a, pos, v,
                                                                kLanes, 0);
    } else {
      for (uint32_t lane = 0; lane < a.k; lane += Isa::kWidth) {
        RelaxLanes<Isa, 1, kUseMarks, kParents>(a, pos, v, a.k, lane);
      }
    }
  }
}

/// The fixed-k instantiation for kLanes, or nullptr when the ISA's register
/// width does not divide it.
template <class Isa, uint32_t kLanes, bool kUseMarks, bool kParents>
constexpr SweepKernelFn FixedSweep() {
  if constexpr (kLanes % Isa::kWidth == 0) {
    return &Sweep<Isa, kLanes, kUseMarks, kParents>;
  } else {
    return nullptr;
  }
}

/// Fixed-k kernels cover the widths callers use: single trees and
/// the service's batches rounded up to multiples of four, up to 16.
template <class Isa, bool kUseMarks, bool kParents>
SweepKernelFn PickLanes(uint32_t k) {
  SweepKernelFn fixed = nullptr;
  switch (k) {
    case 1:
      fixed = FixedSweep<Isa, 1, kUseMarks, kParents>();
      break;
    case 4:
      fixed = FixedSweep<Isa, 4, kUseMarks, kParents>();
      break;
    case 8:
      fixed = FixedSweep<Isa, 8, kUseMarks, kParents>();
      break;
    case 12:
      fixed = FixedSweep<Isa, 12, kUseMarks, kParents>();
      break;
    case 16:
      fixed = FixedSweep<Isa, 16, kUseMarks, kParents>();
      break;
    default:
      break;
  }
  return fixed != nullptr ? fixed : &Sweep<Isa, 0, kUseMarks, kParents>;
}

template <class Isa>
SweepKernelFn PickKernel(uint32_t k, bool want_parents, bool use_marks) {
  if (use_marks) {
    return want_parents ? PickLanes<Isa, true, true>(k)
                        : PickLanes<Isa, true, false>(k);
  }
  return want_parents ? PickLanes<Isa, false, true>(k)
                      : PickLanes<Isa, false, false>(k);
}

enum class KernelKind { kScalar, kSse, kAvx2 };

KernelKind ResolveKind(SimdMode mode, uint32_t k) {
  const bool sse_ok = SimdModeAvailable(SimdMode::kSse) && k % 4 == 0;
  const bool avx_ok = SimdModeAvailable(SimdMode::kAvx2) && k % 8 == 0;
  switch (mode) {
    case SimdMode::kScalar:
      return KernelKind::kScalar;
    case SimdMode::kSse:
      return sse_ok ? KernelKind::kSse : KernelKind::kScalar;
    case SimdMode::kAvx2:
      return avx_ok ? KernelKind::kAvx2 : KernelKind::kScalar;
    case SimdMode::kAuto:
      if (avx_ok) return KernelKind::kAvx2;
      if (sse_ok) return KernelKind::kSse;
      return KernelKind::kScalar;
  }
  return KernelKind::kScalar;
}

}  // namespace

bool SimdModeAvailable(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
    case SimdMode::kAuto:
      return true;
    case SimdMode::kSse:
#if defined(__SSE4_1__)
      return __builtin_cpu_supports("sse4.1");
#else
      return false;
#endif
    case SimdMode::kAvx2:
#if defined(__AVX2__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

SweepKernelFn SelectSweepKernel(SimdMode mode, uint32_t k, bool want_parents,
                                bool use_marks) {
  switch (ResolveKind(mode, k)) {
#if defined(__SSE4_1__)
    case KernelKind::kSse:
      return PickKernel<SseIsa>(k, want_parents, use_marks);
#endif
#if defined(__AVX2__)
    case KernelKind::kAvx2:
      return PickKernel<Avx2Isa>(k, want_parents, use_marks);
#endif
    default:
      return PickKernel<ScalarIsa>(k, want_parents, use_marks);
  }
}

const char* SweepKernelName(SimdMode mode, uint32_t k) {
  switch (ResolveKind(mode, k)) {
    case KernelKind::kSse:
      return "sse";
    case KernelKind::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

}  // namespace phast
