#include "phast/kernels.h"

#include <algorithm>

#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace phast {
namespace {

// ---------------------------------------------------------------------------
// One sweep kernel template and one upward-search template, instantiated per
// instruction set (§IV-B). An ISA is a register type V holding kWidth 32-bit
// lanes plus the operations the relaxations need. The scalar "ISA" is one
// lane in a general register; SSE4.1 packs four trees per 128-bit register
// (the paper's kernel), AVX2 eight per 256-bit register (our extension).
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
  static V Or(V a, V b) { return a | b; }
  static V Xor(V a, V b) { return a ^ b; }
  static bool IsZero(V a) { return a == 0; }
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
  static V Or(V a, V b) { return _mm_or_si128(a, b); }
  static V Xor(V a, V b) { return _mm_xor_si128(a, b); }
  static bool IsZero(V a) { return _mm_testz_si128(a, a) != 0; }
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
  static V Or(V a, V b) { return _mm256_or_si256(a, b); }
  static V Xor(V a, V b) { return _mm256_xor_si256(a, b); }
  static bool IsZero(V a) { return _mm256_testz_si256(a, a) != 0; }
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
struct SweepFamily {
  static void Run(const SweepArgs& a, VertexId begin, VertexId end) {
    for (VertexId pos = begin; pos < end; ++pos) {
      const VertexId v = a.order != nullptr ? a.order[pos] : pos;
      if constexpr (kLanes != 0) {
        RelaxLanes<Isa, kLanes / Isa::kWidth, kUseMarks, kParents>(
            a, pos, v, kLanes, 0);
      } else {
        for (uint32_t lane = 0; lane < a.k; lane += Isa::kWidth) {
          RelaxLanes<Isa, 1, kUseMarks, kParents>(a, pos, v, a.k, lane);
        }
      }
    }
  }
};

// The upward search starts a first-touched row by OR-ing it with all ones,
// which must equal both "unreached" sentinels.
static_assert(kInfWeight == ~Weight{0} && kInvalidVertex == ~VertexId{0},
              "the upward search's first-touch select assumes all-ones "
              "sentinels");

/// Relaxes one G↑ arc for lanes [0, kRegs * kWidth) of a row: `d` holds
/// the tail's settled labels, `head` and `head_parents` point at the same
/// lanes of the head's rows. `fresh` is all ones when this arc is the
/// head's first touch in the batch, so its stale row reads as +infinity
/// (and its parents as kInvalidVertex): a select where a queue-based search
/// branches to initialize the row. Returns the XOR of the head's labels
/// before and after, non-zero iff some tree strictly improved the head.
template <class Isa, uint32_t kRegs, bool kUseMarks, bool kParents>
inline typename Isa::V RelaxUpArc(const typename Isa::V* d, Weight* head,
                                  VertexId* head_parents,
                                  typename Isa::V fresh, Arc arc,
                                  VertexId tail) {
  using V = typename Isa::V;
  constexpr uint32_t kWidth = Isa::kWidth;
  const V w = Isa::Splat(arc.weight);
  const V cap = Isa::Splat(~arc.weight);
  V changed = Isa::Splat(0);
  for (size_t r = 0; r < kRegs; ++r) {
    V old = Isa::Load(head + r * kWidth);
    if constexpr (kUseMarks) old = Isa::Or(old, fresh);
    if constexpr (Isa::kWidth == 1 && kRegs > 1) {
      __asm__("" : "+r"(old));  // keeps scalar rows scalar, as in RelaxLanes
    }
    const V next = Isa::Min(old, Isa::Add(Isa::Min(d[r], cap), w));
    Isa::Store(head + r * kWidth, next);
    if constexpr (kParents) {
      V p = Isa::Load(head_parents + r * kWidth);
      if constexpr (kUseMarks) p = Isa::Or(p, fresh);
      Isa::Store(head_parents + r * kWidth,
                 Isa::KeepIfEqual(next, old, p, Isa::Splat(tail)));
    }
    changed = Isa::Or(changed, Isa::Xor(next, old));
  }
  return changed;
}

/// The upward CH searches of all k trees as one search (phase one, §II-B).
/// Every G↑ arc ends at a strictly earlier sweep position (CH levels and
/// ranks climb along upward arcs), so descending sweep position is a
/// topological order of G↑: settling reached positions from the highest
/// down finalizes each row after all of its reached in-neighbours, which
/// gives Dijkstra's labels on this DAG with no queue. A position is reached
/// when some tree strictly lowers its label, i.e. when that tree's own
/// search would have queued it, so the search settles exactly the union of
/// the k search spaces, each vertex once. Settling v relaxes each of its
/// arcs for all k lanes at once; a lane where v is still +infinity adds
/// +infinity (saturating), which never improves a head, so every lane ends
/// with its own search's labels and parents.
template <class Isa, uint32_t kLanes, bool kUseMarks, bool kParents>
struct UpwardFamily {
  static UpwardResult Run(const UpwardArgs& a,
                          std::span<const VertexId> sources) {
    using V = typename Isa::V;
    constexpr uint32_t kWidth = Isa::kWidth;
    const uint32_t k = kLanes != 0 ? kLanes : a.k;
    // Locals, not `a`'s fields: vector stores may alias anything, so the
    // compiler would reload every field after each one.
    const ArcId* const up_first = a.up_first;
    const Arc* const up_arcs = a.up_arcs;
    const VertexId* const order = a.order;
    Weight* const labels = a.labels;
    VertexId* const parents = a.parents;
    uint64_t* const marks = a.marks;
    VertexId* const visited = a.visited;
    uint64_t* const words = a.reached;
    uint64_t* const word_bits = a.reached_words;
    // Sets position pos's frontier bit if `yes`. The summary bit changes
    // only when a word turns non-zero, which is rare enough to predict, so
    // the common case skips its read-modify-write.
    const auto reach = [words, word_bits](VertexId pos, bool yes) {
      const uint64_t old = words[pos >> 6];
      words[pos >> 6] = old | uint64_t{yes} << (pos & 63);
      if (old == 0 && yes) {
        word_bits[pos >> 12] |= uint64_t{1} << ((pos >> 6) & 63);
      }
    };
    const VertexId* const position_of = a.position_of;
    const auto position = [position_of](VertexId label) {
      return position_of != nullptr ? position_of[label] : label;
    };
    // Marks v and appends it to the visited list; returns all ones on v's
    // first touch this batch, else 0 (branch-free: unconditional store,
    // conditional count).
    size_t num_visited = 0;
    const auto claim = [marks, visited, &num_visited](VertexId v) -> uint32_t {
      if constexpr (kUseMarks) {
        uint64_t& word = marks[v >> 6];
        const auto fresh =
            static_cast<uint32_t>(((word >> (v & 63)) & 1) - 1);
        word |= uint64_t{1} << (v & 63);
        visited[num_visited] = v;
        num_visited += fresh & 1;
        return fresh;
      } else {
        return 0;
      }
    };
    const auto parents_of = [parents](size_t slot) {
      return kParents ? parents + slot : nullptr;
    };

    size_t top = 0;  // highest non-zero word of `reached`
    for (uint32_t tree = 0; tree < k; ++tree) {
      const VertexId s = a.perm[sources[tree]];
      const size_t row = static_cast<size_t>(s) * k;
      const uint32_t fresh = claim(s);
      for (uint32_t lane = 0; lane < k; ++lane) labels[row + lane] |= fresh;
      labels[row + tree] = 0;
      if constexpr (kParents) {
        for (uint32_t lane = 0; lane < k; ++lane) parents[row + lane] |= fresh;
        parents[row + tree] = kInvalidVertex;
      }
      const VertexId pos = position(s);
      reach(pos, true);
      top = std::max<size_t>(top, pos >> 6);
    }

    UpwardResult result;
    for (size_t w = top;;) {
      if (const uint64_t bits = words[w]; bits != 0) {
        const auto bit = static_cast<unsigned>(63 - __builtin_clzll(bits));
        words[w] = bits & ~(uint64_t{1} << bit);
        const auto pos = static_cast<VertexId>(w * 64 + bit);
        const VertexId v = order != nullptr ? order[pos] : pos;
        const Weight* const dv = labels + static_cast<size_t>(v) * k;
        const ArcId begin = up_first[v];
        const ArcId end = up_first[v + 1];
        if (a.count_work) {
          // A tree settles v in its own search iff v's label is finite.
          uint64_t finite = 0;
          for (uint32_t lane = 0; lane < k; ++lane) {
            finite += dv[lane] != kInfWeight ? 1 : 0;
          }
          result.settled += finite;
          result.arcs_scanned += finite * (end - begin);
        }
        if constexpr (kLanes != 0) {
          constexpr uint32_t kRegs = kLanes / kWidth;
          V d[kRegs];
          for (size_t r = 0; r < kRegs; ++r) d[r] = Isa::Load(dv + r * kWidth);
          for (ArcId i = begin; i < end; ++i) {
            const Arc arc = up_arcs[i];
            const V fresh = Isa::Splat(claim(arc.other));
            const size_t row = static_cast<size_t>(arc.other) * k;
            const V changed = RelaxUpArc<Isa, kRegs, kUseMarks, kParents>(
                d, labels + row, parents_of(row), fresh, arc, v);
            reach(position(arc.other), !Isa::IsZero(changed));
          }
        } else {
          for (ArcId i = begin; i < end; ++i) {
            const Arc arc = up_arcs[i];
            const V fresh = Isa::Splat(claim(arc.other));
            const size_t row = static_cast<size_t>(arc.other) * k;
            V changed = Isa::Splat(0);
            for (uint32_t lane = 0; lane < k; lane += kWidth) {
              const V d = Isa::Load(dv + lane);
              changed = Isa::Or(
                  changed, RelaxUpArc<Isa, 1, kUseMarks, kParents>(
                               &d, labels + row + lane,
                               parents_of(row + lane), fresh, arc, v));
            }
            reach(position(arc.other), !Isa::IsZero(changed));
          }
        }
        continue;
      }
      // Word w is drained: drop it (and the already-drained words above it)
      // from its summary word, then move to the highest live word below.
      size_t sw = w >> 6;
      uint64_t below = word_bits[sw] & ((uint64_t{1} << (w & 63)) - 1);
      word_bits[sw] = below;
      while (below == 0 && sw > 0) below = word_bits[--sw];
      if (below == 0) break;
      w = sw * 64 + static_cast<size_t>(63 - __builtin_clzll(below));
    }
    result.num_visited = num_visited;
    return result;
  }
};

/// A kernel family's function pointer type (the same for every kLanes).
template <template <class, uint32_t, bool, bool> class Family, class Isa,
          bool kUseMarks, bool kParents>
using FamilyFn = decltype(&Family<Isa, 0, kUseMarks, kParents>::Run);

/// The fixed-k instantiation for kLanes, or nullptr when the ISA's register
/// width does not divide it.
template <template <class, uint32_t, bool, bool> class Family, class Isa,
          uint32_t kLanes, bool kUseMarks, bool kParents>
constexpr FamilyFn<Family, Isa, kUseMarks, kParents> FixedLanes() {
  if constexpr (kLanes % Isa::kWidth == 0) {
    return &Family<Isa, kLanes, kUseMarks, kParents>::Run;
  } else {
    return nullptr;
  }
}

/// Fixed-k kernels cover the widths callers use: single trees and
/// the service's batches rounded up to multiples of four, up to 16.
template <template <class, uint32_t, bool, bool> class Family, class Isa,
          bool kUseMarks, bool kParents>
FamilyFn<Family, Isa, kUseMarks, kParents> PickLanes(uint32_t k) {
  FamilyFn<Family, Isa, kUseMarks, kParents> fixed = nullptr;
  switch (k) {
    case 1:
      fixed = FixedLanes<Family, Isa, 1, kUseMarks, kParents>();
      break;
    case 4:
      fixed = FixedLanes<Family, Isa, 4, kUseMarks, kParents>();
      break;
    case 8:
      fixed = FixedLanes<Family, Isa, 8, kUseMarks, kParents>();
      break;
    case 12:
      fixed = FixedLanes<Family, Isa, 12, kUseMarks, kParents>();
      break;
    case 16:
      fixed = FixedLanes<Family, Isa, 16, kUseMarks, kParents>();
      break;
    default:
      break;
  }
  return fixed != nullptr ? fixed
                          : &Family<Isa, 0, kUseMarks, kParents>::Run;
}

template <template <class, uint32_t, bool, bool> class Family, class Isa>
auto PickKernel(uint32_t k, bool want_parents, bool use_marks) {
  if (use_marks) {
    return want_parents ? PickLanes<Family, Isa, true, true>(k)
                        : PickLanes<Family, Isa, true, false>(k);
  }
  return want_parents ? PickLanes<Family, Isa, false, true>(k)
                      : PickLanes<Family, Isa, false, false>(k);
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

template <template <class, uint32_t, bool, bool> class Family>
auto SelectKernel(SimdMode mode, uint32_t k, bool want_parents,
                  bool use_marks) {
  switch (ResolveKind(mode, k)) {
#if defined(__SSE4_1__)
    case KernelKind::kSse:
      return PickKernel<Family, SseIsa>(k, want_parents, use_marks);
#endif
#if defined(__AVX2__)
    case KernelKind::kAvx2:
      return PickKernel<Family, Avx2Isa>(k, want_parents, use_marks);
#endif
    default:
      return PickKernel<Family, ScalarIsa>(k, want_parents, use_marks);
  }
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
  return SelectKernel<SweepFamily>(mode, k, want_parents, use_marks);
}

UpwardKernelFn SelectUpwardKernel(SimdMode mode, uint32_t k,
                                  bool want_parents, bool use_marks) {
  return SelectKernel<UpwardFamily>(mode, k, want_parents, use_marks);
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
