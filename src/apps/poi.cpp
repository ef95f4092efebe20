// k-nearest-POI: per-category vertex buckets plus a prefix-cutoff sweep.
// The PHAST paper names POI search as a core batched application; the
// sweep-prefix trick is the sound form of its "early termination" — the
// level layout guarantees labels in a prefix never depend on the suffix.
#include "apps/poi.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <unordered_set>

#include "phast/kernels.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/rng.h"

namespace phast {
namespace {

constexpr char kPoiMagic[8] = {'P', 'H', 'P', 'O', 'I', '0', '1', '\0'};

// Local FNV-1a so apps/ stays below server/ in the layering DAG (the
// snapshot code has its own copy; the constants are the standard ones, so
// the two agree byte-for-byte on identical input).
constexpr uint64_t kFnvSeed = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a(const uint8_t* data, size_t size) {
  uint64_t hash = kFnvSeed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= kFnvPrime;
  }
  return hash;
}

template <typename T>
void AppendValue(std::vector<uint8_t>& out, const T& value) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
T TakeValue(const uint8_t*& cursor, const uint8_t* end) {
  Require(static_cast<size_t>(end - cursor) >= sizeof(T),
          "truncated POI file");
  T value{};
  std::memcpy(&value, cursor, sizeof(T));
  cursor += sizeof(T);
  return value;
}

}  // namespace

PoiIndex::PoiIndex(VertexId num_vertices,
                   std::vector<std::vector<VertexId>> buckets)
    : num_vertices_(num_vertices) {
  first_.reserve(buckets.size() + 1);
  first_.push_back(0);
  for (std::vector<VertexId>& bucket : buckets) {
    std::sort(bucket.begin(), bucket.end());
    Require(std::adjacent_find(bucket.begin(), bucket.end()) == bucket.end(),
            "POI bucket contains a duplicate vertex");
    for (const VertexId v : bucket) {
      Require(v < num_vertices, "POI vertex out of range");
      vertices_.push_back(v);
    }
    first_.push_back(static_cast<uint32_t>(vertices_.size()));
  }
}

PoiIndex PoiIndex::GenerateRandom(VertexId num_vertices, uint32_t categories,
                                  uint32_t per_category, uint64_t seed) {
  Require(num_vertices > 0, "POI index needs a non-empty vertex set");
  Rng rng(seed ^ 0x705F1E9D2B3C4A58ULL);
  std::vector<std::vector<VertexId>> buckets(categories);
  for (uint32_t c = 0; c < categories; ++c) {
    const uint32_t want = std::min<uint32_t>(per_category, num_vertices);
    std::unordered_set<VertexId> picked;
    picked.reserve(want);
    while (picked.size() < want) {
      picked.insert(static_cast<VertexId>(rng.NextBounded(num_vertices)));
    }
    buckets[c].assign(picked.begin(), picked.end());
  }
  return PoiIndex(num_vertices, std::move(buckets));
}

KnnSweeper::KnnSweeper(const Phast& engine, const PoiIndex& index,
                       uint32_t category, bool use_cutoff)
    : engine_(engine) {
  Require(index.NumVertices() == engine.NumVertices(),
          "POI index was built for a different graph");
  Require(category < index.NumCategories(), "POI category out of range");
  const std::span<const VertexId> bucket = index.Bucket(category);
  bucket_.assign(bucket.begin(), bucket.end());

  const VertexId n = engine.NumVertices();
  if (bucket_.empty()) {
    cutoff_ = 0;  // nothing to find; Query never sweeps
    return;
  }
  cutoff_ = n;
  if (!use_cutoff) return;

  // Deepest sweep position any bucket vertex occupies. Everything past it
  // can only influence labels at even later positions.
  VertexId max_pos = 0;
  for (const VertexId v : bucket_) {
    max_pos =
        std::max(max_pos, engine.SweepPositionOf(engine.LabelIndexOf(v)));
  }
  cutoff_ = max_pos + 1;
  // Snap up to the enclosing level-group boundary (GPU-friendly granularity
  // and the form the paper's level-kernel framing suggests); sweeping more
  // of the prefix never changes the bucket labels.
  const std::span<const VertexId> levels = engine.LevelBoundaries();
  const auto it = std::upper_bound(levels.begin(), levels.end(), max_pos);
  if (it != levels.end()) cutoff_ = *it;
}

std::vector<PoiResult> KnnSweeper::Query(VertexId source, uint32_t k,
                                         Phast::Workspace& ws) const {
  Require(ws.NumTrees() == 1 && !ws.WantsParents(),
          "KnnSweeper needs a plain single-tree workspace");
  std::vector<PoiResult> results;
  if (k == 0 || bucket_.empty()) return results;

  engine_.RunUpwardPhase({&source, 1}, ws);
  const SweepArgs args = engine_.MakeSweepArgs(ws);
  const PhastOptions& options = engine_.GetOptions();
  const SweepKernelFn kernel = SelectSweepKernel(
      options.simd, /*k=*/1, /*want_parents=*/false,
      /*use_marks=*/options.implicit_init);
  kernel(args, 0, cutoff_);
  engine_.FinishExternalSweep(ws);

  results.reserve(bucket_.size());
  for (const VertexId v : bucket_) {
    const Weight d = engine_.Distance(ws, v, 0);
    if (d != kInfWeight) results.push_back(PoiResult{d, v});
  }
  std::sort(results.begin(), results.end(),
            [](const PoiResult& a, const PoiResult& b) {
              return a.dist != b.dist ? a.dist < b.dist : a.vertex < b.vertex;
            });
  if (results.size() > k) results.resize(k);
  return results;
}

void WritePoiFile(const std::string& path, const PoiIndex& index) {
  std::vector<uint8_t> payload;
  payload.reserve(sizeof(kPoiMagic) + 16 + index.first_.size() * 4 +
                  index.vertices_.size() * 4);
  payload.resize(sizeof(kPoiMagic));
  std::memcpy(payload.data(), kPoiMagic, sizeof(kPoiMagic));
  AppendValue<uint32_t>(payload, index.num_vertices_);
  AppendValue<uint32_t>(payload, index.NumCategories());
  AppendValue<uint64_t>(payload, index.vertices_.size());
  for (const uint32_t f : index.first_) AppendValue<uint32_t>(payload, f);
  for (const VertexId v : index.vertices_) AppendValue<uint32_t>(payload, v);
  const uint64_t checksum = Fnv1a(payload.data(), payload.size());
  AppendValue<uint64_t>(payload, checksum);

  WriteFileAtomically(path, [&payload](std::ostream& out) {
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  });
}

PoiIndex ReadPoiFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Require(in.good(), "cannot open file for reading: " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  Require(bytes.size() >= sizeof(kPoiMagic) + 16 + 4 + 8,
          "truncated POI file");
  Require(std::memcmp(bytes.data(), kPoiMagic, sizeof(kPoiMagic)) == 0,
          "not a PHPOI01 file (bad magic)");

  const uint8_t* cursor = bytes.data() + bytes.size() - 8;
  const uint8_t* const hash_at = cursor;
  const uint64_t stored = TakeValue<uint64_t>(cursor, bytes.data() + bytes.size());
  Require(Fnv1a(bytes.data(), static_cast<size_t>(hash_at - bytes.data())) ==
              stored,
          "POI file checksum mismatch");

  cursor = bytes.data() + sizeof(kPoiMagic);
  const uint8_t* const end = hash_at;
  PoiIndex index;
  index.num_vertices_ = TakeValue<uint32_t>(cursor, end);
  const uint32_t categories = TakeValue<uint32_t>(cursor, end);
  const uint64_t total = TakeValue<uint64_t>(cursor, end);
  Require(total <= index.num_vertices_ * static_cast<uint64_t>(categories) &&
              static_cast<size_t>(end - cursor) ==
                  (static_cast<size_t>(categories) + 1 + total) * 4,
          "POI file arrays do not match its header");
  index.first_.resize(categories + 1);
  for (uint32_t& f : index.first_) f = TakeValue<uint32_t>(cursor, end);
  Require(index.first_.front() == 0 && index.first_.back() == total &&
              std::is_sorted(index.first_.begin(), index.first_.end()),
          "POI file CSR offsets are malformed");
  index.vertices_.resize(total);
  for (VertexId& v : index.vertices_) {
    v = TakeValue<uint32_t>(cursor, end);
    Require(v < index.num_vertices_, "POI file vertex out of range");
  }
  return index;
}

}  // namespace phast
