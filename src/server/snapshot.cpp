#include "server/snapshot.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "ch/ch_io.h"
#include "util/atomic_file.h"
#include "util/error.h"

namespace phast::server {
namespace {

constexpr char kMagicV1[8] = {'P', 'H', 'S', 'N', 'A', 'P', '0', '1'};
constexpr char kMagicV2[8] = {'P', 'H', 'S', 'N', 'A', 'P', '0', '2'};
constexpr size_t kHeaderSize = 48;
constexpr size_t kTocEntrySize = sizeof(SnapshotSection);
constexpr size_t kChecksumFieldOffset = 24;
constexpr uint32_t kMaxSections = 64;

/// FNV over [0, size) with the 8 checksum bytes at kChecksumFieldOffset
/// hashed as zeros — without materializing a zeroed copy (FNV-1a is
/// byte-sequential, so the hole is just another chunk).
uint64_t HashWithZeroedChecksumField(const char* data, size_t size) {
  static constexpr char kZeros[8] = {};
  uint64_t hash = kFnv1a64Seed;
  hash = Fnv1a64Continue(hash, data, kChecksumFieldOffset);
  hash = Fnv1a64Continue(hash, kZeros, sizeof(kZeros));
  hash = Fnv1a64Continue(hash, data + kChecksumFieldOffset + 8,
                         size - kChecksumFieldOffset - 8);
  return hash;
}

size_t PayloadAlignment(uint32_t version) {
  return version == kSnapshotVersion2 ? kSnapshotPageAlign : size_t{8};
}

void RequireElementCount(size_t actual, size_t expected, uint32_t id) {
  Require(actual == expected,
          "snapshot section " + std::string(SnapshotSectionName(id)) +
              " holds " + std::to_string(actual) +
              " elements, the header implies " + std::to_string(expected));
}

PhastOptions DecodeEngineOptions(const SnapshotMeta& meta) {
  PhastOptions options;
  options.order = static_cast<SweepOrder>(meta.sweep_order);
  options.simd = static_cast<SimdMode>(meta.simd_mode);
  options.implicit_init = meta.implicit_init != 0;
  return options;
}

// --- writing ----------------------------------------------------------------

class SnapshotBuilder {
 public:
  explicit SnapshotBuilder(SnapshotFormat format) : format_(format) {}

  template <typename T>
  void AddVectorSection(uint32_t id, const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    AddSection(id, values.data(), values.size() * sizeof(T));
  }

  void AddSection(uint32_t id, const void* data, size_t size) {
    SnapshotSection entry;
    entry.id = id;
    entry.size = size;
    entry.checksum = Fnv1a64(data, size);
    toc_.push_back(entry);
    payloads_.emplace_back(static_cast<const char*>(data),
                           static_cast<const char*>(data) + size);
  }

  void WriteTo(std::ostream& out) {
    const bool v2 = format_ == SnapshotFormat::kPhsnap02;
    const size_t align = v2 ? kSnapshotPageAlign : size_t{8};
    // Lay out: header, TOC, payloads at aligned offsets.
    size_t offset = kHeaderSize + toc_.size() * kTocEntrySize;
    for (size_t i = 0; i < toc_.size(); ++i) {
      offset = (offset + align - 1) & ~(align - 1);
      toc_[i].offset = offset;
      offset += toc_[i].size;
    }
    const size_t file_size = offset;
    const size_t toc_end = kHeaderSize + toc_.size() * kTocEntrySize;

    std::string buffer(file_size, '\0');
    std::memcpy(buffer.data(), v2 ? kMagicV2 : kMagicV1, sizeof(kMagicV1));
    const uint32_t version = v2 ? kSnapshotVersion2 : kSnapshotVersion;
    const uint32_t section_count = static_cast<uint32_t>(toc_.size());
    const uint64_t file_size64 = file_size;
    std::memcpy(buffer.data() + 8, &version, sizeof(version));
    std::memcpy(buffer.data() + 12, &section_count, sizeof(section_count));
    std::memcpy(buffer.data() + 16, &file_size64, sizeof(file_size64));
    std::memcpy(buffer.data() + kHeaderSize, toc_.data(),
                toc_.size() * kTocEntrySize);
    for (size_t i = 0; i < toc_.size(); ++i) {
      if (payloads_[i].empty()) continue;  // .data() may be null when empty
      std::memcpy(buffer.data() + toc_[i].offset, payloads_[i].data(),
                  payloads_[i].size());
    }
    // The header checksum field is still zero here, so hashing the raw
    // bytes *is* hashing with the field zeroed. v1 covers the whole file;
    // v2 covers header+TOC only, so readers verify structure in O(TOC).
    const uint64_t checksum =
        v2 ? Fnv1a64(buffer.data(), toc_end)
           : Fnv1a64(buffer.data(), buffer.size());
    std::memcpy(buffer.data() + kChecksumFieldOffset, &checksum,
                sizeof(checksum));

    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  }

 private:
  SnapshotFormat format_;
  std::vector<SnapshotSection> toc_;
  std::vector<std::string> payloads_;
};

}  // namespace

uint64_t Fnv1a64Continue(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t Fnv1a64(const void* data, size_t size) {
  return Fnv1a64Continue(kFnv1a64Seed, data, size);
}

const char* SnapshotSectionName(uint32_t id) {
  switch (id) {
    case kSecMeta: return "META";
    case kSecPerm: return "PERM";
    case kSecInvPerm: return "INV_PERM";
    case kSecOrder: return "ORDER";
    case kSecDownFirst: return "DOWN_FIRST";
    case kSecDownArcs: return "DOWN_ARCS";
    case kSecUpFirst: return "UP_FIRST";
    case kSecUpArcs: return "UP_ARCS";
    case kSecLevelBegin: return "LEVEL_BEGIN";
    case kSecGraphFirst: return "GRAPH_FIRST";
    case kSecGraphArcs: return "GRAPH_ARCS";
    case kSecCh: return "CH";
    default: return "UNKNOWN";
  }
}

// --- SnapshotImage ----------------------------------------------------------

SnapshotImage::SnapshotImage(const char* data, size_t size,
                             SnapshotVerify verify)
    : data_(data), size_(size) {
  Require(size_ >= kHeaderSize,
          "snapshot truncated: " + std::to_string(size_) +
              " bytes is smaller than the " + std::to_string(kHeaderSize) +
              "-byte header");
  if (std::memcmp(data_, kMagicV1, sizeof(kMagicV1)) == 0) {
    version_ = kSnapshotVersion;
  } else if (std::memcmp(data_, kMagicV2, sizeof(kMagicV2)) == 0) {
    version_ = kSnapshotVersion2;
  } else {
    Require(false, "not a PHAST snapshot (bad magic)");
  }
  uint32_t declared_version = 0;
  std::memcpy(&declared_version, data_ + 8, sizeof(declared_version));
  Require(declared_version == version_,
          "snapshot version field " + std::to_string(declared_version) +
              " contradicts its magic");
  uint32_t section_count = 0;
  std::memcpy(&section_count, data_ + 12, sizeof(section_count));
  Require(section_count <= kMaxSections,
          "snapshot declares an implausible section count");
  uint64_t file_size = 0;
  std::memcpy(&file_size, data_ + 16, sizeof(file_size));
  Require(file_size == size_,
          "snapshot truncated: header declares " + std::to_string(file_size) +
              " bytes, have " + std::to_string(size_));

  const size_t toc_end =
      kHeaderSize + static_cast<size_t>(section_count) * kTocEntrySize;
  Require(toc_end <= size_, "snapshot truncated inside the table of contents");

  uint64_t declared_checksum = 0;
  std::memcpy(&declared_checksum, data_ + kChecksumFieldOffset,
              sizeof(declared_checksum));
  if (version_ == kSnapshotVersion2) {
    // Header+TOC hash: O(TOC), so it runs under every verify mode — even
    // kOff authenticates the structure it is about to bounds-check.
    Require(HashWithZeroedChecksumField(data_, toc_end) == declared_checksum,
            "snapshot header/TOC checksum mismatch (file is corrupted)");
  } else if (verify == SnapshotVerify::kFull) {
    Require(HashWithZeroedChecksumField(data_, size_) == declared_checksum,
            "snapshot checksum mismatch (file is corrupted)");
  }

  const size_t align = PayloadAlignment(version_);
  toc_.resize(section_count);
  std::memcpy(toc_.data(), data_ + kHeaderSize,
              section_count * kTocEntrySize);
  for (const SnapshotSection& entry : toc_) {
    const std::string name = SnapshotSectionName(entry.id);
    Require(entry.offset % align == 0,
            "snapshot section " + name + " is not " + std::to_string(align) +
                "-byte aligned");
    Require(entry.offset >= toc_end && entry.offset + entry.size <= size_ &&
                entry.offset + entry.size >= entry.offset,
            "snapshot section " + name + " is out of bounds");
    if (verify != SnapshotVerify::kOff) {
      Require(SectionChecksumOk(entry),
              "snapshot section " + name + " checksum mismatch");
    }
  }
}

bool SnapshotImage::HasSection(uint32_t id) const {
  for (const SnapshotSection& entry : toc_) {
    if (entry.id == id) return true;
  }
  return false;
}

const SnapshotSection& SnapshotImage::Section(uint32_t id) const {
  for (const SnapshotSection& entry : toc_) {
    if (entry.id == id) return entry;
  }
  Require(false,
          std::string("snapshot missing section ") + SnapshotSectionName(id));
  __builtin_unreachable();
}

bool SnapshotImage::SectionChecksumOk(const SnapshotSection& section) const {
  return Fnv1a64(data_ + section.offset, section.size) == section.checksum;
}

void SnapshotImage::RequireTyped(const SnapshotSection& section,
                                 size_t elem_size, size_t elem_align) const {
  const std::string name = SnapshotSectionName(section.id);
  Require(section.size % elem_size == 0,
          "snapshot section " + name + " has " + std::to_string(section.size) +
              " bytes, not a multiple of its element size " +
              std::to_string(elem_size));
  Require(reinterpret_cast<uintptr_t>(data_ + section.offset) % elem_align ==
              0,
          "snapshot section " + name +
              " payload is misaligned for zero-copy access");
}

SnapshotMeta SnapshotImage::Meta() const {
  const SnapshotSection& entry = Section(kSecMeta);
  Require(entry.size == sizeof(SnapshotMeta),
          "snapshot META section has wrong size");
  SnapshotMeta meta;
  std::memcpy(&meta, data_ + entry.offset, sizeof(meta));
  Require(meta.sweep_order <=
              static_cast<uint8_t>(SweepOrder::kLevelReordered),
          "snapshot META declares an unknown sweep order");
  Require(meta.simd_mode <= static_cast<uint8_t>(SimdMode::kAuto),
          "snapshot META declares an unknown SIMD mode");
  return meta;
}

// --- decoding ---------------------------------------------------------------

PhastLayoutView MakeLayoutView(const SnapshotImage& image) {
  const SnapshotMeta meta = image.Meta();
  PhastLayoutView view;
  view.options = DecodeEngineOptions(meta);
  view.num_vertices = meta.num_vertices;
  view.num_levels = meta.num_levels;
  view.perm = image.TypedSection<VertexId>(kSecPerm);
  view.inv_perm = image.TypedSection<VertexId>(kSecInvPerm);
  view.order = image.TypedSection<VertexId>(kSecOrder);
  view.down_first = image.TypedSection<ArcId>(kSecDownFirst);
  view.down_arcs = image.TypedSection<DownArc>(kSecDownArcs);
  view.up_first = image.TypedSection<ArcId>(kSecUpFirst);
  view.up_arcs = image.TypedSection<Arc>(kSecUpArcs);
  view.level_begin = image.TypedSection<VertexId>(kSecLevelBegin);

  const size_t n = meta.num_vertices;
  RequireElementCount(view.perm.size(), n, kSecPerm);
  RequireElementCount(view.inv_perm.size(), n, kSecInvPerm);
  RequireElementCount(view.down_first.size(), n + 1, kSecDownFirst);
  RequireElementCount(view.down_arcs.size(), meta.num_down_arcs, kSecDownArcs);
  RequireElementCount(view.up_first.size(), n + 1, kSecUpFirst);
  RequireElementCount(view.up_arcs.size(), meta.num_up_arcs, kSecUpArcs);
  return view;
}

Graph DecodeSnapshotGraph(const SnapshotImage& image) {
  const SnapshotMeta meta = image.Meta();
  Require(meta.has_graph != 0, "snapshot carries no graph section");
  const auto first_bytes = image.TypedSection<ArcId>(kSecGraphFirst);
  const auto arc_bytes = image.TypedSection<Arc>(kSecGraphArcs);
  RequireElementCount(first_bytes.size(),
                      static_cast<size_t>(meta.num_vertices) + 1,
                      kSecGraphFirst);
  return Graph::FromCsrArrays(
      std::vector<ArcId>(first_bytes.begin(), first_bytes.end()),
      std::vector<Arc>(arc_bytes.begin(), arc_bytes.end()));
}

CHData DecodeSnapshotCH(const SnapshotImage& image) {
  const SnapshotMeta meta = image.Meta();
  Require(meta.has_ch != 0, "snapshot carries no CH section");
  const auto bytes = image.SectionBytes(image.Section(kSecCh));
  std::istringstream ch_bytes(std::string(bytes.data(), bytes.size()));
  CHData ch = ReadCH(ch_bytes);
  Require(ch.num_vertices == meta.num_vertices,
          "snapshot CH section does not match the engine's vertex count");
  return ch;
}

Snapshot DecodeSnapshot(const SnapshotImage& image) {
  const SnapshotMeta meta = image.Meta();
  const PhastLayoutView view = MakeLayoutView(image);

  Snapshot snapshot;
  PhastLayout& layout = snapshot.layout;
  layout.options = view.options;
  layout.num_vertices = view.num_vertices;
  layout.num_levels = view.num_levels;
  layout.perm.assign(view.perm.begin(), view.perm.end());
  layout.inv_perm.assign(view.inv_perm.begin(), view.inv_perm.end());
  layout.order.assign(view.order.begin(), view.order.end());
  layout.down_first.assign(view.down_first.begin(), view.down_first.end());
  layout.down_arcs.assign(view.down_arcs.begin(), view.down_arcs.end());
  layout.up_first.assign(view.up_first.begin(), view.up_first.end());
  layout.up_arcs.assign(view.up_arcs.begin(), view.up_arcs.end());
  layout.level_begin.assign(view.level_begin.begin(), view.level_begin.end());

  if (meta.has_graph != 0) {
    snapshot.has_graph = true;
    snapshot.graph = DecodeSnapshotGraph(image);
  }
  if (meta.has_ch != 0) {
    snapshot.has_ch = true;
    snapshot.ch = DecodeSnapshotCH(image);
  }

  // Deep structural validation (permutation/CSR/level invariants) happens
  // in the Phast(PhastLayout) constructor when the engine is built; run it
  // here so a malformed snapshot is rejected at load time even if the
  // caller only wanted the struct.
  (void)Phast(snapshot.layout);
  return snapshot;
}

// --- top-level read/write ---------------------------------------------------

Snapshot MakeSnapshot(const Phast& engine, const Graph* graph,
                      const CHData* ch) {
  Snapshot snapshot;
  snapshot.layout = engine.ExportLayout();
  if (graph != nullptr) {
    Require(graph->NumVertices() == engine.NumVertices(),
            "snapshot graph does not match the engine's vertex count");
    snapshot.has_graph = true;
    snapshot.graph = *graph;
  }
  if (ch != nullptr) {
    Require(ch->num_vertices == engine.NumVertices(),
            "snapshot hierarchy does not match the engine's vertex count");
    snapshot.has_ch = true;
    snapshot.ch = *ch;
  }
  return snapshot;
}

void WriteSnapshot(const Snapshot& snapshot, std::ostream& out,
                   SnapshotFormat format) {
  const PhastLayout& layout = snapshot.layout;
  SnapshotMeta meta;
  meta.num_vertices = layout.num_vertices;
  meta.num_levels = layout.num_levels;
  meta.sweep_order = static_cast<uint8_t>(layout.options.order);
  meta.simd_mode = static_cast<uint8_t>(layout.options.simd);
  meta.implicit_init = layout.options.implicit_init ? 1 : 0;
  meta.has_graph = snapshot.has_graph ? 1 : 0;
  meta.has_ch = snapshot.has_ch ? 1 : 0;
  meta.num_down_arcs = layout.down_arcs.size();
  meta.num_up_arcs = layout.up_arcs.size();

  SnapshotBuilder builder(format);
  builder.AddSection(kSecMeta, &meta, sizeof(meta));
  builder.AddVectorSection(kSecPerm, layout.perm);
  builder.AddVectorSection(kSecInvPerm, layout.inv_perm);
  builder.AddVectorSection(kSecOrder, layout.order);
  builder.AddVectorSection(kSecDownFirst, layout.down_first);
  builder.AddVectorSection(kSecDownArcs, layout.down_arcs);
  builder.AddVectorSection(kSecUpFirst, layout.up_first);
  builder.AddVectorSection(kSecUpArcs, layout.up_arcs);
  builder.AddVectorSection(kSecLevelBegin, layout.level_begin);
  if (snapshot.has_graph) {
    builder.AddVectorSection(kSecGraphFirst, snapshot.graph.FirstArray());
    builder.AddVectorSection(kSecGraphArcs, snapshot.graph.ArcArray());
  }
  if (snapshot.has_ch) {
    // Embed the ch_io stream verbatim: one serialization format for
    // hierarchies everywhere, and the section inherits its own validation.
    std::ostringstream ch_bytes;
    WriteCH(snapshot.ch, ch_bytes);
    const std::string bytes = std::move(ch_bytes).str();
    builder.AddSection(kSecCh, bytes.data(), bytes.size());
  }
  builder.WriteTo(out);
}

void WriteSnapshotFile(const Snapshot& snapshot, const std::string& path,
                       SnapshotFormat format) {
  WriteFileAtomically(path, [&](std::ostream& out) {
    WriteSnapshot(snapshot, out, format);
  });
}

Snapshot ReadSnapshot(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = std::move(buffer).str();
  const SnapshotImage image(bytes.data(), bytes.size(),
                            SnapshotVerify::kFull);
  return DecodeSnapshot(image);
}

Snapshot ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Require(in.good(), "cannot open file for reading: " + path);
  return ReadSnapshot(in);
}

}  // namespace phast::server
