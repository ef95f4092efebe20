#include "ch/ch_io.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "util/atomic_file.h"
#include "util/error.h"

namespace phast {
namespace {

constexpr char kMagic[8] = {'P', 'H', 'A', 'S', 'T', 'C', 'H', '1'};

template <typename T>
void WriteValue(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& values) {
  WriteValue<uint64_t>(out, values.size());
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
T ReadValue(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  Require(in.good(), "truncated CH file");
  return value;
}

template <typename T>
std::vector<T> ReadVector(std::istream& in, uint64_t max_elements) {
  const uint64_t count = ReadValue<uint64_t>(in);
  Require(count <= max_elements, "CH file declares an implausible size");
  std::vector<T> values(count);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  Require(in.good() || count == 0, "truncated CH file");
  return values;
}

}  // namespace

void WriteCH(const CHData& ch, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  WriteValue<uint32_t>(out, ch.num_vertices);
  WriteValue<uint64_t>(out, ch.num_shortcuts);
  WriteVector(out, ch.rank);
  WriteVector(out, ch.level);
  WriteVector(out, ch.up_arcs);
  WriteVector(out, ch.down_arcs);
}

void WriteCHFile(const CHData& ch, const std::string& path) {
  WriteFileAtomically(path, [&ch](std::ostream& out) { WriteCH(ch, out); });
}

CHData ReadCH(std::istream& in) {
  char magic[sizeof(kMagic)] = {};
  in.read(magic, sizeof(magic));
  Require(in.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
          "not a PHAST CH file (bad magic)");

  CHData ch;
  ch.num_vertices = ReadValue<uint32_t>(in);
  ch.num_shortcuts = ReadValue<uint64_t>(in);
  // Sanity cap: no more arcs than a complete graph, no more rank entries
  // than vertices.
  const uint64_t max_arcs = 1ull << 36;
  ch.rank = ReadVector<uint32_t>(in, ch.num_vertices);
  ch.level = ReadVector<uint32_t>(in, ch.num_vertices);
  ch.up_arcs = ReadVector<CHArc>(in, max_arcs);
  ch.down_arcs = ReadVector<CHArc>(in, max_arcs);

  Require(ch.rank.size() == ch.num_vertices &&
              ch.level.size() == ch.num_vertices,
          "CH file arrays do not match the vertex count");
  for (const CHArc& a : ch.up_arcs) {
    Require(a.tail < ch.num_vertices && a.head < ch.num_vertices &&
                (a.via == kInvalidVertex || a.via < ch.num_vertices),
            "CH file contains out-of-range vertex ids");
    Require(ch.rank[a.tail] < ch.rank[a.head],
            "CH file upward arc violates rank order");
  }
  for (const CHArc& a : ch.down_arcs) {
    Require(a.tail < ch.num_vertices && a.head < ch.num_vertices &&
                (a.via == kInvalidVertex || a.via < ch.num_vertices),
            "CH file contains out-of-range vertex ids");
    Require(ch.rank[a.tail] > ch.rank[a.head],
            "CH file downward arc violates rank order");
  }
  return ch;
}

CHData ReadCHFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Require(in.good(), "cannot open file for reading: " + path);
  return ReadCH(in);
}

}  // namespace phast
