#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace phast {

/// Compact dynamic bitset.
///
/// PHAST uses one visit bit per vertex for implicit distance-label
/// initialization (paper §IV-C): the upward CH search marks the vertices it
/// reaches, and the linear sweep treats unmarked labels as +infinity and
/// clears marks as it goes. std::vector<bool> is avoided because we need
/// word-level access (ClearAll via memset-like fill, popcount).
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t n, bool value = false) { Resize(n, value); }

  void Resize(size_t n, bool value = false) {
    n_ = n;
    words_.assign((n + 63) / 64, value ? ~uint64_t{0} : 0);
    TrimTail();
  }

  [[nodiscard]] size_t Size() const { return n_; }

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Clear(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  void Assign(size_t i, bool v) { v ? Set(i) : Clear(i); }

  [[nodiscard]] bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  [[nodiscard]] bool operator[](size_t i) const { return Get(i); }

  void ClearAll() { std::fill(words_.begin(), words_.end(), uint64_t{0}); }
  void SetAll() {
    std::fill(words_.begin(), words_.end(), ~uint64_t{0});
    TrimTail();
  }

  /// Number of set bits.
  [[nodiscard]] size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(__builtin_popcountll(w));
    return c;
  }

  /// Raw word access for kernels that test bits directly.
  [[nodiscard]] const uint64_t* Words() const { return words_.data(); }
  [[nodiscard]] uint64_t* Words() { return words_.data(); }
  [[nodiscard]] size_t NumWords() const { return words_.size(); }

  [[nodiscard]] bool AnySet() const {
    for (uint64_t w : words_)
      if (w != 0) return true;
    return false;
  }

 private:
  void TrimTail() {
    if (n_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << (n_ % 64)) - 1;
    }
  }

  size_t n_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace phast
