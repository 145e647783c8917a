// Certificate-identity sets with the set algebra the analyses need.
//
// Every family/lineage computation in the paper reduces to set operations
// over SHA-256 fingerprints: Jaccard distance (Figure 1), derivative diffs
// (Figure 4), exclusive roots (Table 6).  FingerprintSet keeps a sorted
// unique vector so intersections/unions are linear merges; the analysis
// hot paths run the same algebra on interned bitsets (interner.h).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/crypto/digest.h"

namespace rs::store {

/// An immutable-ish sorted set of SHA-256 certificate fingerprints.
class FingerprintSet {
 public:
  FingerprintSet() = default;
  /// Builds from any order; sorts and deduplicates.
  explicit FingerprintSet(std::vector<rs::crypto::Sha256Digest> prints);

  void insert(const rs::crypto::Sha256Digest& fp);
  bool contains(const rs::crypto::Sha256Digest& fp) const;

  /// Pre-allocates for `n` elements.  Call sites that accumulate in a loop
  /// should prefer collecting into a vector and using the bulk constructor
  /// (one sort) over repeated sorted inserts (each O(n)).
  void reserve(std::size_t n) { prints_.reserve(n); }

  std::size_t size() const noexcept { return prints_.size(); }
  bool empty() const noexcept { return prints_.empty(); }
  const std::vector<rs::crypto::Sha256Digest>& items() const noexcept {
    return prints_;
  }

  std::size_t intersection_size(const FingerprintSet& other) const;
  std::size_t union_size(const FingerprintSet& other) const;

  /// Elements in this set but not in `other`.
  FingerprintSet difference(const FingerprintSet& other) const;
  FingerprintSet intersection(const FingerprintSet& other) const;
  FingerprintSet set_union(const FingerprintSet& other) const;

  friend bool operator==(const FingerprintSet&, const FingerprintSet&) = default;

 private:
  std::vector<rs::crypto::Sha256Digest> prints_;  // sorted, unique
};

}  // namespace rs::store
