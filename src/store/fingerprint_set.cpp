#include "src/store/fingerprint_set.h"

#include <algorithm>

namespace rs::store {

FingerprintSet::FingerprintSet(std::vector<rs::crypto::Sha256Digest> prints)
    : prints_(std::move(prints)) {
  std::sort(prints_.begin(), prints_.end());
  prints_.erase(std::unique(prints_.begin(), prints_.end()), prints_.end());
}

void FingerprintSet::insert(const rs::crypto::Sha256Digest& fp) {
  const auto it = std::lower_bound(prints_.begin(), prints_.end(), fp);
  if (it == prints_.end() || *it != fp) prints_.insert(it, fp);
}

bool FingerprintSet::contains(const rs::crypto::Sha256Digest& fp) const {
  return std::binary_search(prints_.begin(), prints_.end(), fp);
}

std::size_t FingerprintSet::intersection_size(const FingerprintSet& other) const {
  std::size_t count = 0;
  auto a = prints_.begin();
  auto b = other.prints_.begin();
  while (a != prints_.end() && b != other.prints_.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

std::size_t FingerprintSet::union_size(const FingerprintSet& other) const {
  return size() + other.size() - intersection_size(other);
}

FingerprintSet FingerprintSet::difference(const FingerprintSet& other) const {
  FingerprintSet out;
  std::set_difference(prints_.begin(), prints_.end(), other.prints_.begin(),
                      other.prints_.end(), std::back_inserter(out.prints_));
  return out;
}

FingerprintSet FingerprintSet::intersection(const FingerprintSet& other) const {
  FingerprintSet out;
  std::set_intersection(prints_.begin(), prints_.end(), other.prints_.begin(),
                        other.prints_.end(), std::back_inserter(out.prints_));
  return out;
}

FingerprintSet FingerprintSet::set_union(const FingerprintSet& other) const {
  FingerprintSet out;
  std::set_union(prints_.begin(), prints_.end(), other.prints_.begin(),
                 other.prints_.end(), std::back_inserter(out.prints_));
  return out;
}

}  // namespace rs::store
