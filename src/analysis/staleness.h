// Derivative staleness against NSS substantial versions (Figure 3).
//
// A "substantial version" is an NSS snapshot that changed the TLS-trusted
// root set.  Each derivative snapshot is matched to its closest substantial
// version by Jaccard distance; the gap between that version and NSS's
// current version, integrated over time, yields the paper's
// "substantial-version-days" staleness measure.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/store/fingerprint_set.h"
#include "src/store/interner.h"
#include "src/store/snapshot.h"
#include "src/util/date.h"

namespace rs::analysis {

/// The ordered list of NSS substantial versions.
///
/// Each version also carries its TLS set interned as a bitset, so
/// closest_match scans via popcount instead of digest merges — same exact
/// cardinalities, so the matched version is identical (see
/// docs/INTERNING.md and the referee in tests/analysis/merge_referee.h).
/// The interner must cover every set the index meets: the NSS history and
/// each derivative matched against it.
class NssVersionIndex {
 public:
  struct Version {
    std::size_t index = 0;  // 1-based substantial version number
    rs::util::Date date;
    std::string label;      // snapshot version string
    rs::store::FingerprintSet tls_anchors;
    /// Interned form of tls_anchors.
    rs::store::IdSet tls_interned;
  };

  /// Interns every version's TLS set up front.  `interner` must not be
  /// null.
  NssVersionIndex(std::vector<Version> versions,
                  std::shared_ptr<const rs::store::CertInterner> interner);

  const std::vector<Version>& versions() const noexcept { return versions_; }
  std::size_t size() const noexcept { return versions_.size(); }

  /// The interner the index (and its dependent analyses) run on; never
  /// null.
  const rs::store::CertInterner& interner() const noexcept {
    return *interner_;
  }

  /// Latest substantial version dated on or before `when` (nullptr if none).
  const Version* current_at(rs::util::Date when) const;

  /// The version whose TLS set is Jaccard-closest to `anchors`
  /// (ties broken toward the earlier version).  nullptr if empty.  Throws
  /// std::out_of_range if `anchors` leaves the interner's universe.
  const Version* closest_match(const rs::store::FingerprintSet& anchors) const;

 private:
  std::vector<Version> versions_;
  std::shared_ptr<const rs::store::CertInterner> interner_;
};

/// Extracts substantial versions from the NSS history: the first snapshot
/// plus every snapshot whose TLS-anchor set differs from its predecessor.
/// `interner` fixes the dense-ID universe: an interner over the database
/// holding NSS and its derivatives (EcosystemStudy passes its own).
NssVersionIndex build_version_index(
    const rs::store::ProviderHistory& nss,
    std::shared_ptr<const rs::store::CertInterner> interner);

/// One derivative snapshot's staleness sample.
struct StalenessPoint {
  rs::util::Date date;
  std::size_t matched_version = 0;  // substantial version copied
  std::size_t current_version = 0;  // NSS's version at that date
  double versions_behind = 0;       // max(0, current - matched)
};

/// Figure 3 series for one derivative.
struct StalenessResult {
  std::string provider;
  std::vector<StalenessPoint> points;
  /// Time-weighted average versions-behind across the sampled range.
  double avg_versions_behind = 0;
  /// True if the derivative was behind at every sample ("always stale").
  bool always_stale = false;
};

/// Computes the staleness series, one point per matched snapshot in
/// snapshot order.
StalenessResult derivative_staleness(const rs::store::ProviderHistory& deriv,
                                     const NssVersionIndex& index);

}  // namespace rs::analysis
