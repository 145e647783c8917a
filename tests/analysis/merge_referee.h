// Sorted-merge referee for the interned set-algebra engine.
//
// Production runs every analysis hot path (Figure 1's Jaccard matrix,
// Figure 3's closest-NSS-version matching and staleness series, Figure 4's
// derivative diffs, Table 6's exclusive roots) on dense-ID bitsets
// (src/store/interner.h).  This referee recomputes the same results with
// nothing but FingerprintSet linear merges over sorted 32-byte digests —
// no CertInterner, no IdSet — so a test can demand bit-identical answers
// from two independent implementations.  It is deliberately simple and
// serial; speed is not a goal.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/analysis/diffs.h"
#include "src/analysis/exclusive.h"
#include "src/analysis/jaccard.h"
#include "src/analysis/staleness.h"
#include "src/store/database.h"
#include "src/store/fingerprint_set.h"

namespace rs::referee {

/// Jaccard distance 1 - |A∩B| / |A∪B| by linear merges; two empty sets
/// have distance 0.
double jaccard_distance(const rs::store::FingerprintSet& a,
                        const rs::store::FingerprintSet& b);

/// Row-major distances between the labelled snapshots (the selection
/// analysis::jaccard_matrix made), each cell a merge over their sets.
std::vector<double> jaccard_values(
    const rs::store::StoreDatabase& db,
    const std::vector<rs::analysis::SnapshotRef>& labels,
    rs::analysis::SetKind kind);

/// NSS substantial versions: the first snapshot plus every snapshot whose
/// TLS-anchor set differs from its predecessor's.  Only `index`, `date`,
/// `label` and `tls_anchors` are filled (no interned form).
std::vector<rs::analysis::NssVersionIndex::Version> substantial_versions(
    const rs::store::ProviderHistory& nss);

/// The version whose `tls_anchors` is Jaccard-closest to `anchors`, ties
/// toward the earlier version; nullptr when `versions` is empty.
const rs::analysis::NssVersionIndex::Version* closest_version(
    const std::vector<rs::analysis::NssVersionIndex::Version>& versions,
    const rs::store::FingerprintSet& anchors);

/// Figure 3 series for `deriv` against `versions`.
rs::analysis::StalenessResult derivative_staleness(
    const rs::store::ProviderHistory& deriv,
    const std::vector<rs::analysis::NssVersionIndex::Version>& versions);

/// "Ever present in NSS" membership as plain FingerprintSet unions.
struct NssEver {
  rs::store::FingerprintSet any;  // every certificate of every snapshot
  rs::store::FingerprintSet tls;  // every TLS anchor of every snapshot
};
NssEver nss_ever(const rs::store::ProviderHistory& nss);

/// Figure 4 series for `deriv` against `versions` (drawn from `nss`).
rs::analysis::DerivativeDiffSeries derivative_diffs(
    const rs::store::ProviderHistory& deriv,
    const rs::store::ProviderHistory& nss,
    const std::vector<rs::analysis::NssVersionIndex::Version>& versions);

/// Table 6: each program's latest TLS anchors minus every other program's
/// ever-TLS-anchored union.  Programs absent from `db` are skipped.
std::vector<rs::analysis::ExclusiveSet> exclusive_roots(
    const rs::store::StoreDatabase& db,
    const std::vector<std::string>& programs);

}  // namespace rs::referee
