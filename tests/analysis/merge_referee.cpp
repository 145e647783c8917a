#include "tests/analysis/merge_referee.h"

#include <map>

namespace rs::referee {

using rs::analysis::NssVersionIndex;
using rs::store::FingerprintSet;
using Version = NssVersionIndex::Version;

double jaccard_distance(const FingerprintSet& a, const FingerprintSet& b) {
  const std::size_t uni = a.union_size(b);
  if (uni == 0) return 0.0;  // both empty: identical
  const std::size_t inter = a.intersection_size(b);
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

std::vector<double> jaccard_values(
    const rs::store::StoreDatabase& db,
    const std::vector<rs::analysis::SnapshotRef>& labels,
    rs::analysis::SetKind kind) {
  std::vector<FingerprintSet> sets;
  sets.reserve(labels.size());
  for (const auto& label : labels) {
    const auto& snap =
        db.find(label.provider)->snapshots().at(label.provider_index);
    sets.push_back(kind == rs::analysis::SetKind::kAllCertificates
                       ? snap.all_fingerprints()
                       : snap.tls_anchors());
  }
  const std::size_t n = sets.size();
  std::vector<double> values(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      values[i * n + j] = jaccard_distance(sets[i], sets[j]);
    }
  }
  return values;
}

std::vector<Version> substantial_versions(
    const rs::store::ProviderHistory& nss) {
  std::vector<Version> versions;
  for (const auto& snap : nss.snapshots()) {
    FingerprintSet tls = snap.tls_anchors();
    if (!versions.empty() && tls == versions.back().tls_anchors) continue;
    Version v;
    v.index = versions.size() + 1;
    v.date = snap.date;
    v.label = snap.version;
    v.tls_anchors = std::move(tls);
    versions.push_back(std::move(v));
  }
  return versions;
}

const Version* closest_version(const std::vector<Version>& versions,
                               const FingerprintSet& anchors) {
  const Version* best = nullptr;
  double best_dist = 2.0;
  for (const auto& v : versions) {
    const double d = jaccard_distance(anchors, v.tls_anchors);
    if (d < best_dist) {  // strict: ties keep the earlier version
      best_dist = d;
      best = &v;
    }
  }
  return best;
}

namespace {

// Latest version dated on or before `when`, or nullptr.
const Version* current_at(const std::vector<Version>& versions,
                          rs::util::Date when) {
  const Version* best = nullptr;
  for (const auto& v : versions) {
    if (v.date <= when) best = &v;
  }
  return best;
}

}  // namespace

rs::analysis::StalenessResult derivative_staleness(
    const rs::store::ProviderHistory& deriv,
    const std::vector<Version>& versions) {
  rs::analysis::StalenessResult out;
  out.provider = deriv.provider();
  if (deriv.empty() || versions.empty()) return out;

  out.always_stale = true;
  for (const auto& snap : deriv.snapshots()) {
    const Version* matched = closest_version(versions, snap.tls_anchors());
    const Version* current = current_at(versions, snap.date);
    if (matched == nullptr || current == nullptr) continue;
    rs::analysis::StalenessPoint p;
    p.date = snap.date;
    p.matched_version = matched->index;
    p.current_version = current->index;
    p.versions_behind =
        matched->index >= current->index
            ? 0.0
            : static_cast<double>(current->index - matched->index);
    if (p.versions_behind == 0.0) out.always_stale = false;
    out.points.push_back(p);
  }

  // Piecewise-constant time-weighted mean between consecutive samples.
  const auto& pts = out.points;
  if (pts.size() == 1) {
    out.avg_versions_behind = pts[0].versions_behind;
  } else if (pts.size() > 1) {
    double integral = 0.0;
    double total_days = 0.0;
    for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
      const double days = static_cast<double>(pts[i + 1].date - pts[i].date);
      integral += pts[i].versions_behind * days;
      total_days += days;
    }
    out.avg_versions_behind = total_days > 0 ? integral / total_days : 0.0;
  }
  return out;
}

NssEver nss_ever(const rs::store::ProviderHistory& nss) {
  NssEver ever;
  for (const auto& snap : nss.snapshots()) {
    ever.any = ever.any.set_union(snap.all_fingerprints());
    ever.tls = ever.tls.set_union(snap.tls_anchors());
  }
  return ever;
}

rs::analysis::DerivativeDiffSeries derivative_diffs(
    const rs::store::ProviderHistory& deriv,
    const rs::store::ProviderHistory& nss,
    const std::vector<Version>& versions) {
  using rs::analysis::AddCategory;
  using rs::analysis::RemoveCategory;
  rs::analysis::DerivativeDiffSeries out;
  out.provider = deriv.provider();

  const NssEver ever = nss_ever(nss);
  std::map<rs::crypto::Sha256Digest, rs::util::Date> first_tls_date;
  for (const auto& snap : nss.snapshots()) {
    const FingerprintSet tls = snap.tls_anchors();
    for (const auto& fp : tls.items()) {
      first_tls_date.emplace(fp, snap.date);  // keeps the earliest
    }
  }

  for (const auto& snap : deriv.snapshots()) {
    const FingerprintSet deriv_tls = snap.tls_anchors();
    const Version* matched = closest_version(versions, deriv_tls);
    if (matched == nullptr) continue;

    rs::analysis::SnapshotDiff diff;
    diff.date = snap.date;
    diff.matched_version = matched->index;

    const FingerprintSet added = deriv_tls.difference(matched->tls_anchors);
    for (const auto& fp : added.items()) {
      AddCategory cat = AddCategory::kOther;
      if (!ever.any.contains(fp)) {
        cat = AddCategory::kNonNssRoot;
      } else if (!ever.tls.contains(fp)) {
        cat = AddCategory::kEmailOnlyRoot;
      } else if (first_tls_date.at(fp) <= matched->date) {
        cat = AddCategory::kReAddedRoot;
      }
      ++diff.adds[static_cast<std::size_t>(cat)];
    }

    // Partial-distrust bits live on the NSS snapshot the version came from.
    const rs::store::Snapshot* version_snap = nullptr;
    for (const auto& s : nss.snapshots()) {
      if (s.date == matched->date) {
        version_snap = &s;
        break;
      }
    }
    const FingerprintSet removed = matched->tls_anchors.difference(deriv_tls);
    for (const auto& fp : removed.items()) {
      const rs::store::TrustEntry* entry =
          version_snap == nullptr ? nullptr : version_snap->find(fp);
      const RemoveCategory cat =
          entry != nullptr && entry->is_partially_distrusted_tls()
              ? RemoveCategory::kPartialDistrustFallout
              : RemoveCategory::kCustomRemoval;
      ++diff.removes[static_cast<std::size_t>(cat)];
    }

    if (diff.added_total() + diff.removed_total() > 0) out.ever_deviates = true;
    out.points.push_back(diff);
  }
  return out;
}

std::vector<rs::analysis::ExclusiveSet> exclusive_roots(
    const rs::store::StoreDatabase& db,
    const std::vector<std::string>& programs) {
  struct Program {
    std::string name;
    FingerprintSet ever;    // union of every snapshot's TLS anchors
    FingerprintSet latest;  // the newest snapshot's TLS anchors
  };
  std::vector<Program> present;
  for (const auto& name : programs) {
    const auto* history = db.find(name);
    if (history == nullptr || history->empty()) continue;
    Program p;
    p.name = name;
    for (const auto& snap : history->snapshots()) {
      p.ever = p.ever.set_union(snap.tls_anchors());
    }
    p.latest = history->back().tls_anchors();
    present.push_back(std::move(p));
  }

  std::vector<rs::analysis::ExclusiveSet> out;
  for (std::size_t i = 0; i < present.size(); ++i) {
    FingerprintSet others;
    for (std::size_t j = 0; j < present.size(); ++j) {
      if (j != i) others = others.set_union(present[j].ever);
    }
    out.push_back({present[i].name, present[i].latest.difference(others).items()});
  }
  return out;
}

}  // namespace rs::referee
