#include "src/analysis/staleness.h"

#include <cassert>

#include "src/obs/registry.h"
#include "src/obs/span.h"

namespace rs::analysis {

using rs::store::FingerprintSet;
using rs::util::Date;

NssVersionIndex::NssVersionIndex(
    std::vector<Version> versions,
    std::shared_ptr<const rs::store::CertInterner> interner)
    : versions_(std::move(versions)), interner_(std::move(interner)) {
  assert(interner_ != nullptr && "NssVersionIndex needs an interner");
  for (auto& v : versions_) v.tls_interned = interner_->intern(v.tls_anchors);
}

const NssVersionIndex::Version* NssVersionIndex::current_at(Date when) const {
  const Version* best = nullptr;
  for (const auto& v : versions_) {
    if (v.date <= when) best = &v;
    else break;
  }
  return best;
}

const NssVersionIndex::Version* NssVersionIndex::closest_match(
    const FingerprintSet& anchors) const {
  // Intern the query once, then every version comparison is a popcount
  // scan.  The cardinalities (and hence the distances and the argmin) are
  // exactly those of a sorted-merge scan over the digest sets.
  const auto query = interner_->intern(anchors);
  const Version* best = nullptr;
  double best_dist = 2.0;
  for (const auto& v : versions_) {
    const double d = rs::store::jaccard_distance(query, v.tls_interned);
    if (d < best_dist) {  // strict: ties keep the earlier version
      best_dist = d;
      best = &v;
    }
  }
  return best;
}

namespace {

std::vector<NssVersionIndex::Version> substantial_versions(
    const rs::store::ProviderHistory& nss) {
  std::vector<NssVersionIndex::Version> versions;
  FingerprintSet previous;
  bool first = true;
  for (const auto& snap : nss.snapshots()) {
    FingerprintSet tls = snap.tls_anchors();
    if (first || !(tls == previous)) {
      NssVersionIndex::Version v;
      v.index = versions.size() + 1;
      v.date = snap.date;
      v.label = snap.version;
      v.tls_anchors = tls;
      versions.push_back(std::move(v));
      previous = std::move(tls);
      first = false;
    }
  }
  return versions;
}

}  // namespace

NssVersionIndex build_version_index(
    const rs::store::ProviderHistory& nss,
    std::shared_ptr<const rs::store::CertInterner> interner) {
  rs::obs::Span span("staleness/version_index");
  return NssVersionIndex(substantial_versions(nss), std::move(interner));
}

StalenessResult derivative_staleness(const rs::store::ProviderHistory& deriv,
                                     const NssVersionIndex& index) {
  rs::obs::Span stage_span("staleness/derivative");
  StalenessResult out;
  out.provider = deriv.provider();
  if (deriv.empty() || index.size() == 0) return out;
  stage_span.set_items(deriv.size());
  rs::obs::Registry::global()
      .counter("analysis.staleness_matches")
      .add(deriv.size());

  out.always_stale = true;
  for (const auto& snap : deriv.snapshots()) {
    const auto* matched = index.closest_match(snap.tls_anchors());
    const auto* current = index.current_at(snap.date);
    if (matched == nullptr || current == nullptr) continue;
    StalenessPoint p;
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

  // Time-weighted integral (piecewise-constant between samples).
  if (out.points.size() == 1) {
    out.avg_versions_behind = out.points[0].versions_behind;
  } else if (out.points.size() > 1) {
    double integral = 0.0;
    double total_days = 0.0;
    for (std::size_t i = 0; i + 1 < out.points.size(); ++i) {
      const double span =
          static_cast<double>(out.points[i + 1].date - out.points[i].date);
      integral += out.points[i].versions_behind * span;
      total_days += span;
    }
    out.avg_versions_behind = total_days > 0 ? integral / total_days : 0.0;
  }
  return out;
}

}  // namespace rs::analysis
