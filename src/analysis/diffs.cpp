#include "src/analysis/diffs.h"

#include <map>

#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/store/interner.h"

namespace rs::analysis {

using rs::crypto::Sha256Digest;

const char* to_string(AddCategory c) noexcept {
  switch (c) {
    case AddCategory::kNonNssRoot:
      return "non-NSS root";
    case AddCategory::kEmailOnlyRoot:
      return "email-only root";
    case AddCategory::kReAddedRoot:
      return "re-added root";
    case AddCategory::kOther:
      return "other";
  }
  return "?";
}

const char* to_string(RemoveCategory c) noexcept {
  switch (c) {
    case RemoveCategory::kPartialDistrustFallout:
      return "partial-distrust fallout";
    case RemoveCategory::kCustomRemoval:
      return "custom removal";
  }
  return "?";
}

std::size_t SnapshotDiff::added_total() const noexcept {
  std::size_t n = 0;
  for (auto v : adds) n += v;
  return n;
}
std::size_t SnapshotDiff::removed_total() const noexcept {
  std::size_t n = 0;
  for (auto v : removes) n += v;
  return n;
}

DerivativeDiffSeries derivative_diffs(const rs::store::ProviderHistory& deriv,
                                      const rs::store::ProviderHistory& nss,
                                      const NssVersionIndex& index) {
  rs::obs::Span span("diffs/derivative");
  DerivativeDiffSeries out;
  out.provider = deriv.provider();

  // "Ever in NSS" sets as bitset unions, and first-TLS dates, for
  // categorization.
  const rs::store::CertInterner& interner = index.interner();
  rs::store::IdSet nss_ever_any;
  rs::store::IdSet nss_ever_tls;
  std::map<Sha256Digest, rs::util::Date> first_tls_date;
  for (const auto& snap : nss.snapshots()) {
    nss_ever_any |= interner.intern(snap.all_fingerprints());
    const auto tls = snap.tls_anchors();
    nss_ever_tls |= interner.intern(tls);
    for (const auto& fp : tls.items()) {
      first_tls_date.emplace(fp, snap.date);
    }
  }

  for (const auto& snap : deriv.snapshots()) {
    const auto deriv_tls = snap.tls_anchors();
    const auto* matched = index.closest_match(deriv_tls);
    if (matched == nullptr) continue;

    SnapshotDiff diff;
    diff.date = snap.date;
    diff.matched_version = matched->index;

    // Bitwise ANDNOT on dense IDs, in ascending ID order — the sorted
    // digest order a merge-based FingerprintSet::difference visits.
    const auto interned_tls = interner.intern(deriv_tls);
    for (const std::uint32_t id :
         interned_tls.difference(matched->tls_interned).ids()) {
      AddCategory cat;
      if (!nss_ever_any.contains(id)) {
        cat = AddCategory::kNonNssRoot;
      } else if (!nss_ever_tls.contains(id)) {
        cat = AddCategory::kEmailOnlyRoot;
      } else {
        const auto it = first_tls_date.find(interner.digest_of(id));
        cat = (it != first_tls_date.end() && it->second <= matched->date)
                  ? AddCategory::kReAddedRoot
                  : AddCategory::kOther;
      }
      ++diff.adds[static_cast<std::size_t>(cat)];
    }

    // Which matched-version entries carry partial distrust?
    // Find the NSS snapshot for this version to inspect entry trust bits.
    const rs::store::Snapshot* version_snap = nullptr;
    for (const auto& s : nss.snapshots()) {
      if (s.date == matched->date) {
        version_snap = &s;
        break;
      }
    }
    for (const std::uint32_t id :
         matched->tls_interned.difference(interned_tls).ids()) {
      RemoveCategory cat = RemoveCategory::kCustomRemoval;
      if (version_snap != nullptr) {
        if (const auto* entry = version_snap->find(interner.digest_of(id))) {
          if (entry->is_partially_distrusted_tls()) {
            cat = RemoveCategory::kPartialDistrustFallout;
          }
        }
      }
      ++diff.removes[static_cast<std::size_t>(cat)];
    }

    if (diff.added_total() + diff.removed_total() > 0) {
      out.ever_deviates = true;
    }
    out.points.push_back(diff);
  }
  span.set_items(out.points.size());
  rs::obs::Registry::global()
      .counter("analysis.diff_points")
      .add(out.points.size());
  return out;
}

}  // namespace rs::analysis
