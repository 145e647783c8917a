#include "src/analysis/diffs.h"

#include <map>
#include <optional>

#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/store/interner.h"

namespace rs::analysis {

using rs::crypto::Sha256Digest;
using rs::store::FingerprintSet;

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

namespace {

// "Ever present in NSS" membership, accumulated as an interned bitset (OR
// per snapshot, O(words)).  Digests outside the interner universe fall back
// to a sorted extras set, so membership answers are exact for any interner.
class EverSet {
 public:
  void accumulate(const FingerprintSet& fps,
                  const rs::store::CertInterner& interner) {
    auto interned = interner.intern(fps);
    ids_ |= interned.ids;
    extra_prints_.insert(extra_prints_.end(), interned.unmapped.begin(),
                         interned.unmapped.end());
  }

  void seal() { extras_ = FingerprintSet(std::move(extra_prints_)); }

  bool contains(const Sha256Digest& fp,
                const rs::store::CertInterner& interner) const {
    if (const auto id = interner.id_of(fp)) return ids_.contains(*id);
    return extras_.contains(fp);
  }

 private:
  rs::store::IdSet ids_;
  std::vector<Sha256Digest> extra_prints_;
  FingerprintSet extras_;
};

}  // namespace

DerivativeDiffSeries derivative_diffs(const rs::store::ProviderHistory& deriv,
                                      const rs::store::ProviderHistory& nss,
                                      const NssVersionIndex& index,
                                      rs::exec::ThreadPool* pool) {
  rs::obs::Span span("diffs/derivative");
  DerivativeDiffSeries out;
  out.provider = deriv.provider();

  // NSS-ever sets and first-TLS dates, for categorization (serial: each
  // step folds into the previous union).  Everything below only reads them.
  const rs::store::CertInterner& interner = index.interner();
  EverSet nss_ever_any;
  EverSet nss_ever_tls;
  std::map<Sha256Digest, rs::util::Date> first_tls_date;
  for (const auto& snap : nss.snapshots()) {
    nss_ever_any.accumulate(snap.all_fingerprints(), interner);
    const auto tls = snap.tls_anchors();
    nss_ever_tls.accumulate(tls, interner);
    for (const auto& fp : tls.items()) {
      first_tls_date.emplace(fp, snap.date);
    }
  }
  nss_ever_any.seal();
  nss_ever_tls.seal();

  // Each derivative snapshot diffs against the shared read-only index
  // independently; results land in per-snapshot slots and are collected in
  // snapshot order afterwards.
  const auto& snaps = deriv.snapshots();
  std::vector<std::optional<SnapshotDiff>> results(snaps.size());
  rs::exec::parallel_for(pool, snaps.size(), [&](std::size_t k) {
    const auto& snap = snaps[k];
    const auto deriv_tls = snap.tls_anchors();
    const auto* matched = index.closest_match(deriv_tls);
    if (matched == nullptr) return;

    SnapshotDiff diff;
    diff.date = snap.date;
    diff.matched_version = matched->index;

    // Bitwise ANDNOT on dense IDs; materializes the same sorted digests as
    // a merge-based FingerprintSet::difference.
    const auto interned_tls = interner.intern(deriv_tls);
    const FingerprintSet added = rs::store::set_difference(
        interned_tls, matched->tls_interned, interner);
    const FingerprintSet removed = rs::store::set_difference(
        matched->tls_interned, interned_tls, interner);

    for (const auto& fp : added.items()) {
      AddCategory cat;
      if (!nss_ever_any.contains(fp, interner)) {
        cat = AddCategory::kNonNssRoot;
      } else if (!nss_ever_tls.contains(fp, interner)) {
        cat = AddCategory::kEmailOnlyRoot;
      } else {
        const auto it = first_tls_date.find(fp);
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
    for (const auto& fp : removed.items()) {
      RemoveCategory cat = RemoveCategory::kCustomRemoval;
      if (version_snap != nullptr) {
        if (const auto* entry = version_snap->find(fp)) {
          if (entry->is_partially_distrusted_tls()) {
            cat = RemoveCategory::kPartialDistrustFallout;
          }
        }
      }
      ++diff.removes[static_cast<std::size_t>(cat)];
    }

    results[k] = diff;
  });

  for (const auto& diff : results) {
    if (!diff) continue;
    if (diff->added_total() + diff->removed_total() > 0) {
      out.ever_deviates = true;
    }
    out.points.push_back(*diff);
  }
  span.set_items(out.points.size());
  rs::obs::Registry::global()
      .counter("analysis.diff_points")
      .add(out.points.size());
  return out;
}

}  // namespace rs::analysis
