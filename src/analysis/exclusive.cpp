#include "src/analysis/exclusive.h"

#include <vector>

#include "src/landscape/presence.h"
#include "src/store/id_set.h"

namespace rs::analysis {

std::vector<ExclusiveSet> exclusive_roots(
    const rs::store::StoreDatabase& db,
    const std::vector<std::string>& programs,
    const rs::store::CertInterner& interner) {
  // Candidates: each program's latest TLS anchors.  Held: each program's
  // ever-TLS-trusted set.  The landscape presence-vector primitive then
  // answers "latest \ union of the others' ever" for every program in one
  // prefix/suffix union pass (docs/LANDSCAPE.md).
  std::vector<std::string> names;
  std::vector<rs::store::IdSet> candidates;
  std::vector<rs::store::IdSet> held;
  for (const auto& name : programs) {
    const auto* history = db.find(name);
    if (history == nullptr || history->empty()) continue;
    names.push_back(name);
    candidates.push_back(interner.intern(history->back().tls_anchors()));
    held.push_back(interner.intern(db.tls_roots_ever(name)));
  }
  std::vector<const rs::store::IdSet*> candidate_views;
  std::vector<const rs::store::IdSet*> held_views;
  for (std::size_t i = 0; i < names.size(); ++i) {
    candidate_views.push_back(&candidates[i]);
    held_views.push_back(&held[i]);
  }
  const auto exclusive =
      rs::landscape::exclusive_sets(candidate_views, held_views);

  std::vector<ExclusiveSet> out;
  out.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    ExclusiveSet ex;
    ex.program = names[i];
    // IdSet::ids() ascends in sorted-digest order, matching the sorted
    // FingerprintSet iteration the previous implementation used — the
    // golden Table 6 bytes are pinned on it.
    ex.roots = interner.materialize(exclusive[i]).items();
    out.push_back(std::move(ex));
  }
  return out;
}

}  // namespace rs::analysis
