#include "src/landscape/presence.h"

#include <cstdio>

#include "src/obs/registry.h"
#include "src/obs/span.h"

namespace rs::landscape {

using rs::store::IdSet;

double agreement_score(std::size_t intersection,
                       std::size_t union_size) noexcept {
  if (union_size == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(union_size);
}

std::string format_ratio(double numerator, double denominator, int digits) {
  const double value = denominator == 0.0 ? 0.0 : numerator / denominator;
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

std::string format_agreement(std::size_t intersection,
                             std::size_t union_size) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6f",
                agreement_score(intersection, union_size));
  return buf;
}

std::vector<IdSet> exclusive_sets(
    const std::vector<const IdSet*>& candidates,
    const std::vector<const IdSet*>& held) {
  const std::size_t n = candidates.size();
  std::vector<IdSet> out(n);
  if (n == 0) return out;
  if (n == 1) {
    out[0] = *candidates[0];
    return out;
  }
  // prefix[i] = union of held[0..i); suffix[i] = union of held[i+1..n).
  // exclusive[i] = candidates[i] \ (prefix[i] | suffix[i]).
  std::vector<IdSet> prefix(n);
  for (std::size_t i = 1; i < n; ++i) {
    prefix[i] = prefix[i - 1];
    prefix[i] |= *held[i - 1];
  }
  IdSet suffix;
  for (std::size_t i = n; i-- > 0;) {
    IdSet others = prefix[i];
    others |= suffix;
    out[i] = candidates[i]->difference(others);
    suffix |= *held[i];
  }
  return out;
}

AgreementSummary agreement_summary(const std::vector<const IdSet*>& sets) {
  rs::obs::Span span("landscape/agreement");
  AgreementSummary out;
  const std::size_t n = sets.size();
  out.sizes.reserve(n);
  for (const IdSet* s : sets) out.sizes.push_back(s->size());

  // Union / intersection across all providers.
  if (n > 0) {
    IdSet all = *sets[0];
    IdSet common = *sets[0];
    for (std::size_t i = 1; i < n; ++i) {
      all |= *sets[i];
      common = common.intersection(*sets[i]);
    }
    out.union_size = all.size();
    out.intersection_size = common.size();
  }

  const auto exclusives = exclusive_sets(sets, sets);
  out.exclusive_counts.reserve(n);
  for (const IdSet& e : exclusives) out.exclusive_counts.push_back(e.size());

  // Pairwise overlaps over the upper triangle, row by row.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      out.pairs.push_back({a, b, sets[a]->intersection_size(*sets[b]),
                           sets[a]->union_size(*sets[b])});
    }
  }
  const std::size_t pair_count = out.pairs.size();
  span.set_items(pair_count);
  rs::obs::Registry::global().counter("landscape.pairs_scored")
      .add(pair_count);
  return out;
}

}  // namespace rs::landscape
