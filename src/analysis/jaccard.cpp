#include "src/analysis/jaccard.h"

#include <algorithm>

#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/store/interner.h"

namespace rs::analysis {

namespace {

// Stage-granular accounting: the pair loop itself stays untouched (the
// disabled-overhead gate in BENCH_obs.json protects it); counts are
// derived arithmetically after the loops complete.
void note_matrix(rs::obs::Span& span, std::size_t n) {
  auto& reg = rs::obs::Registry::global();
  if (!reg.enabled()) return;
  const std::uint64_t pairs = n < 2 ? 0 : n * (n - 1) / 2;
  span.set_items(pairs);
  reg.counter("analysis.jaccard_pairs").add(pairs);
  // Each pair reads two cached interned sets.
  reg.counter("analysis.set_cache_hits").add(2 * pairs);
}

}  // namespace

DistanceMatrix jaccard_matrix(const rs::store::StoreDatabase& db,
                              const JaccardOptions& options,
                              rs::exec::ThreadPool* pool,
                              const rs::store::CertInterner* interner) {
  rs::obs::Span matrix_span("jaccard/matrix");
  DistanceMatrix out;
  // Phase 1 (serial): select snapshots and fix the matrix order.
  std::vector<const rs::store::Snapshot*> chosen;
  for (const auto& [name, history] : db.histories()) {
    // Collect candidate indices honouring the date window.
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < history.size(); ++i) {
      const auto& s = history.snapshots()[i];
      if (options.min_date && s.date < *options.min_date) continue;
      if (options.max_date && s.date > *options.max_date) continue;
      idx.push_back(i);
    }
    // Uniform subsample if requested (keep ends, stride the middle).
    if (options.max_per_provider > 0 && idx.size() > options.max_per_provider) {
      std::vector<std::size_t> kept;
      if (options.max_per_provider == 1) {
        // A single slot leaves no stride to compute (the formula below
        // would divide by zero); keep the most recent in-window snapshot.
        kept.push_back(idx.back());
      } else {
        const double stride = static_cast<double>(idx.size() - 1) /
                              static_cast<double>(options.max_per_provider - 1);
        for (std::size_t k = 0; k < options.max_per_provider; ++k) {
          kept.push_back(idx[static_cast<std::size_t>(
              static_cast<double>(k) * stride + 0.5)]);
        }
        kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
      }
      idx = std::move(kept);
    }

    for (std::size_t i : idx) {
      const auto& s = history.snapshots()[i];
      out.labels.push_back(SnapshotRef{name, s.date, s.version, i});
      chosen.push_back(&s);
    }
  }

  const std::size_t n = out.labels.size();
  out.values.assign(n * n, 0.0);

  // Dense IDs + packed bitsets, so each pair costs a few popcounts per
  // cache line instead of a 32-bytes-per-element merge.  A caller-provided
  // interner (built once per database, so it covers every snapshot) is
  // reused; else intern the database here.
  rs::store::CertInterner local;
  if (interner == nullptr) {
    local = rs::store::CertInterner::from_database(db);
    interner = &local;
  }

  // Phase 2 (parallel): intern each snapshot's fingerprint set exactly once
  // (read-only on the shared interner).
  std::vector<rs::store::IdSet> sets(n);
  {
    rs::obs::Span span("jaccard/sets");
    span.set_items(n);
    rs::exec::parallel_for(pool, n, [&](std::size_t i) {
      sets[i] = interner->intern(options.set_kind == SetKind::kAllCertificates
                                     ? chosen[i]->all_fingerprints()
                                     : chosen[i]->tls_anchors());
    });
  }

  // Phase 3 (parallel): upper-triangle row blocks.  Each pair (i, j > i) is
  // computed by exactly one task and written to two distinct cells, so the
  // result is independent of scheduling.
  {
    rs::obs::Span span("jaccard/pairs");
    rs::exec::parallel_for(pool, n, [&](std::size_t i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d = rs::store::jaccard_distance(sets[i], sets[j]);
        out.values[i * n + j] = d;
        out.values[j * n + i] = d;
      }
    });
  }
  note_matrix(matrix_span, n);
  return out;
}

}  // namespace rs::analysis
