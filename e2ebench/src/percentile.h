// Latency summaries with an honest tail.
//
// A tail percentile is only reported when at least kMinBeyond samples lie
// beyond it; with fewer, the estimate is one or two samples and says more
// about luck than about the system.  An unresolved tail is replaced by the
// highest percentile that does have kMinBeyond samples beyond it, or by the
// median when none does, and the summary says which.  Failed or refused operations count as
// slower than every completed one: they are part of the sample count and
// sit beyond any percentile, so a run that drops requests cannot report a
// better tail than one that answers them slowly.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace e2e {

inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double q = 0;             // 0.5, 0.99, ...
  double value = 0;         // nearest-rank sample; +inf when a failure
  std::size_t beyond = 0;   // samples (failures included) ranked after it
  bool resolved = false;    // beyond >= kMinBeyond
};

struct LatencySummary {
  std::size_t samples = 0;   // completed operations
  std::size_t failures = 0;  // failed operations, ranked after all samples
  Percentile p50;
  Percentile tail;      // the percentile asked for
  Percentile reported;  // `tail` when resolved, else its stand-in

  std::size_t count() const noexcept { return samples + failures; }
  /// One line: "n=1234 (failed 0) p50=... p99=... (12 beyond)" or, for an
  /// unresolved tail, the reason and the stand-in used.
  std::string describe(const char* unit) const;
};

/// Nearest-rank percentile `q` in (0, 1] over `sorted` plus `failures`
/// entries ranked after every sample.  `sorted` must be ascending.
Percentile percentile(const std::vector<double>& sorted, std::size_t failures,
                      double q);

/// Median and tail percentile `tail_q` of `samples` (any order) with
/// `failures` failed operations.
LatencySummary summarize(std::vector<double> samples, std::size_t failures,
                         double tail_q = 0.99);

/// Median of `values` (any order); 0 for an empty vector.
double median(std::vector<double> values);

}  // namespace e2e
