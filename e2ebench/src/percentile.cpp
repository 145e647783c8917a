#include "e2ebench/src/percentile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace e2e {

Percentile percentile(const std::vector<double>& sorted, std::size_t failures,
                      double q) {
  Percentile p;
  p.q = q;
  const std::size_t n = sorted.size() + failures;
  if (n == 0) return p;
  // Nearest rank: the smallest sample with at least q·n samples at or
  // below it.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  p.value = rank <= sorted.size() ? sorted[rank - 1]
                                  : std::numeric_limits<double>::infinity();
  p.beyond = n - rank;
  p.resolved = p.beyond >= kMinBeyond;
  return p;
}

LatencySummary summarize(std::vector<double> samples, std::size_t failures,
                         double tail_q) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.samples = samples.size();
  s.failures = failures;
  s.p50 = percentile(samples, failures, 0.5);
  s.tail = percentile(samples, failures, tail_q);
  const std::size_t n = s.count();
  if (s.tail.resolved || std::isinf(s.tail.value)) {
    s.reported = s.tail;
  } else if (n > kMinBeyond) {
    // The rank with exactly kMinBeyond samples after it.
    s.reported = percentile(samples, failures,
                            static_cast<double>(n - kMinBeyond) /
                                static_cast<double>(n));
  } else {
    s.reported = s.p50;
  }
  return s;
}

namespace {

// "p99", "p80", "p98.9": one decimal, rounded down so a percentile just
// short of 99 never reads as p99.
std::string percentile_name(double q) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", std::floor(q * 1000 + 1e-9) / 10);
  std::string name = buf;
  if (name.size() > 2 && name.compare(name.size() - 2, 2, ".0") == 0) {
    name.resize(name.size() - 2);
  }
  return "p" + name;
}

}  // namespace

std::string LatencySummary::describe(const char* unit) const {
  char buf[320];
  const std::string tail_name = percentile_name(tail.q);
  if (tail.resolved || std::isinf(tail.value)) {
    std::snprintf(buf, sizeof buf, "n=%zu (failed %zu) p50=%.1f%s %s=%.1f%s "
                  "(%zu beyond)", count(), failures, p50.value, unit,
                  tail_name.c_str(), tail.value, unit, tail.beyond);
  } else {
    std::snprintf(buf, sizeof buf, "n=%zu (failed %zu) p50=%.1f%s %s "
                  "unresolved (%zu beyond, need %zu): %s=%.1f%s stands in",
                  count(), failures, p50.value, unit, tail_name.c_str(),
                  tail.beyond, kMinBeyond,
                  reported.q == p50.q ? "the median"
                                      : percentile_name(reported.q).c_str(),
                  reported.value, unit);
  }
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace e2e
