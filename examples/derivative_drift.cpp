// derivative_drift: how far does an NSS derivative drift from NSS?
//
//   ./derivative_drift [provider]      (default: Debian)
//
// Reproduces the §6 per-provider view: every snapshot's matched NSS
// substantial version, staleness, and diff categories.
#include <cstdio>
#include <memory>
#include <string>

#include "src/analysis/diffs.h"
#include "src/analysis/staleness.h"
#include "src/synth/paper_scenario.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  const std::string provider = argc > 1 ? argv[1] : "Debian";
  auto scenario = rs::synth::build_paper_scenario();

  const auto* nss = scenario.database().find("NSS");
  const auto* deriv = scenario.database().find(provider);
  if (deriv == nullptr) {
    std::fprintf(stderr, "unknown provider '%s'; try one of:", provider.c_str());
    for (const auto& name : scenario.database().providers()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  const auto index = rs::analysis::build_version_index(
      *nss, std::make_shared<const rs::store::CertInterner>(
                rs::store::CertInterner::from_database(scenario.database())));
  const auto staleness = rs::analysis::derivative_staleness(*deriv, index);
  const auto diffs = rs::analysis::derivative_diffs(*deriv, *nss, index);

  std::printf("%s vs NSS (%zu substantial NSS versions)\n\n", provider.c_str(),
              index.size());

  rs::util::TextTable t({"Snapshot", "Matched NSS", "Behind", "Added",
                         "Removed", "Why"});
  t.set_align(2, rs::util::Align::kRight);
  t.set_align(3, rs::util::Align::kRight);
  t.set_align(4, rs::util::Align::kRight);
  for (std::size_t i = 0;
       i < staleness.points.size() && i < diffs.points.size(); ++i) {
    const auto& sp = staleness.points[i];
    const auto& dp = diffs.points[i];
    std::string why;
    for (std::size_t c = 0; c < dp.adds.size(); ++c) {
      if (dp.adds[c] > 0) {
        why += "+" + std::to_string(dp.adds[c]) + " " +
               rs::analysis::to_string(static_cast<rs::analysis::AddCategory>(c)) +
               "  ";
      }
    }
    for (std::size_t c = 0; c < dp.removes.size(); ++c) {
      if (dp.removes[c] > 0) {
        why += "-" + std::to_string(dp.removes[c]) + " " +
               rs::analysis::to_string(
                   static_cast<rs::analysis::RemoveCategory>(c)) +
               "  ";
      }
    }
    t.add_row({sp.date.to_string(), "v" + std::to_string(sp.matched_version),
               rs::util::fmt_double(sp.versions_behind, 0),
               std::to_string(dp.added_total()),
               std::to_string(dp.removed_total()), why});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf(
      "\naverage staleness: %.2f substantial versions  (always stale: %s, "
      "ever deviates: %s)\n",
      staleness.avg_versions_behind, staleness.always_stale ? "yes" : "no",
      diffs.ever_deviates ? "yes" : "no");
  return 0;
}
