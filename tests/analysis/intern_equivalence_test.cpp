// Interned engine vs the sorted-merge referee on the curated paper
// scenario: the dense-ID bitset engine, on the database-wide interner, must
// reproduce bit-for-bit what plain FingerprintSet merges compute
// (tests/analysis/merge_referee.h) — Jaccard matrices, closest-version
// matches, staleness series, diff series, and exclusive roots — for any
// worker count.  This is the contract that lets the hot paths run on
// bitsets without a caller-visible change; see docs/INTERNING.md.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/analysis/diffs.h"
#include "src/analysis/exclusive.h"
#include "src/analysis/jaccard.h"
#include "src/analysis/staleness.h"
#include "src/exec/thread_pool.h"
#include "src/store/interner.h"
#include "src/synth/paper_scenario.h"
#include "tests/analysis/merge_referee.h"

namespace rs::analysis {
namespace {

const rs::synth::PaperScenario& scenario() {
  static const rs::synth::PaperScenario s = rs::synth::build_paper_scenario();
  return s;
}

std::shared_ptr<const rs::store::CertInterner> db_interner() {
  static const auto interner =
      std::make_shared<const rs::store::CertInterner>(
          rs::store::CertInterner::from_database(scenario().database()));
  return interner;
}

JaccardOptions figure1_options() {
  JaccardOptions opts;
  opts.min_date = rs::util::Date::ymd(2011, 1, 1);
  opts.max_per_provider = 20;
  return opts;
}

constexpr const char* kDerivatives[] = {"Alpine", "AmazonLinux", "Android",
                                        "NodeJS", "Debian",      "Ubuntu"};

TEST(InternEquivalence, JaccardMatrixBitwiseIdentical) {
  // No interner passed: the matrix interns the database itself.
  const auto interned = jaccard_matrix(scenario().database(), figure1_options());
  ASSERT_GT(interned.size(), 0u);
  const auto referee = rs::referee::jaccard_values(
      scenario().database(), interned.labels, SetKind::kAllCertificates);
  ASSERT_EQ(interned.values.size(), referee.size());
  EXPECT_TRUE(interned.values == referee);

  // Interned against the shared database-wide interner, serial and pooled.
  const auto shared = jaccard_matrix(scenario().database(), figure1_options(),
                                     nullptr, db_interner().get());
  EXPECT_TRUE(shared.values == referee);
  rs::exec::ThreadPool pool(3);
  const auto pooled = jaccard_matrix(scenario().database(), figure1_options(),
                                     &pool, db_interner().get());
  EXPECT_TRUE(pooled.values == referee);
}

TEST(InternEquivalence, JaccardTlsAnchorsKind) {
  auto opts = figure1_options();
  opts.set_kind = SetKind::kTlsAnchors;
  const auto interned = jaccard_matrix(scenario().database(), opts, nullptr,
                                       db_interner().get());
  ASSERT_GT(interned.size(), 0u);
  const auto referee = rs::referee::jaccard_values(
      scenario().database(), interned.labels, SetKind::kTlsAnchors);
  ASSERT_EQ(interned.values.size(), referee.size());
  EXPECT_TRUE(interned.values == referee);
}

TEST(InternEquivalence, ClosestMatchAgreesForEveryDerivativeSnapshot) {
  const auto* nss = scenario().database().find("NSS");
  ASSERT_NE(nss, nullptr);
  const auto interned_index = build_version_index(*nss, db_interner());
  const auto referee_versions = rs::referee::substantial_versions(*nss);
  ASSERT_EQ(interned_index.size(), referee_versions.size());
  EXPECT_GT(interned_index.interner().size(), 0u);
  for (std::size_t i = 0; i < referee_versions.size(); ++i) {
    EXPECT_EQ(interned_index.versions()[i].index, referee_versions[i].index);
    EXPECT_EQ(interned_index.versions()[i].date, referee_versions[i].date);
    EXPECT_TRUE(interned_index.versions()[i].tls_anchors ==
                referee_versions[i].tls_anchors);
  }

  for (const char* name : kDerivatives) {
    const auto* h = scenario().database().find(name);
    ASSERT_NE(h, nullptr) << name;
    for (const auto& snap : h->snapshots()) {
      const auto anchors = snap.tls_anchors();
      const auto* referee_match =
          rs::referee::closest_version(referee_versions, anchors);
      const auto* interned_match = interned_index.closest_match(anchors);
      // The referee's merge scan over the production index's own versions.
      const auto* cross_check =
          rs::referee::closest_version(interned_index.versions(), anchors);
      ASSERT_NE(referee_match, nullptr);
      ASSERT_NE(interned_match, nullptr);
      EXPECT_EQ(interned_match->index, referee_match->index)
          << name << " @ " << snap.date.to_string();
      EXPECT_EQ(cross_check->index, referee_match->index);
    }
  }
}

TEST(InternEquivalence, StalenessSeriesIdentical) {
  const auto* nss = scenario().database().find("NSS");
  ASSERT_NE(nss, nullptr);
  const auto interned_index = build_version_index(*nss, db_interner());
  const auto referee_versions = rs::referee::substantial_versions(*nss);

  for (const char* name : kDerivatives) {
    const auto* h = scenario().database().find(name);
    ASSERT_NE(h, nullptr) << name;
    const auto referee = rs::referee::derivative_staleness(*h, referee_versions);
    const auto interned = derivative_staleness(*h, interned_index);
    ASSERT_EQ(interned.points.size(), referee.points.size()) << name;
    EXPECT_EQ(interned.avg_versions_behind, referee.avg_versions_behind)
        << name;
    EXPECT_EQ(interned.always_stale, referee.always_stale) << name;
    for (std::size_t i = 0; i < referee.points.size(); ++i) {
      EXPECT_EQ(interned.points[i].date, referee.points[i].date)
          << name << " point " << i;
      EXPECT_EQ(interned.points[i].matched_version,
                referee.points[i].matched_version)
          << name << " point " << i;
      EXPECT_EQ(interned.points[i].current_version,
                referee.points[i].current_version)
          << name << " point " << i;
      EXPECT_EQ(interned.points[i].versions_behind,
                referee.points[i].versions_behind)
          << name << " point " << i;
    }
  }
}

TEST(InternEquivalence, DiffSeriesIdentical) {
  const auto* nss = scenario().database().find("NSS");
  ASSERT_NE(nss, nullptr);
  const auto interned_index = build_version_index(*nss, db_interner());
  const auto referee_versions = rs::referee::substantial_versions(*nss);
  // The referee's ever-TLS union agrees with the database's own scan.
  EXPECT_TRUE(rs::referee::nss_ever(*nss).tls ==
              scenario().database().tls_roots_ever("NSS"));

  for (const char* name : kDerivatives) {
    const auto* h = scenario().database().find(name);
    ASSERT_NE(h, nullptr) << name;
    const auto referee =
        rs::referee::derivative_diffs(*h, *nss, referee_versions);
    const auto interned = derivative_diffs(*h, *nss, interned_index);
    ASSERT_EQ(interned.points.size(), referee.points.size()) << name;
    EXPECT_EQ(interned.ever_deviates, referee.ever_deviates) << name;
    for (std::size_t i = 0; i < referee.points.size(); ++i) {
      EXPECT_EQ(interned.points[i].date, referee.points[i].date)
          << name << " point " << i;
      EXPECT_EQ(interned.points[i].matched_version,
                referee.points[i].matched_version)
          << name << " point " << i;
      EXPECT_EQ(interned.points[i].adds, referee.points[i].adds)
          << name << " point " << i;
      EXPECT_EQ(interned.points[i].removes, referee.points[i].removes)
          << name << " point " << i;
    }
  }
}

TEST(InternEquivalence, ExclusiveRootsIdentical) {
  const std::vector<std::string> programs = {"NSS", "Java", "Apple",
                                             "Microsoft"};
  const auto referee =
      rs::referee::exclusive_roots(scenario().database(), programs);
  const auto interned =
      exclusive_roots(scenario().database(), programs, *db_interner());
  ASSERT_EQ(interned.size(), referee.size());
  for (std::size_t i = 0; i < referee.size(); ++i) {
    EXPECT_EQ(interned[i].program, referee[i].program);
    EXPECT_EQ(interned[i].roots, referee[i].roots) << referee[i].program;
  }
}

}  // namespace
}  // namespace rs::analysis
