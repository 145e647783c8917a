#include "src/formats/dataset_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "src/synth/simulator.h"
#include "src/util/hex.h"
#include "src/x509/builder.h"

namespace rs::formats {
namespace {

namespace fs = std::filesystem;
using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::store::StoreDatabase;
using rs::util::Date;

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest schedules each discovered test as its own
    // process, so a shared directory races under `ctest -j`.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("rs_dataset_test_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

StoreDatabase small_db() {
  auto cert = [](std::uint64_t seed) {
    rs::x509::Name n;
    n.add_common_name("Dataset Root " + std::to_string(seed));
    return std::make_shared<const rs::x509::Certificate>(
        rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
  };
  StoreDatabase db;
  ProviderHistory a("ProvA");
  {
    Snapshot s;
    s.provider = "ProvA";
    s.date = Date::ymd(2020, 1, 1);
    s.version = "v1";
    auto entry = rs::store::make_tls_anchor(cert(1));
    entry.trust_for(rs::store::TrustPurpose::kServerAuth).distrust_after =
        Date::ymd(2021, 1, 1);
    s.entries = {entry};
    a.add(std::move(s));
  }
  {
    Snapshot s;
    s.provider = "ProvA";
    s.date = Date::ymd(2020, 6, 1);
    s.version = "v2";
    s.entries = {rs::store::make_tls_anchor(cert(1)),
                 rs::store::make_tls_anchor(cert(2))};
    a.add(std::move(s));
  }
  db.add(std::move(a));
  ProviderHistory b("ProvB");
  {
    Snapshot s;
    s.provider = "ProvB";
    s.date = Date::ymd(2020, 3, 1);
    s.version = "r7";
    s.entries = {rs::store::make_anchor_for(
        cert(3), {rs::store::TrustPurpose::kEmailProtection})};
    b.add(std::move(s));
  }
  db.add(std::move(b));
  return db;
}

TEST_F(DatasetIoTest, RoundTripPreservesEverything) {
  const StoreDatabase original = small_db();
  auto written = write_dataset(original, dir_.string());
  ASSERT_TRUE(written.ok()) << written.error();
  ASSERT_TRUE(fs::exists(dir_ / "MANIFEST"));

  auto loaded = load_dataset(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  const auto& db = loaded.value();
  EXPECT_EQ(db.provider_count(), 2u);
  EXPECT_EQ(db.total_snapshots(), 3u);

  const auto* a = db.find("ProvA");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 2u);
  EXPECT_EQ(a->snapshots()[0].version, "v1");
  EXPECT_EQ(a->snapshots()[0].date, Date::ymd(2020, 1, 1));
  // Trust fidelity through RSTS: the cutoff survives.
  ASSERT_EQ(a->snapshots()[0].entries.size(), 1u);
  EXPECT_EQ(a->snapshots()[0]
                .entries[0]
                .trust_for(rs::store::TrustPurpose::kServerAuth)
                .distrust_after,
            Date::ymd(2021, 1, 1));
  // Certificates byte-identical.
  const auto* orig_a = original.find("ProvA");
  EXPECT_EQ(a->snapshots()[1].entries[1].certificate->der(),
            orig_a->snapshots()[1].entries[1].certificate->der());

  const auto* b = db.find("ProvB");
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->snapshots()[0].entries[0].is_tls_anchor());
}

TEST_F(DatasetIoTest, SameDaySnapshotsGetDistinctFiles) {
  StoreDatabase db = small_db();
  ProviderHistory dup("Dup");
  for (int i = 0; i < 3; ++i) {
    Snapshot s;
    s.provider = "Dup";
    s.date = Date::ymd(2020, 5, 5);
    s.version = "v" + std::to_string(i);
    dup.add(std::move(s));
  }
  db.add(std::move(dup));
  ASSERT_TRUE(write_dataset(db, dir_.string()).ok());
  auto loaded = load_dataset(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().find("Dup")->size(), 3u);
}

TEST_F(DatasetIoTest, MissingManifestFails) {
  fs::create_directories(dir_);
  auto loaded = load_dataset(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("MANIFEST"), std::string::npos);
}

TEST_F(DatasetIoTest, BadHeaderFails) {
  fs::create_directories(dir_);
  std::ofstream(dir_ / "MANIFEST") << "WRONG 9\n";
  EXPECT_FALSE(load_dataset(dir_.string()).ok());
}

TEST_F(DatasetIoTest, MissingSnapshotFileFails) {
  ASSERT_TRUE(write_dataset(small_db(), dir_.string()).ok());
  // Delete one referenced file.
  fs::remove(dir_ / "ProvB" / "2020-03-01.rsts");
  auto loaded = load_dataset(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("missing snapshot"), std::string::npos);
}

TEST_F(DatasetIoTest, CorruptSnapshotFails) {
  ASSERT_TRUE(write_dataset(small_db(), dir_.string()).ok());
  std::ofstream(dir_ / "ProvB" / "2020-03-01.rsts") << "RSTS 1\nroot\n";
  EXPECT_FALSE(load_dataset(dir_.string()).ok());
}

TEST_F(DatasetIoTest, SimulatedEcosystemRoundTrips) {
  rs::synth::SimulatorConfig cfg;
  cfg.seed = 77;
  cfg.ca_count = 30;
  cfg.program_count = 1;
  cfg.derivative_count = 1;
  cfg.snapshot_interval_days = 365;
  const auto eco = rs::synth::simulate_ecosystem(cfg);
  ASSERT_TRUE(write_dataset(eco.database, dir_.string()).ok());
  auto loaded = load_dataset(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().total_snapshots(), eco.database.total_snapshots());
  // Spot-check a fingerprint set.
  const auto* orig = eco.database.find("Prog0");
  const auto* back = loaded.value().find("Prog0");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(orig->back().all_fingerprints(), back->back().all_fingerprints());
}

TEST_F(DatasetIoTest, LyingPinInLaterSnapshotFailsLoad) {
  // cert(1) is decoded in ProvA's first snapshot, so its copy in the second
  // snapshot is a cache hit; a pin naming cert(2) there must still fail.
  const StoreDatabase db = small_db();
  ASSERT_TRUE(write_dataset(db, dir_.string()).ok());
  const fs::path later = dir_ / "ProvA" / "2020-06-01.rsts";
  std::string doc;
  {
    std::ifstream in(later, std::ios::binary);
    doc.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto& second = db.find("ProvA")->snapshots()[1].entries;
  const std::string pin1 = rs::util::hex_encode(second[0].certificate->sha256());
  const std::string pin2 = rs::util::hex_encode(second[1].certificate->sha256());
  const std::size_t at = doc.find(pin1);
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, pin1.size(), pin2);
  std::ofstream(later, std::ios::binary | std::ios::trunc) << doc;

  auto loaded = load_dataset(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("sha256 pin mismatch"), std::string::npos)
      << loaded.error();
}

TEST_F(DatasetIoTest, EachDistinctCertificateDecodedOnce) {
  rs::synth::SimulatorConfig cfg;
  cfg.seed = 78;
  cfg.ca_count = 30;
  cfg.program_count = 2;
  cfg.derivative_count = 2;
  cfg.snapshot_interval_days = 365;
  const auto eco = rs::synth::simulate_ecosystem(cfg);
  ASSERT_TRUE(write_dataset(eco.database, dir_.string()).ok());
  auto loaded = load_dataset(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error();

  std::map<rs::crypto::Sha256Digest, std::set<const rs::x509::Certificate*>>
      objects;
  std::size_t copies = 0;
  for (const auto& [name, history] : loaded.value().histories()) {
    for (const auto& snap : history.snapshots()) {
      for (const auto& e : snap.entries) {
        objects[e.certificate->sha256()].insert(e.certificate.get());
        ++copies;
      }
    }
  }
  ASSERT_GT(copies, objects.size());  // the dataset does repeat roots
  for (const auto& [digest, ptrs] : objects) {
    ASSERT_EQ(ptrs.size(), 1u) << rs::util::hex_encode(digest);
    const rs::x509::Certificate& shared = **ptrs.begin();
    auto fresh = rs::x509::Certificate::parse(shared.der());
    ASSERT_TRUE(fresh.ok()) << fresh.error();
    EXPECT_EQ(fresh.value(), shared);
    EXPECT_EQ(fresh.value().sha256(), shared.sha256());
    EXPECT_EQ(fresh.value().sha1(), shared.sha1());
    EXPECT_EQ(fresh.value().md5(), shared.md5());
    EXPECT_EQ(fresh.value().subject(), shared.subject());
    EXPECT_EQ(fresh.value().validity(), shared.validity());
  }
}

}  // namespace
}  // namespace rs::formats
