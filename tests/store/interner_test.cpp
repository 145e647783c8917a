// CertInterner unit tests: the determinism contract (IDs in sorted-digest
// order, independent of input order), lookup symmetry, the complete-
// universe contract (interning a digest outside the universe throws), and
// database universe construction.
#include "src/store/interner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/store/database.h"
#include "src/store/trust.h"
#include "src/x509/builder.h"

namespace rs::store {
namespace {

using rs::crypto::Sha256Digest;

Sha256Digest digest_from(std::uint64_t value) {
  Sha256Digest d{};
  for (std::size_t i = 0; i < 8; ++i) {
    d[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return d;
}

TEST(CertInterner, IdsFollowSortedDigestOrder) {
  const std::vector<Sha256Digest> digests = {
      digest_from(30), digest_from(10), digest_from(20), digest_from(10)};
  const CertInterner interner{std::vector<Sha256Digest>(digests)};
  ASSERT_EQ(interner.size(), 3u);  // deduplicated
  // digest_from writes little-endian into the leading bytes, so digest
  // byte-order equals value order here.
  EXPECT_EQ(interner.id_of(digest_from(10)), std::uint32_t{0});
  EXPECT_EQ(interner.id_of(digest_from(20)), std::uint32_t{1});
  EXPECT_EQ(interner.id_of(digest_from(30)), std::uint32_t{2});
  for (std::uint32_t id = 0; id < 3; ++id) {
    EXPECT_EQ(interner.id_of(interner.digest_of(id)), id);
  }
  EXPECT_EQ(interner.id_of(digest_from(99)), std::nullopt);
}

TEST(CertInterner, DeterministicAcrossInputOrder) {
  std::vector<Sha256Digest> digests;
  for (std::uint64_t v = 0; v < 64; ++v) digests.push_back(digest_from(v * 7));
  const CertInterner forward{std::vector<Sha256Digest>(digests)};
  std::reverse(digests.begin(), digests.end());
  const CertInterner backward{std::vector<Sha256Digest>(digests)};
  ASSERT_EQ(forward.size(), backward.size());
  for (std::uint32_t id = 0; id < forward.size(); ++id) {
    EXPECT_EQ(forward.digest_of(id), backward.digest_of(id));
  }
}

TEST(CertInterner, InternThrowsOnOutOfUniverseDigest) {
  const CertInterner interner{
      {digest_from(1), digest_from(2), digest_from(3)}};
  const FingerprintSet inside({digest_from(2), digest_from(3)});
  const IdSet interned = interner.intern(inside);
  EXPECT_EQ(interned.ids(), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_TRUE(interner.materialize(interned) == inside);

  // One digest outside the universe — below, between or above the
  // in-universe ones — rejects the whole set.
  for (const std::uint64_t outside : {0, 4, 99}) {
    const FingerprintSet query(
        {digest_from(2), digest_from(3), digest_from(outside)});
    EXPECT_THROW(interner.intern(query), std::out_of_range) << outside;
  }
}

TEST(CertInterner, EmptyUniverseAndEmptySet) {
  const CertInterner interner;
  EXPECT_TRUE(interner.empty());
  EXPECT_TRUE(interner.intern(FingerprintSet{}).empty());
  EXPECT_THROW(interner.intern(FingerprintSet({digest_from(9)})),
               std::out_of_range);
  EXPECT_TRUE(interner.materialize(IdSet{}).empty());
}

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Intern Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

TEST(CertInterner, FromDatabaseCoversEveryEntry) {
  StoreDatabase db;
  ProviderHistory a("A");
  Snapshot s1;
  s1.provider = "A";
  s1.date = rs::util::Date::ymd(2020, 1, 1);
  s1.entries.push_back(make_tls_anchor(make_cert(1)));
  s1.entries.push_back(make_anchor_for(
      make_cert(2), {TrustPurpose::kEmailProtection}));  // non-TLS too
  a.add(s1);
  db.add(std::move(a));
  ProviderHistory b("B");
  Snapshot s2;
  s2.provider = "B";
  s2.date = rs::util::Date::ymd(2021, 1, 1);
  s2.entries.push_back(make_tls_anchor(make_cert(1)));  // shared with A
  s2.entries.push_back(make_tls_anchor(make_cert(3)));
  b.add(s2);
  db.add(std::move(b));

  const CertInterner interner = CertInterner::from_database(db);
  EXPECT_EQ(interner.size(), 3u);
  for (std::uint64_t seed : {1, 2, 3}) {
    EXPECT_TRUE(interner.id_of(make_cert(seed)->sha256()).has_value());
  }

  // Any snapshot's sets intern fully and round-trip.
  for (const auto& [name, history] : db.histories()) {
    (void)name;
    for (const auto& snap : history.snapshots()) {
      const auto all = snap.all_fingerprints();
      EXPECT_TRUE(interner.materialize(interner.intern(all)) == all);
      EXPECT_EQ(interner.intern(snap.tls_anchors()).size(),
                snap.tls_anchors().size());
    }
  }
  EXPECT_THROW(interner.intern(FingerprintSet({make_cert(4)->sha256()})),
               std::out_of_range);
}

TEST(CertInterner, MaterializeRoundTripsSortedOrder) {
  std::vector<Sha256Digest> digests;
  for (std::uint64_t v = 0; v < 40; ++v) digests.push_back(digest_from(v * 3));
  const CertInterner interner{std::vector<Sha256Digest>(digests)};
  const FingerprintSet original(std::move(digests));
  EXPECT_TRUE(interner.materialize(interner.intern(original)) == original);
}

}  // namespace
}  // namespace rs::store
