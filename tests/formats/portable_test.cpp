#include "src/formats/portable.h"

#include <gtest/gtest.h>

#include "src/util/hex.h"
#include "src/util/strings.h"
#include "src/x509/builder.h"

namespace rs::formats {
namespace {

using rs::store::TrustEntry;
using rs::store::TrustLevel;
using rs::store::TrustPurpose;
using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("RSTS Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

TrustEntry rich_entry(std::uint64_t seed) {
  TrustEntry e = rs::store::make_anchor_for(
      make_cert(seed), {TrustPurpose::kServerAuth});
  e.trust_for(TrustPurpose::kServerAuth).distrust_after = Date::ymd(2020, 6, 1);
  e.trust_for(TrustPurpose::kEmailProtection).level = TrustLevel::kDistrusted;
  return e;
}

TEST(Rsts, FullFidelityRoundTrip) {
  const std::vector<TrustEntry> entries = {rich_entry(1), rich_entry(2)};
  const std::string text = write_rsts(entries);
  auto parsed = parse_rsts(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value().warnings.empty())
      << parsed.value().warnings.front();
  ASSERT_EQ(parsed.value().entries.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& in = entries[i];
    const auto& back = parsed.value().entries[i];
    EXPECT_EQ(back.certificate->der(), in.certificate->der());
    for (TrustPurpose p : rs::store::kAllPurposes) {
      EXPECT_EQ(back.trust_for(p).level, in.trust_for(p).level);
      EXPECT_EQ(back.trust_for(p).distrust_after,
                in.trust_for(p).distrust_after);
    }
  }
}

TEST(Rsts, PreservesWhatPemLoses) {
  // This is the format's reason to exist: the §6 failure mode fixed.
  const TrustEntry e = rich_entry(3);
  auto parsed = parse_rsts(write_rsts({e}));
  ASSERT_TRUE(parsed.ok());
  const auto& back = parsed.value().entries.at(0);
  EXPECT_TRUE(back.is_partially_distrusted_tls());
  EXPECT_EQ(back.trust_for(TrustPurpose::kEmailProtection).level,
            TrustLevel::kDistrusted);
  EXPECT_FALSE(back.is_anchor_for(TrustPurpose::kCodeSigning));
}

TEST(Rsts, HeaderValidation) {
  EXPECT_FALSE(parse_rsts("").ok());
  EXPECT_FALSE(parse_rsts("BOGUS 1\n").ok());
  EXPECT_FALSE(parse_rsts("RSTS\n").ok());
  EXPECT_FALSE(parse_rsts("RSTS one\n").ok());
  EXPECT_FALSE(parse_rsts("RSTS 99\n").ok());
  auto empty = parse_rsts("RSTS 1\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().entries.empty());
}

TEST(Rsts, CommentsAndBlankLinesIgnored) {
  std::string text = write_rsts({rich_entry(4)});
  text.insert(text.find("root"), "# leading comment\n\n");
  auto parsed = parse_rsts(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().entries.size(), 1u);
}

TEST(Rsts, Sha256PinRejectsSubstitutedCert) {
  // Swap the cert line for another root's DER while keeping the pin.
  const std::string a = write_rsts({rich_entry(5)});
  const std::string b = write_rsts({rich_entry(6)});
  auto cert_line = [](const std::string& doc) {
    for (const auto& line : rs::util::split_lines(doc)) {
      const auto t = rs::util::trim(line);
      if (rs::util::starts_with(t, "cert ")) return std::string(t);
    }
    return std::string();
  };
  std::string tampered = a;
  const std::string a_cert = cert_line(a);
  const std::string b_cert = cert_line(b);
  tampered.replace(tampered.find(a_cert), a_cert.size(), b_cert);
  auto parsed = parse_rsts(tampered);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().entries.empty());
  ASSERT_FALSE(parsed.value().warnings.empty());
  EXPECT_NE(parsed.value().warnings[0].find("pin mismatch"),
            std::string::npos);
}

// Replaces the first `sha256` line at or after `from` with `pin`.
void set_pin(std::string& doc, std::size_t from, const std::string& pin) {
  const std::size_t start = doc.find("sha256 ", from) + 7;
  doc.replace(start, doc.find('\n', start) - start, pin);
}

std::string pin_of(const TrustEntry& e) {
  return rs::util::hex_encode(e.certificate->sha256());
}

TEST(Rsts, RepeatedCertSharesOneDecodedObject) {
  const std::vector<TrustEntry> entries = {rich_entry(20), rich_entry(21),
                                           rich_entry(20)};
  auto parsed = parse_rsts(write_rsts(entries));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_TRUE(parsed.value().warnings.empty());
  const auto& back = parsed.value().entries;
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].certificate.get(), back[2].certificate.get());
  EXPECT_NE(back[0].certificate.get(), back[1].certificate.get());
  EXPECT_EQ(*back[2].certificate, *entries[2].certificate);
}

TEST(Rsts, CacheHitWithWrongPinIsRejected) {
  // The second copy of the certificate is a cache hit; its pin names
  // another certificate, so the hit must not be accepted.
  const TrustEntry a = rich_entry(22);
  std::string doc = write_rsts({a, a});
  set_pin(doc, doc.rfind("root\n"), pin_of(rich_entry(23)));
  auto parsed = parse_rsts(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().entries.size(), 1u);
  EXPECT_EQ(*parsed.value().entries[0].certificate, *a.certificate);
  ASSERT_EQ(parsed.value().warnings.size(), 1u);
  EXPECT_NE(parsed.value().warnings[0].find("sha256 pin mismatch"),
            std::string::npos);
}

TEST(Rsts, LyingPinOnFirstCopyDoesNotPoisonLaterCopies) {
  // The first copy is decoded and rejected; the second, correctly pinned,
  // reuses that decode and is accepted.
  const TrustEntry a = rich_entry(24);
  std::string doc = write_rsts({a, a});
  set_pin(doc, 0, pin_of(rich_entry(25)));
  auto parsed = parse_rsts(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().entries.size(), 1u);
  EXPECT_EQ(*parsed.value().entries[0].certificate, *a.certificate);
  ASSERT_EQ(parsed.value().warnings.size(), 1u);
  EXPECT_NE(parsed.value().warnings[0].find("sha256 pin mismatch"),
            std::string::npos);
}

TEST(Rsts, DuplicatePinOverDifferentDerIsRejected) {
  // Two entries claim the same pin; only the certificate it belongs to
  // is accepted.
  const TrustEntry a = rich_entry(26);
  const TrustEntry b = rich_entry(27);
  std::string doc = write_rsts({a, b});
  set_pin(doc, doc.rfind("root\n"), pin_of(a));
  auto parsed = parse_rsts(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().entries.size(), 1u);
  EXPECT_EQ(*parsed.value().entries[0].certificate, *a.certificate);
  ASSERT_EQ(parsed.value().warnings.size(), 1u);
  EXPECT_NE(parsed.value().warnings[0].find("sha256 pin mismatch"),
            std::string::npos);
}

TEST(Rsts, UnknownKeysWarnButParse) {
  std::string text = write_rsts({rich_entry(7)});
  text.insert(text.find("  sha256"), "  future-field some value\n");
  auto parsed = parse_rsts(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().entries.size(), 1u);
  ASSERT_FALSE(parsed.value().warnings.empty());
  EXPECT_NE(parsed.value().warnings[0].find("future-field"),
            std::string::npos);
}

TEST(Rsts, OmittedTrustDefaultsToMustVerify) {
  std::string text = write_rsts({rich_entry(8)});
  // Strip every trust line.
  std::string stripped;
  for (const auto& line : rs::util::split_lines(text)) {
    if (rs::util::starts_with(rs::util::trim(line), "trust ")) continue;
    stripped += std::string(line) + "\n";
  }
  auto parsed = parse_rsts(stripped);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().entries.size(), 1u);
  for (TrustPurpose p : rs::store::kAllPurposes) {
    EXPECT_EQ(parsed.value().entries[0].trust_for(p).level,
              TrustLevel::kMustVerify);
  }
}

TEST(Rsts, MissingPinRejectsEntry) {
  std::string text = write_rsts({rich_entry(14)});
  // Strip the sha256 line entirely.
  std::string stripped;
  for (const auto& line : rs::util::split_lines(text)) {
    if (rs::util::starts_with(rs::util::trim(line), "sha256 ")) continue;
    stripped += std::string(line) + "\n";
  }
  auto parsed = parse_rsts(stripped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().entries.empty());
  ASSERT_FALSE(parsed.value().warnings.empty());
  EXPECT_NE(parsed.value().warnings[0].find("without sha256 pin"),
            std::string::npos);
}

TEST(Rsts, UnterminatedBlockIsError) {
  std::string text = write_rsts({rich_entry(9)});
  text.resize(text.rfind("end"));
  auto parsed = parse_rsts(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("unterminated"), std::string::npos);
}

TEST(Rsts, BadBase64SkipsEntryKeepsOthers) {
  std::string text = write_rsts({rich_entry(10), rich_entry(11)});
  const std::size_t pos = text.find("cert ") + 5;
  text[pos] = '!';
  auto parsed = parse_rsts(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().entries.size(), 1u);
  EXPECT_FALSE(parsed.value().warnings.empty());
}

TEST(Rsts, ControlBytesInCommonNameStayOnTheLabelLine) {
  rs::x509::Name n;
  n.add_common_name("Line One\nLine Two");
  const auto cert = std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(14).build());
  const std::string text = write_rsts({rs::store::make_tls_anchor(cert)});
  EXPECT_NE(text.find("  label Line One Line Two\n"), std::string::npos)
      << text;
  auto parsed = parse_rsts(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value().warnings.empty())
      << parsed.value().warnings.front();
  ASSERT_EQ(parsed.value().entries.size(), 1u);
  EXPECT_EQ(parsed.value().entries[0].certificate->der(), cert->der());
  // The certificate itself keeps its name byte-for-byte.
  EXPECT_EQ(parsed.value().entries[0].certificate->subject().common_name(),
            cert->subject().common_name());
}

TEST(Rsts, DoubleRoundTripIsStable) {
  const std::string once = write_rsts({rich_entry(12), rich_entry(13)});
  auto parsed = parse_rsts(once);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(write_rsts(parsed.value().entries), once);
}

}  // namespace
}  // namespace rs::formats
