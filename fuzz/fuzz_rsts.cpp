// Fuzz target: rs::formats::parse_rsts, the RSTS reader that load_dataset
// trusts with every snapshot of a dataset.
//
// A document that repeats a cert line reuses its first decode, so the
// harness checks each accepted entry against a fresh parse of its own DER
// and against a pin line of its own, then requires write_rsts of the
// accepted entries to re-parse cleanly to byte-identical output
// (writer/reader agreement).
#include <map>
#include <string>
#include <string_view>

#include "fuzz/fuzz_harness.h"
#include "src/formats/portable.h"
#include "src/util/hex.h"
#include "src/util/strings.h"
#include "src/x509/certificate.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  const auto parsed = rs::formats::parse_rsts(text);
  if (!parsed) return 0;

  // Every accepted entry has a pin line of its own: a certificate cannot be
  // accepted more often than its (case-folded) pin occurs in the text.
  const std::string folded = rs::util::to_lower(text);
  std::map<std::string, std::size_t> accepted;
  for (const auto& entry : parsed.value().entries) {
    RS_FUZZ_ASSERT(entry.certificate != nullptr, "RSTS entry without cert");
    const auto fresh = rs::x509::Certificate::parse(entry.certificate->der());
    RS_FUZZ_ASSERT(fresh.ok(), "accepted RSTS cert does not re-parse");
    RS_FUZZ_ASSERT(fresh.value() == *entry.certificate &&
                       fresh.value().sha256() == entry.certificate->sha256(),
                   "accepted RSTS cert differs from a fresh parse");
    ++accepted[rs::util::hex_encode(entry.certificate->sha256())];
  }
  for (const auto& [pin, count] : accepted) {
    std::size_t occurrences = 0;
    for (auto at = folded.find(pin); at != std::string::npos;
         at = folded.find(pin, at + 1)) {
      ++occurrences;
    }
    RS_FUZZ_ASSERT(count <= occurrences, "RSTS entry accepted without its pin");
  }

  const std::string once = rs::formats::write_rsts(parsed.value().entries);
  const auto again = rs::formats::parse_rsts(once);
  RS_FUZZ_ASSERT(again.ok() && again.value().warnings.empty(),
                 "write_rsts output does not re-parse cleanly");
  RS_FUZZ_ASSERT(again.value().entries.size() == parsed.value().entries.size(),
                 "RSTS re-parse changed the entry count");
  RS_FUZZ_ASSERT(rs::formats::write_rsts(again.value().entries) == once,
                 "RSTS roundtrip is not byte-identical");
  return 0;
}
