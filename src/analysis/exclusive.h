// Program-exclusive root analysis (Table 6 / §5.2).
//
// A root is exclusive to a program if the program's *latest* snapshot
// TLS-trusts it and no other independent program has *ever* TLS-trusted it.
#pragma once

#include <string>
#include <vector>

#include "src/crypto/digest.h"
#include "src/store/database.h"
#include "src/store/interner.h"

namespace rs::analysis {

/// One program's exclusive roots.
struct ExclusiveSet {
  std::string program;
  std::vector<rs::crypto::Sha256Digest> roots;
};

/// Computes exclusive roots among `programs` (typically the four
/// independent programs).  Providers absent from the database are skipped.
/// `interner` covers `db` (EcosystemStudy passes its own): the latest and
/// ever-trusted sets are interned and compared as bitsets.
std::vector<ExclusiveSet> exclusive_roots(
    const rs::store::StoreDatabase& db,
    const std::vector<std::string>& programs,
    const rs::store::CertInterner& interner);

}  // namespace rs::analysis
