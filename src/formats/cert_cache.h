// Internal: the decode-once cache shared by the RSTS parses of one load.
//
// A dataset's snapshots list the same few hundred roots over and over, so
// load_dataset decodes each distinct `cert` line once and hands every later
// copy the same immutable Certificate.  Not part of the public formats API.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/formats/certdata.h"
#include "src/util/result.h"
#include "src/x509/certificate.h"

namespace rs::formats::detail {

struct TextHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Successfully parsed certificates keyed by the exact base64 text of their
/// RSTS `cert` line.  A hit needs full text equality, and base64 decoding is
/// strict, so equal keys always mean equal DER.
using CertCache =
    std::unordered_map<std::string, std::shared_ptr<const rs::x509::Certificate>,
                       TextHash, std::equal_to<>>;

/// parse_rsts with a caller-owned cache: cert lines found in `cache` skip
/// base64 and DER decoding, new successful parses are added to it.  The
/// sha256 pin is checked on every entry, hit or miss.
[[nodiscard]] rs::util::Result<ParsedStore> parse_rsts_cached(std::string_view text,
                                                              CertCache& cache);

}  // namespace rs::formats::detail
