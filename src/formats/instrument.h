// Internal helper wiring the format decoders into rs_obs.
//
// Every public parse entry point opens a "formats/<name>" span and feeds
// the shared decoder counters (bytes decoded, certificates decoded and
// reused, parse warnings).  All of it is a single atomic load when
// instrumentation is disabled.  Not part of the public formats API.
#pragma once

#include <cstddef>

#include "src/formats/certdata.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/util/result.h"

namespace rs::formats::detail {

/// `decoded` counts certificates parsed from DER, `reused` those taken from
/// a decode cache instead (RSTS within one load_dataset).
inline void note_parse(rs::obs::Span& span, std::size_t bytes,
                       const rs::util::Result<ParsedStore>& result,
                       std::size_t decoded, std::size_t reused) {
  auto& reg = rs::obs::Registry::global();
  if (!reg.enabled()) return;
  reg.counter("formats.bytes_decoded").add(bytes);
  reg.counter("formats.certs_decoded").add(decoded);
  reg.counter("formats.certs_reused").add(reused);
  if (!result.ok()) {
    reg.counter("formats.parse_failures").increment();
    return;
  }
  span.set_items(result.value().entries.size());
  reg.counter("formats.parse_warnings").add(result.value().warnings.size());
}

/// For decoders without a cache: every accepted entry is one DER parse.
inline void note_parse(rs::obs::Span& span, std::size_t bytes,
                       const rs::util::Result<ParsedStore>& result) {
  note_parse(span, bytes, result,
             result.ok() ? result.value().entries.size() : 0, 0);
}

}  // namespace rs::formats::detail
