#include "src/formats/portable.h"

#include <charconv>
#include <optional>

#include "src/encoding/base64.h"
#include "src/formats/cert_cache.h"
#include "src/formats/instrument.h"
#include "src/util/hex.h"
#include "src/util/strings.h"

namespace rs::formats {

using rs::store::TrustEntry;
using rs::store::TrustLevel;
using rs::store::TrustPurpose;
using rs::util::Result;

namespace {

const char* level_token(TrustLevel level) {
  switch (level) {
    case TrustLevel::kTrustedDelegator:
      return "trusted-delegator";
    case TrustLevel::kMustVerify:
      return "must-verify";
    case TrustLevel::kDistrusted:
      return "distrusted";
  }
  return "must-verify";
}

std::optional<TrustLevel> parse_level(std::string_view token) {
  if (token == "trusted-delegator") return TrustLevel::kTrustedDelegator;
  if (token == "must-verify") return TrustLevel::kMustVerify;
  if (token == "distrusted") return TrustLevel::kDistrusted;
  return std::nullopt;
}

std::optional<TrustPurpose> parse_purpose(std::string_view token) {
  if (token == "server-auth") return TrustPurpose::kServerAuth;
  if (token == "email-protection") return TrustPurpose::kEmailProtection;
  if (token == "code-signing") return TrustPurpose::kCodeSigning;
  return std::nullopt;
}

}  // namespace

std::string write_rsts(const std::vector<TrustEntry>& entries) {
  std::string out = "RSTS " + std::to_string(kRstsVersion) + "\n";
  out += "# Root Store Trust Serialization; see formats/portable.h\n";
  for (const auto& e : entries) {
    const auto& cert = *e.certificate;
    out += "root\n";
    if (const auto cn = cert.subject().common_name()) {
      // The label is informational and one line: control bytes (a line
      // break in a CN would end the line early) are written as spaces.
      std::string label(*cn);
      for (char& c : label) {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20 || byte == 0x7F) c = ' ';
      }
      out += "  label " + label + "\n";
    }
    out += "  sha256 " + rs::util::hex_encode(cert.sha256()) + "\n";
    out += "  cert " + rs::encoding::base64_encode(cert.der()) + "\n";
    for (TrustPurpose p : rs::store::kAllPurposes) {
      const auto& trust = e.trust_for(p);
      out += std::string("  trust ") + rs::store::to_string(p) + " " +
             level_token(trust.level);
      if (trust.distrust_after) {
        out += " distrust-after=" + trust.distrust_after->to_string();
      }
      out += "\n";
    }
    out += "end\n";
  }
  return out;
}

namespace {

/// Certificates one parse decoded from DER and took from the cache.
struct DecodeCounts {
  std::size_t decoded = 0;
  std::size_t reused = 0;
};

Result<ParsedStore> parse_rsts_impl(std::string_view text,
                                    detail::CertCache& cache,
                                    DecodeCounts& counts) {
  const auto lines = rs::util::split_lines(text);
  std::size_t i = 0;

  // Header.
  while (i < lines.size() && rs::util::trim(lines[i]).empty()) ++i;
  if (i >= lines.size()) {
    return Result<ParsedStore>::err("rsts: empty document");
  }
  {
    const auto header = rs::util::split_ws(rs::util::trim(lines[i]));
    if (header.size() != 2 || header[0] != "RSTS") {
      return Result<ParsedStore>::err("rsts: missing 'RSTS <version>' header");
    }
    int version = 0;
    const auto* first = header[1].data();
    const auto* last = header[1].data() + header[1].size();
    auto [ptr, ec] = std::from_chars(first, last, version);
    if (ec != std::errc{} || ptr != last) {
      return Result<ParsedStore>::err("rsts: malformed version");
    }
    if (version != kRstsVersion) {
      return Result<ParsedStore>::err("rsts: unsupported version " +
                                      std::to_string(version));
    }
    ++i;
  }

  ParsedStore out;
  while (i < lines.size()) {
    const std::string_view line = rs::util::trim(lines[i]);
    if (line.empty() || line.front() == '#') {
      ++i;
      continue;
    }
    if (line != "root") {
      return Result<ParsedStore>::err("rsts: expected 'root' at line " +
                                      std::to_string(i + 1));
    }
    ++i;

    // One root block.
    std::string label;
    std::string sha256_hex;
    std::string_view cert_text;
    std::vector<std::uint8_t> der;
    std::shared_ptr<const rs::x509::Certificate> cached;
    bool der_ok = false;
    TrustEntry entry;
    bool closed = false;
    bool entry_bad = false;

    for (; i < lines.size(); ++i) {
      const std::string_view body = rs::util::trim(lines[i]);
      if (body.empty() || body.front() == '#') continue;
      if (body == "end") {
        closed = true;
        ++i;
        break;
      }
      const auto tokens = rs::util::split_ws(body);
      if (tokens.empty()) continue;
      const std::string_view key = tokens[0];
      if (key == "label") {
        const std::size_t pos = body.find("label");
        label = std::string(rs::util::trim(body.substr(pos + 5)));
      } else if (key == "sha256" && tokens.size() == 2) {
        sha256_hex = rs::util::to_lower(tokens[1]);
      } else if (key == "cert" && tokens.size() == 2) {
        // A cache hit skips base64 and DER decoding; the pin is still
        // checked below.
        if (const auto hit = cache.find(tokens[1]); hit != cache.end()) {
          ++counts.reused;
          cached = hit->second;
          der_ok = true;
        } else if (auto decoded = rs::encoding::base64_decode(tokens[1])) {
          cert_text = tokens[1];
          der = std::move(*decoded);
          cached = nullptr;
          der_ok = true;
        } else {
          out.warnings.push_back("rsts: bad base64 in cert at line " +
                                 std::to_string(i + 1));
          entry_bad = true;
        }
      } else if (key == "trust" && tokens.size() >= 3) {
        const auto purpose = parse_purpose(tokens[1]);
        const auto level = parse_level(tokens[2]);
        if (!purpose || !level) {
          out.warnings.push_back("rsts: unknown trust tokens at line " +
                                 std::to_string(i + 1));
          continue;
        }
        entry.trust_for(*purpose).level = *level;
        for (std::size_t t = 3; t < tokens.size(); ++t) {
          if (rs::util::starts_with(tokens[t], "distrust-after=")) {
            const auto date =
                rs::util::Date::parse(tokens[t].substr(15));
            if (!date) {
              out.warnings.push_back("rsts: bad distrust-after at line " +
                                     std::to_string(i + 1));
            } else {
              entry.trust_for(*purpose).distrust_after = date;
            }
          } else {
            out.warnings.push_back("rsts: unknown trust attribute '" +
                                   std::string(tokens[t]) + "' at line " +
                                   std::to_string(i + 1));
          }
        }
      } else {
        // Forward compatibility: unknown keys warn and are skipped.
        out.warnings.push_back("rsts: unknown key '" + std::string(key) +
                               "' at line " + std::to_string(i + 1));
      }
    }
    if (!closed) {
      return Result<ParsedStore>::err("rsts: unterminated root block");
    }
    if (entry_bad) continue;
    if (!der_ok) {
      out.warnings.push_back("rsts: root block without cert skipped" +
                             (label.empty() ? "" : " (" + label + ")"));
      continue;
    }
    // The pin is mandatory: an RSTS consumer must never accept a
    // certificate whose integrity line is absent or wrong.
    if (sha256_hex.empty()) {
      out.warnings.push_back("rsts: root block without sha256 pin skipped" +
                             (label.empty() ? "" : " (" + label + ")"));
      continue;
    }
    if (!cached) {
      auto cert = rs::x509::Certificate::parse(der);
      if (!cert) {
        out.warnings.push_back("rsts: undecodable certificate skipped: " +
                               cert.error());
        continue;
      }
      ++counts.decoded;
      cached =
          std::make_shared<const rs::x509::Certificate>(std::move(cert).take());
      cache.emplace(cert_text, cached);
    }
    // Checked on every entry: a cached certificate is reused only under a
    // pin that matches it.
    if (rs::util::hex_encode(cached->sha256()) != sha256_hex) {
      out.warnings.push_back("rsts: sha256 pin mismatch, entry rejected" +
                             (label.empty() ? "" : " (" + label + ")"));
      continue;
    }
    entry.certificate = std::move(cached);
    out.entries.push_back(std::move(entry));
  }
  return out;
}

}  // namespace

Result<ParsedStore> detail::parse_rsts_cached(std::string_view text,
                                              CertCache& cache) {
  rs::obs::Span span("formats/rsts");
  DecodeCounts counts;
  auto result = parse_rsts_impl(text, cache, counts);
  detail::note_parse(span, text.size(), result, counts.decoded, counts.reused);
  return result;
}

Result<ParsedStore> parse_rsts(std::string_view text) {
  detail::CertCache cache;
  return detail::parse_rsts_cached(text, cache);
}

}  // namespace rs::formats
