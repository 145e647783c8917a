#include "src/formats/dataset_io.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>

#include "src/formats/cert_cache.h"
#include "src/formats/instrument.h"
#include "src/formats/portable.h"
#include "src/util/strings.h"

namespace rs::formats {

namespace fs = std::filesystem;
using rs::util::Result;

namespace {

constexpr std::string_view kManifestHeader = "RSDS 1";

Result<std::monostate> write_file(const fs::path& path,
                                  const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) {
    return Result<std::monostate>::err("dataset: cannot write " +
                                       path.string());
  }
  return std::monostate{};
}

/// The whole file in one sized read; nullopt if it cannot be read.
std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size < 0) return std::nullopt;
  std::string content(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(content.data(), static_cast<std::streamsize>(content.size()));
  if (!in) return std::nullopt;
  return content;
}

}  // namespace

Result<std::monostate> write_dataset(const rs::store::StoreDatabase& db,
                                     const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Result<std::monostate>::err("dataset: cannot create " + dir + ": " +
                                       ec.message());
  }

  std::string manifest = std::string(kManifestHeader) + "\n";
  for (const auto& [provider, history] : db.histories()) {
    const fs::path provider_dir = fs::path(dir) / provider;
    fs::create_directories(provider_dir, ec);
    if (ec) {
      return Result<std::monostate>::err("dataset: cannot create " +
                                         provider_dir.string());
    }
    // Same-day snapshots get a numeric suffix to keep file names unique.
    std::map<std::string, int> seen_dates;
    for (const auto& snap : history.snapshots()) {
      const std::string date = snap.date.to_string();
      const int n = seen_dates[date]++;
      const std::string name =
          n == 0 ? date + ".rsts" : date + "-" + std::to_string(n) + ".rsts";
      const std::string rel = provider + "/" + name;
      auto written =
          write_file(fs::path(dir) / rel, write_rsts(snap.entries));
      if (!written) return written;
      manifest += provider + "\t" + date + "\t" + snap.version + "\t" + rel +
                  "\n";
    }
  }
  return write_file(fs::path(dir) / "MANIFEST", manifest);
}

Result<rs::store::StoreDatabase> load_dataset(const std::string& dir) {
  rs::obs::Span span("formats/dataset");
  using Out = Result<rs::store::StoreDatabase>;
  const auto manifest = read_file(fs::path(dir) / "MANIFEST");
  if (!manifest) {
    return Out::err("dataset: missing MANIFEST in " + dir);
  }
  const auto lines = rs::util::split_lines(*manifest);
  if (lines.empty() || rs::util::trim(lines[0]) != kManifestHeader) {
    return Out::err("dataset: MANIFEST missing 'RSDS 1' header");
  }

  std::map<std::string, rs::store::ProviderHistory> histories;
  // Snapshots share most of their roots: each distinct cert line is decoded
  // once per load, every copy points at the same Certificate.
  detail::CertCache cache;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto line = rs::util::trim(lines[i]);
    if (line.empty() || line.front() == '#') continue;
    const auto fields = rs::util::split(line, '\t');
    if (fields.size() != 4) {
      return Out::err("dataset: malformed MANIFEST line " +
                      std::to_string(i + 1));
    }
    const std::string provider(fields[0]);
    const auto date = rs::util::Date::parse(fields[1]);
    if (!date) {
      return Out::err("dataset: bad date in MANIFEST line " +
                      std::to_string(i + 1));
    }
    const fs::path path = fs::path(dir) / std::string(fields[3]);
    const auto content = read_file(path);
    if (!content) {
      return Out::err("dataset: missing snapshot file " + path.string());
    }
    auto parsed = detail::parse_rsts_cached(*content, cache);
    if (!parsed) {
      return Out::err("dataset: " + path.string() + ": " + parsed.error());
    }
    if (!parsed.value().warnings.empty()) {
      return Out::err("dataset: " + path.string() +
                      " has warnings; refusing to load a damaged artifact (" +
                      parsed.value().warnings.front() + ")");
    }

    rs::store::Snapshot snap;
    snap.provider = provider;
    snap.date = *date;
    snap.version = std::string(fields[2]);
    snap.entries = std::move(parsed.value().entries);
    auto [it, inserted] =
        histories.try_emplace(provider, rs::store::ProviderHistory(provider));
    (void)inserted;
    it->second.add(std::move(snap));
  }

  rs::store::StoreDatabase db;
  for (auto& [name, history] : histories) {
    (void)name;
    db.add(std::move(history));
  }
  span.set_items(db.total_snapshots());
  rs::obs::Registry::global()
      .counter("formats.snapshots_parsed")
      .add(db.total_snapshots());
  return db;
}

}  // namespace rs::formats
