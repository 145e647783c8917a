// The index write path beside serve_mix's reads, probed in serve_mix's
// traced run.  An index built from every snapshot before a cutoff absorbs
// each later snapshot in date order the way `rootstore index append` and
// `serve --watch-index` do: append_snapshot, write_file (one fsync per
// write, the program's own flush policy), load_file, with a span around
// each call.  The final image must serialize byte-identically to a full
// build over all snapshots.
//
// It is not a gated workload of its own: on the shared reference host the
// fsync latency of the virtual disk moved its wall time 28-59% between
// runs minutes apart while its CPU time moved 9%.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "e2ebench/src/bench.h"
#include "src/exec/thread_pool.h"
#include "src/query/index_io.h"
#include "src/query/trust_index.h"
#include "src/store/database.h"
#include "src/store/interner.h"
#include "src/synth/paper_scenario.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using rs::query::TrustIndex;
using rs::query::TrustIndexIO;

// The newest snapshots (by date, then provider) are appended; the rest
// form the initial index.  A fixed count keeps each pass the same size for
// every seed.
constexpr std::size_t kAppended = 320;

struct Inputs {
  rs::store::StoreDatabase prefix;
  std::vector<rs::store::Snapshot> appended;  // in append order
  std::string full_image;                     // serialize(build(all))
  rs::util::Date cutoff;
  std::size_t total_snapshots = 0;
};

Inputs make_inputs(const Config& config) {
  const rs::synth::PaperScenario scenario =
      rs::synth::build_paper_scenario(config.seed);
  const rs::store::StoreDatabase& db = scenario.database();
  Inputs in;
  in.total_snapshots = db.total_snapshots();
  if (in.total_snapshots <= kAppended) {
    throw ProgramError("scenario too small for the append sequence");
  }
  // (date, provider, position in history) for every snapshot.
  std::vector<std::tuple<rs::util::Date, std::string, std::size_t>> order;
  for (const auto& [provider, history] : db.histories()) {
    for (std::size_t i = 0; i < history.size(); ++i) {
      order.emplace_back(history.snapshots()[i].date, provider, i);
    }
  }
  std::sort(order.begin(), order.end());
  const std::size_t cut = order.size() - kAppended;
  in.cutoff = std::get<0>(order[cut]);
  std::map<std::string, std::size_t> keep;  // per provider: prefix length
  for (const auto& [provider, history] : db.histories()) keep[provider] = 0;
  for (std::size_t i = 0; i < cut; ++i) {
    const auto& [date, provider, pos] = order[i];
    keep[provider] = std::max(keep[provider], pos + 1);
  }
  for (const auto& [provider, history] : db.histories()) {
    if (keep[provider] == 0) continue;
    rs::store::ProviderHistory h(provider);
    for (std::size_t i = 0; i < keep[provider]; ++i) {
      h.add(history.snapshots()[i]);
    }
    in.prefix.add(std::move(h));
  }
  for (std::size_t i = cut; i < order.size(); ++i) {
    const auto& [date, provider, pos] = order[i];
    if (pos < keep[provider]) {
      throw ProgramError("append order is not a per-provider suffix");
    }
    in.appended.push_back(db.find(provider)->snapshots()[pos]);
  }
  rs::exec::ThreadPool pool(kStudyWorkers);
  in.full_image = TrustIndexIO::serialize(
      TrustIndex::build(db, rs::store::CertInterner::from_database(db), &pool));
  return in;
}

/// The initial index: what `rootstore index build` does with the
/// snapshots before the cutoff.
void build_initial(const Inputs& in, const fs::path& path) {
  rs::exec::ThreadPool pool(kStudyWorkers);
  const TrustIndex index = TrustIndex::build(
      in.prefix, rs::store::CertInterner::from_database(in.prefix), &pool);
  auto written = TrustIndexIO::write_file(index, path.string());
  if (!written.ok()) throw ProgramError(written.error());
}

TrustIndex load(const fs::path& path) {
  auto loaded = TrustIndexIO::load_file(path.string());
  if (!loaded.ok()) throw ProgramError(path.string() + ": " + loaded.message());
  return std::move(loaded).take();
}

/// Every appended snapshot as append + durable write + reload; returns the
/// final image.  `bytes_written` receives what each write_file wrote.
std::string refresh_pass(const Inputs& in, const fs::path& initial,
                         const fs::path& live, Tracer* tracer,
                         std::vector<double>& bytes_written) {
  std::error_code ec;
  fs::copy_file(initial, live, fs::copy_options::overwrite_existing, ec);
  if (ec) throw ProgramError("cannot copy " + initial.string());
  TrustIndex index = load(live);
  for (std::size_t i = 0; i < in.appended.size(); ++i) {
    SpanScope op(tracer, "bench.refresh", i + 1);
    {
      SpanScope span(tracer, "query.append", i + 1);
      auto appended = TrustIndexIO::append_snapshot(index, in.appended[i]);
      if (!appended.ok()) throw ProgramError(appended.error());
    }
    {
      SpanScope span(tracer, "query.write_file", i + 1);
      auto written = TrustIndexIO::write_file(index, live.string());
      if (!written.ok()) throw ProgramError(written.error());
      bytes_written.push_back(static_cast<double>(written.value()));
    }
    {
      SpanScope span(tracer, "query.load_file", i + 1);
      index = load(live);
    }
  }
  return TrustIndexIO::serialize(index);
}

/// The serialize half of each write_file, timed on its own: the same
/// append sequence in memory, with a span around serialize after each
/// append (serialize is canonical, so the in-memory index serializes as
/// the reloaded one would).
void probe_serialize(const Inputs& in, const fs::path& initial, Tracer* tracer) {
  TrustIndex index = load(initial);
  for (std::size_t i = 0; i < in.appended.size(); ++i) {
    auto appended = TrustIndexIO::append_snapshot(index, in.appended[i]);
    if (!appended.ok()) throw ProgramError(appended.error());
    SpanScope span(tracer, "query.serialize", i + 1);
    (void)TrustIndexIO::serialize(index);
  }
}

std::size_t der_bytes(const rs::store::Snapshot& snap) {
  std::size_t n = 0;
  for (const auto& e : snap.entries) n += e.certificate->der().size();
  return n;
}

}  // namespace

void probe_index_refresh(const Config& config, TracedRun& trace,
                         Outcome& out) {
  const fs::path initial = config.work / "initial.rsix";
  const fs::path live = config.work / "live.rsix";
  Tracer* t = trace.tracer();
  const Inputs in = make_inputs(config);
  build_initial(in, initial);
  std::vector<double> bytes;
  std::string final_image;
  {
    SpanScope root(t, "bench.refresh_pass");
    final_image = refresh_pass(in, initial, live, t, bytes);
  }
  out.check(final_image == in.full_image,
            "appended index differs from a full build");
  probe_serialize(in, initial, t);
  const double serialize_us = median(trace.span_us("query.serialize"));
  out.set("query.append_us", median(trace.span_us("query.append")), "us");
  out.set("query.serialize_us", serialize_us, "us");
  out.set("store.write_file_us",
          median(trace.span_us("query.write_file")) - serialize_us, "us");
  out.set("query.load_file_us", median(trace.span_us("query.load_file")), "us");
  double total_bytes = 0, total_der = 0;
  for (const double b : bytes) total_bytes += b;
  for (const auto& snap : in.appended) {
    total_der += static_cast<double>(der_bytes(snap));
  }
  out.set("store.bytes_written_per_refresh",
          total_bytes / static_cast<double>(bytes.size()), "bytes");
  out.set("store.write_amp", total_bytes / total_der, "ratio");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "index refresh probe: %zu of %zu snapshots appended (cutoff "
                "%s); flush policy: the program's (fsync on every write_file)",
                in.appended.size(), in.total_snapshots,
                in.cutoff.to_string().c_str());
  out.note(buf);
}

}  // namespace e2e
