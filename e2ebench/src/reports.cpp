// ingest_reports: the 14 reports of the paper over a decoded dataset
// directory, as `rootstore report ... --from DIR` makes them.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "e2ebench/src/bench.h"
#include "e2ebench/src/proc.h"
#include "src/analysis/jaccard.h"
#include "src/analysis/mds.h"
#include "src/core/study.h"
#include "src/exec/thread_pool.h"
#include "src/formats/dataset_io.h"
#include "src/formats/portable.h"
#include "src/query/trust_index.h"
#include "src/store/interner.h"
#include "src/synth/paper_scenario.h"
#include "src/util/strings.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using rs::core::EcosystemStudy;

struct Report {
  const char* name;
  std::string (*render)(EcosystemStudy&);
};

// The order `rootstore report` documents them in; goldens are
// tests/golden/report_<name>.txt.
const Report kReports[] = {
    {"table1", [](EcosystemStudy& s) { return s.report_table1(); }},
    {"table2", [](EcosystemStudy& s) { return s.report_table2(); }},
    {"table3", [](EcosystemStudy& s) { return s.report_table3(); }},
    {"table4", [](EcosystemStudy& s) { return s.report_table4(); }},
    {"table5", [](EcosystemStudy& s) { return s.report_table5(); }},
    {"table6", [](EcosystemStudy& s) { return s.report_table6(); }},
    {"table7", [](EcosystemStudy& s) { return s.report_table7(); }},
    {"fig1", [](EcosystemStudy& s) { return s.report_figure1(); }},
    {"fig2", [](EcosystemStudy& s) { return s.report_figure2(); }},
    {"fig3", [](EcosystemStudy& s) { return s.report_figure3(); }},
    {"fig4", [](EcosystemStudy& s) { return s.report_figure4(); }},
    {"agreement", [](EcosystemStudy& s) { return s.report_agreement(); }},
    {"exclusivity", [](EcosystemStudy& s) { return s.report_exclusivity(); }},
    {"ct_landscape", [](EcosystemStudy& s) { return s.report_ct_landscape(); }},
};

using ReportSet = std::vector<std::string>;

rs::core::StudyOptions study_options(std::size_t workers) {
  rs::core::StudyOptions options;
  options.num_threads = workers;
  return options;
}

/// Renders the 14 reports.
ReportSet render_all(EcosystemStudy& study, Tracer* tracer) {
  ReportSet out;
  for (const Report& r : kReports) {
    SpanScope span(tracer, std::string("core.report.") + r.name);
    out.push_back(r.render(study));
  }
  return out;
}

ReportSet render_study(rs::synth::PaperScenario scenario, std::size_t workers) {
  EcosystemStudy study(std::move(scenario), study_options(workers));
  return render_all(study, nullptr);
}

/// One check per report: `got` must equal `want` byte for byte.
void check_reports(Outcome& out, const ReportSet& got, const ReportSet& want,
                   const std::string& against) {
  for (std::size_t i = 0; i < std::size(kReports); ++i) {
    out.check(i < got.size() && i < want.size() && got[i] == want[i],
              std::string("report ") + kReports[i].name + " differs from " +
                  against);
  }
}

/// The reports of the paper-seed scenario must equal the committed goldens.
/// Run in every run, outside the timed region, whatever the seed: the
/// same-seed comparisons only pit the program against itself.
void check_goldens(Outcome& out, const Config& config) {
  ReportSet goldens;
  for (const Report& r : kReports) {
    goldens.push_back(read_file(config.root / "tests" / "golden" /
                                (std::string("report_") + r.name + ".txt")));
  }
  check_reports(out,
                render_study(rs::synth::build_paper_scenario(rs::synth::kPaperSeed),
                             kStudyWorkers),
                goldens, "tests/golden");
  out.note("paper-seed reports compared with tests/golden");
}

rs::synth::PaperScenario scenario_for(const Config& config, Tracer* tracer) {
  SpanScope span(tracer, "synth.scenario");
  return rs::synth::build_paper_scenario(config.seed);
}

// ---------------------------------------------------------------- ingest

struct IngestProbe {
  double heap_delta_mib = 0;  // held by the decoded database
  std::size_t certs_decoded = 0;
  double cpu_per_wall = 0;
};

/// The `rootstore report ... --from DIR` call sequence, all 14 reports.
ReportSet ingest_pass(const Config& config, const fs::path& dataset,
                      Tracer* tracer, IngestProbe* probe) {
  rs::synth::PaperScenario scenario = scenario_for(config, tracer);
  {
    const double heap0 = probe ? heap_in_use_mib() : 0;
    std::optional<rs::store::StoreDatabase> db;
    {
      SpanScope span(tracer, "formats.load_dataset");
      auto loaded = rs::formats::load_dataset(dataset.string());
      if (!loaded.ok()) throw ProgramError(loaded.error());
      db.emplace(std::move(loaded).take());
    }
    if (probe != nullptr) {
      probe->heap_delta_mib = heap_in_use_mib() - heap0;
      // Certificate objects the decode produced: one per copy while each
      // copy is decoded on its own, one per distinct certificate once
      // copies share their decoded object.
      std::set<const void*> decoded;
      for (const auto& [name, history] : db->histories()) {
        for (const auto& snap : history.snapshots()) {
          for (const auto& e : snap.entries) decoded.insert(e.certificate.get());
        }
      }
      probe->certs_decoded = decoded.size();
    }
    SpanScope span(tracer, "synth.replace_database");
    scenario.replace_database(std::move(*db));
  }
  std::optional<EcosystemStudy> study;
  {
    SpanScope span(tracer, "core.study_build");
    study.emplace(std::move(scenario), study_options(kStudyWorkers));
  }
  const double cpu0 = self_cpu_s();
  const std::int64_t t0 = now_ns();
  ReportSet reports = render_all(*study, tracer);
  if (probe != nullptr) {
    probe->cpu_per_wall =
        (self_cpu_s() - cpu0) / (static_cast<double>(now_ns() - t0) / 1e9);
  }
  return reports;
}

void write_dataset_for(const Config& config, const fs::path& dataset,
                       Tracer* tracer) {
  std::error_code ec;
  fs::remove_all(dataset, ec);
  rs::synth::PaperScenario scenario = scenario_for(config, tracer);
  SpanScope span(tracer, "formats.write_dataset");
  auto written = rs::formats::write_dataset(scenario.database(), dataset.string());
  if (!written.ok()) throw ProgramError(written.error());
}

struct DatasetSize {
  std::size_t snapshots = 0;
  std::uintmax_t bytes = 0;
};

DatasetSize dataset_size(const fs::path& dataset) {
  DatasetSize size;
  for (const auto& entry : fs::recursive_directory_iterator(dataset)) {
    if (!entry.is_regular_file()) continue;
    size.bytes += entry.file_size();
    if (entry.path().extension() == ".rsts") ++size.snapshots;
  }
  return size;
}

/// formats.read_s / formats.parse_rsts_s: load_dataset's two halves,
/// timed apart by reading every manifest file and parsing it with
/// parse_rsts.
void probe_formats_split(const fs::path& dataset, TracedRun& trace) {
  const std::string manifest = read_file(dataset / "MANIFEST");
  for (const auto line : rs::util::split_lines(manifest)) {
    const auto fields = rs::util::split(rs::util::trim(line), '\t');
    if (fields.size() != 4) continue;  // header
    std::string content;
    {
      SpanScope span(trace.tracer(), "formats.read");
      content = read_file(dataset / std::string(fields[3]));
    }
    SpanScope span(trace.tracer(), "formats.parse_rsts");
    auto parsed = rs::formats::parse_rsts(content);
    if (!parsed.ok()) throw ProgramError(parsed.error());
  }
}

/// Direct calls into store, query and analysis on the study database: the
/// work the study and its reports do inside core, timed per layer.
void probe_analysis_layers(const rs::store::StoreDatabase& db,
                           TracedRun& trace, Outcome& out) {
  Tracer* t = trace.tracer();
  rs::exec::ThreadPool pool(kStudyWorkers);
  std::optional<rs::store::CertInterner> interner;
  {
    SpanScope span(t, "store.intern");
    interner.emplace(rs::store::CertInterner::from_database(db));
  }
  out.set("store.certs_interned", static_cast<double>(interner->size()), "count");
  {
    SpanScope span(t, "query.trust_index_build");
    const auto index = rs::query::TrustIndex::build(db, *interner, &pool);
    (void)index;
  }
  // Figure 1's matrix and embedding, as report_figure1 requests them.
  rs::analysis::JaccardOptions options;
  options.min_date = rs::util::Date::ymd(2011, 1, 1);
  options.max_per_provider = 40;
  std::optional<rs::analysis::DistanceMatrix> dist;
  {
    SpanScope span(t, "analysis.jaccard_matrix");
    dist.emplace(rs::analysis::jaccard_matrix(db, options, &pool, &*interner));
  }
  std::size_t iterations = 0;
  {
    SpanScope span(t, "analysis.smacof");
    iterations = rs::analysis::smacof_mds(*dist, {}, &pool).iterations;
  }
  out.set("store.intern_s", trace.span_s("store.intern"), "s");
  out.set("query.trust_index_build_s", trace.span_s("query.trust_index_build"), "s");
  out.set("analysis.jaccard_matrix_s", trace.span_s("analysis.jaccard_matrix"), "s");
  out.set("analysis.smacof_s", trace.span_s("analysis.smacof"), "s");
  out.set("analysis.smacof_iterations", static_cast<double>(iterations), "count");
}

void set_report_layer_metrics(Outcome& out, const TracedRun& trace,
                              double cpu_per_wall) {
  out.set("core.study_build_s", trace.span_s("core.study_build"), "s");
  for (const Report& r : kReports) {
    out.set(std::string("core.report.") + r.name + "_s",
            trace.span_s(std::string("core.report.") + r.name), "s");
  }
  out.set("exec.cpu_per_wall", cpu_per_wall, "ratio");
}

}  // namespace

Outcome run_ingest_reports(const Config& config) {
  Outcome out;
  const fs::path dataset = config.work / "dataset";
  if (config.trace) {
    TracedRun trace(config);
    write_dataset_for(config, dataset, trace.tracer());
    out.set("formats.write_dataset_s", trace.span_s("formats.write_dataset"), "s");
    IngestProbe probe;
    ReportSet reports;
    trace.measure_pass(out, {}, [&](Tracer* t) {
      reports = ingest_pass(config, dataset, t, t ? &probe : nullptr);
    });
    const double load_s = trace.span_s("formats.load_dataset");
    const DatasetSize size = dataset_size(dataset);
    out.set("synth.scenario_s", trace.span_us("synth.scenario").back() / 1e6, "s");
    out.set("formats.load_dataset_s", load_s, "s");
    out.set("formats.mb_per_s", static_cast<double>(size.bytes) / 1e6 / load_s,
            "MB/s");
    out.set("formats.certs_decoded", static_cast<double>(probe.certs_decoded),
            "count");
    out.set("formats.rss_delta_mb", probe.heap_delta_mib, "MiB");
    set_report_layer_metrics(out, trace, probe.cpu_per_wall);
    probe_formats_split(dataset, trace);
    out.set("formats.read_s", trace.span_s("formats.read"), "s");
    out.set("formats.parse_rsts_s", trace.span_s("formats.parse_rsts"), "s");
    auto loaded = rs::formats::load_dataset(dataset.string());
    if (!loaded.ok()) throw ProgramError(loaded.error());
    probe_analysis_layers(loaded.value(), trace, out);
    out.set("formats.distinct_ratio",
            out.metrics["store.certs_interned"].value /
                static_cast<double>(probe.certs_decoded),
            "ratio");
    check_reports(out, reports, render_study(rs::synth::build_paper_scenario(config.seed),
                                             kStudyWorkers),
                  "the in-memory path");
    check_goldens(out, config);
    trace.write(out);
    return out;
  }

  // Five set-ups of ~0.7 s, each writing the 128 MB dataset: the median
  // of three moved 24% (IQR/median over 10 seeds) on a shared host.
  const double setup = median_seconds(5, [&] {
    write_dataset_for(config, dataset, nullptr);
  });
  out.set("setup_s", setup, "s");
  const DatasetSize size = dataset_size(dataset);
  std::vector<ReportSet> results;
  const Passes passes = run_passes(config.seconds, [&] {
    results.push_back(ingest_pass(config, dataset, nullptr, nullptr));
  });
  set_batch_metrics(out, passes);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "dataset: %zu snapshots, %.1f MB on disk; %zu pipeline pass(es) "
                "of 14 reports, %zu analysis workers",
                size.snapshots, static_cast<double>(size.bytes) / 1e6,
                passes.wall_s.size(), kStudyWorkers);
  out.note(buf);
  const ReportSet reference =
      render_study(rs::synth::build_paper_scenario(config.seed), kStudyWorkers);
  for (const auto& reports : results) {
    check_reports(out, reports, reference, "the in-memory path");
  }
  check_goldens(out, config);
  return out;
}

}  // namespace e2e
