// Byte-exact golden regression for every report entry point, across
// thread counts and with instrumentation on/off.  The golden files under
// tests/golden/ are the serial reference output; regenerate them with
// tools/update_goldens.sh ONLY for intentional report changes, and review
// the diff.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/export.h"
#include "src/core/study.h"
#include "src/formats/dataset_io.h"
#include "src/obs/clock.h"
#include "src/obs/registry.h"
#include "src/synth/paper_scenario.h"

#ifndef ROOTSTORE_GOLDEN_DIR
#error "ROOTSTORE_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace {

std::string read_golden(const std::string& name,
                        const std::string& extension = ".txt") {
  const std::string path =
      std::string(ROOTSTORE_GOLDEN_DIR) + "/report_" + name + extension;
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing golden file " << path
                        << " (regenerate with tools/update_goldens.sh)";
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

// Every report entry point, in a fixed order.
std::vector<std::pair<std::string, std::string>> all_reports(
    rs::core::EcosystemStudy& study) {
  return {
      {"table1", study.report_table1()},
      {"table2", study.report_table2()},
      {"table3", study.report_table3()},
      {"table4", study.report_table4()},
      {"table5", study.report_table5()},
      {"table6", study.report_table6()},
      {"table7", study.report_table7()},
      {"fig1", study.report_figure1()},
      {"fig2", study.report_figure2()},
      {"fig3", study.report_figure3()},
      {"fig4", study.report_figure4()},
      {"agreement", study.report_agreement()},
      {"exclusivity", study.report_exclusivity()},
      {"ct_landscape", study.report_ct_landscape()},
  };
}

void expect_all_match_goldens(std::size_t threads) {
  rs::core::StudyOptions options;
  options.num_threads = threads;
  auto study = rs::core::EcosystemStudy::from_paper_scenario(
      rs::synth::kPaperSeed, options);
  for (const auto& [name, actual] : all_reports(study)) {
    const std::string golden = read_golden(name);
    ASSERT_FALSE(golden.empty()) << name;
    EXPECT_EQ(actual, golden)
        << "report '" << name << "' deviates from tests/golden/report_"
        << name << ".txt at --threads " << threads;
  }
}

TEST(GoldenReport, SerialMatchesGoldens) { expect_all_match_goldens(0); }

TEST(GoldenReport, ThreadedMatchesGoldens) { expect_all_match_goldens(3); }

// The `rootstore report <name> --csv` exports, which run on the study's
// interner and pool, pinned byte-for-byte like the reports.
void expect_csv_match_goldens(std::size_t threads) {
  rs::core::StudyOptions options;
  options.num_threads = threads;
  const auto study = rs::core::EcosystemStudy::from_paper_scenario(
      rs::synth::kPaperSeed, options);
  const std::pair<std::string, std::string> exports[] = {
      {"fig1", rs::core::figure1_csv(study)},
      {"fig3", rs::core::figure3_csv(study)},
      {"fig4", rs::core::figure4_csv(study)},
      {"churn", rs::core::churn_csv(study)},
  };
  for (const auto& [name, actual] : exports) {
    const std::string golden = read_golden(name, ".csv");
    ASSERT_FALSE(golden.empty()) << name;
    EXPECT_EQ(actual, golden)
        << "CSV export '" << name << "' deviates from tests/golden/report_"
        << name << ".csv at --threads " << threads;
  }
}

TEST(GoldenReport, SerialCsvMatchesGoldens) { expect_csv_match_goldens(0); }

TEST(GoldenReport, ThreadedCsvMatchesGoldens) { expect_csv_match_goldens(3); }

// Enabling the observability layer must not change a single report byte:
// instrumentation reads the pipeline, never feeds it.
TEST(GoldenReport, InstrumentationDoesNotChangeBytes) {
  auto& reg = rs::obs::Registry::global();
  rs::obs::FakeClock clock(0, 50);
  reg.reset();
  reg.enable(&clock);

  rs::core::StudyOptions options;
  options.num_threads = 3;
  auto study = rs::core::EcosystemStudy::from_paper_scenario(
      rs::synth::kPaperSeed, options);
  const auto reports = all_reports(study);

  reg.disable();
  for (const auto& [name, actual] : reports) {
    EXPECT_EQ(actual, read_golden(name))
        << "report '" << name << "' changed with tracing enabled";
  }
  // The run really was traced: spans exist for the study build and every
  // report stage.
  const auto stats = reg.stage_stats();
  EXPECT_GT(stats.count("study/build"), 0u);
  for (const char* stage :
       {"report/table1", "report/table2", "report/table3", "report/table4",
        "report/table5", "report/table6", "report/table7", "report/fig1",
        "report/fig2", "report/fig3", "report/fig4", "report/agreement",
        "report/exclusivity", "report/ct_landscape"}) {
    EXPECT_EQ(stats.count(stage), 1u) << "missing span for " << stage;
  }
  reg.reset();
}

// The paper's pipeline decodes stored snapshots before analyzing them.
// `rootstore report --from <dir>` reproduces that shape: write the dataset
// to disk, reload it through the real format decoders (RSTS is
// full-fidelity), analyze the decoded database — and the reports must
// still be the golden bytes.  The trace must show the decode stage.
TEST(GoldenReport, DecodedDatasetMatchesGoldens) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "rootstore_golden_dataset_test";
  fs::remove_all(dir);

  auto scenario = rs::synth::build_paper_scenario(rs::synth::kPaperSeed);
  auto written = rs::formats::write_dataset(scenario.database(), dir.string());
  ASSERT_TRUE(written.ok()) << written.error();

  auto& reg = rs::obs::Registry::global();
  rs::obs::FakeClock clock(0, 50);
  reg.reset();
  reg.enable(&clock);

  auto loaded = rs::formats::load_dataset(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  scenario.replace_database(std::move(loaded.value()));

  rs::core::StudyOptions options;
  options.num_threads = 0;
  rs::core::EcosystemStudy study(std::move(scenario), options);
  const auto reports = all_reports(study);

  reg.disable();
  fs::remove_all(dir);
  for (const auto& [name, actual] : reports) {
    EXPECT_EQ(actual, read_golden(name))
        << "report '" << name << "' changed when the database was decoded "
        << "from disk instead of built in memory";
  }
  // The decode genuinely happened through the format layer: one RSTS
  // parser span per snapshot, under the dataset-load stage.
  const auto stats = reg.stage_stats();
  ASSERT_EQ(stats.count("formats/dataset"), 1u);
  ASSERT_EQ(stats.count("formats/rsts"), 1u);
  EXPECT_EQ(stats.at("formats/rsts").count,
            study.scenario().database().total_snapshots());
  reg.reset();
}

}  // namespace
