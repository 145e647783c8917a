// e2ebench — end-to-end, layer-by-layer benchmark runner for rootstore.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --root DIR --rootstore PATH --metrics name=unit,...
//
// Runs one workload in this process (the server of serve_mix in a child
// process), checks every output against a reference, prints a readable
// report and, as the last line, one JSON object with `correct`,
// `attempted`, `failed` and `metrics`: the end-to-end metrics with
// `--trace 0`, the per-layer metrics with `--trace 1`, as listed by
// `--metrics` (run.py passes BENCHMARK.json's list).  Exit status 0 only
// when every output was correct.  Normally started by e2ebench/run.py,
// which builds it first.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "e2ebench/src/bench.h"

namespace fs = std::filesystem;

namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

/// "name=unit,name=unit,..." (BENCHMARK.json's list for this mode, passed
/// in by run.py) as (name, unit) pairs.
MetricList parse_metric_list(const std::string& spec) {
  MetricList list;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    const std::size_t eq = item.find('=');
    if (eq != std::string::npos) {
      list.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    }
    pos = end + 1;
  }
  return list;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload ingest_reports|serve_mix "
               "--seed N --seconds S --trace 0|1 "
               "--root DIR --rootstore PATH --metrics name=unit,...\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Config config;
  MetricList wanted;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") config.workload = value;
    else if (key == "--seed") config.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") config.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") config.trace = value == "1";
    else if (key == "--root") config.root = value;
    else if (key == "--rootstore") config.rootstore = value;
    else if (key == "--metrics") wanted = parse_metric_list(value);
    else usage();
  }
  if (argc % 2 != 1 || config.root.empty() || !(config.seconds > 0) ||
      wanted.empty()) {
    usage();
  }
  using Run = e2e::Outcome (*)(const e2e::Config&);
  const std::pair<const char*, Run> workloads[] = {
      {"ingest_reports", e2e::run_ingest_reports},
      {"serve_mix", e2e::run_serve_mix},
  };
  Run run = nullptr;
  for (const auto& [name, fn] : workloads) {
    if (config.workload == name) run = fn;
  }
  if (run == nullptr) usage();  // before the name is used in a path

  config.work = config.root / ".bench_work" / config.workload;
  config.out = config.root / ".bench_out";
  std::error_code ec;
  fs::remove_all(config.work, ec);
  fs::create_directories(config.work);
  fs::create_directories(config.out);

  e2e::Outcome outcome;
  try {
    outcome = run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s: %s\n", config.workload.c_str(),
                 e.what());
    fs::remove_all(config.work, ec);
    return 1;
  }
  fs::remove_all(config.work, ec);

  std::set<std::string> known;
  for (const auto& [name, unit] : wanted) known.insert(name);
  for (const auto& [name, metric] : outcome.metrics) {
    if (!known.contains(name)) {
      std::fprintf(stderr, "e2ebench: workload reported undeclared metric %s\n",
                   name.c_str());
      return 1;
    }
  }

  bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf("== e2ebench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const auto& line : outcome.notes) std::printf("   %s\n", line.c_str());
  std::printf("   checked operations: attempted=%llu failed=%llu "
              "failed_frac=%.6f\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted)
                  : 1.0);
  if (!outcome.first_failure.empty()) {
    std::printf("   FIRST FAILURE: %s\n", outcome.first_failure.c_str());
  }
  std::string json = "{";
  for (const auto& [name, unit] : wanted) {
    const auto it = outcome.metrics.find(name);
    if (it == outcome.metrics.end() && !config.trace) {
      std::fprintf(stderr, "e2ebench: workload did not measure %s\n",
                   name.c_str());
      return 1;
    }
    // Per-layer metrics of a layer this workload never calls read 0.
    double value = it != outcome.metrics.end() ? it->second.value : 0.0;
    if (!std::isfinite(value)) {
      correct = false;  // e.g. a tail that fell on a failed request
      value = 0;
    }
    std::printf("   %-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", name.c_str(), value,
                  unit.c_str());
    json += buf;
  }
  json += "}";
  // A run that checked nothing is reported as one failed operation.
  const std::uint64_t attempted = std::max<std::uint64_t>(outcome.attempted, 1);
  const std::uint64_t failed = outcome.attempted == 0 ? 1 : outcome.failed;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  return correct ? 0 : 1;
}
