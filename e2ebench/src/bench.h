// Shared plumbing of the workloads: run configuration, the result each
// workload returns, and the traced-run helpers.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "e2ebench/src/percentile.h"
#include "e2ebench/src/trace.h"

namespace e2e {

/// Worker threads of the analysis pool in the report workload: one per
/// core of the 4-CPU reference machine.
inline constexpr std::size_t kStudyWorkers = 4;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path root;  // repository checkout (goldens live here)
  std::filesystem::path work;  // scratch files of this run
  std::filesystem::path out;   // traces
  std::string rootstore;       // the CLI binary (serve_mix)
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports.  A mismatch against a reference output
/// is a failed operation and makes the run incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;      // human-readable lines
  std::string first_failure;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Counts one checked operation; a failed check records why.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
};

/// A program call returned an error (not a wrong answer): the run cannot
/// continue.
struct ProgramError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Timings of repeated passes of a batch workload.
struct Passes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

/// Runs `pass` until `seconds` of wall time have been spent in passes (at
/// least once), timing each pass's wall and process CPU.  `prepare`, when
/// given, runs before each pass outside the timing.
Passes run_passes(double seconds, const std::function<void()>& pass,
                  const std::function<void()>& prepare = {});

/// Sets the batch end-to-end metrics from `passes`: wall_s, cpu_s (medians
/// per pass) and peak_rss_mb of this process.  Prints the pass times.
void set_batch_metrics(Outcome& out, const Passes& passes);

/// Median of `n` timed runs of `fn`, in seconds.
double median_seconds(int n, const std::function<void()>& fn);

/// Reads a whole file; throws ProgramError when unreadable.
std::string read_file(const std::filesystem::path& path);

/// A traced run: the benchmark's own spans plus the program's rs_obs
/// registry, enabled only between begin_program_trace() and
/// end_program_trace() so its stage table covers the traced pass alone.
class TracedRun {
 public:
  explicit TracedRun(const Config& config) : config_(config) {}
  Tracer* tracer() { return &tracer_; }
  void begin_program_trace();
  void end_program_trace();
  /// Times `pass` once untraced, then once traced (root span "bench.pass")
  /// with the program registry on; sets obs.trace_overhead_frac,
  /// obs.unattributed_frac and the <layer>.self_frac shares.  `prepare`
  /// runs before each, outside the timing.
  void measure_pass(Outcome& out, const std::function<void()>& prepare,
                    const std::function<void(Tracer*)>& pass);
  /// obs.unattributed_frac: share of [start, end) no rs_obs span covers.
  double unattributed_frac(std::int64_t start_ns, std::int64_t end_ns) const;
  /// <layer>.self_frac for every layer (0 when untouched) over root span
  /// `root`, and a note proving the shares sum to the root's wall time.
  void set_self_fracs(Outcome& out, std::uint64_t root) const;
  /// Durations (µs) of every span named `name`.
  std::vector<double> span_us(const std::string& name) const;
  /// Seconds of the single span named `name` (sum if repeated).
  double span_s(const std::string& name) const;
  /// Writes the Chrome trace (with the rs_obs stage table) to
  /// <out>/trace-<workload>-seed<seed>.json and notes the path.
  void write(Outcome& out) const;

 private:
  const Config& config_;
  Tracer tracer_;
  std::string program_stages_json_;
  std::vector<std::pair<std::int64_t, std::int64_t>> program_spans_;
};

/// The layers (src/ modules) whose self time a traced pass reports, plus
/// "bench" for the benchmark's own glue between calls.
const std::vector<std::string>& traced_layers();

Outcome run_ingest_reports(const Config& config);
Outcome run_serve_mix(const Config& config);

/// serve_mix's traced run: the index write path (append_snapshot,
/// write_file, load_file per refresh), with its per-layer metrics.
void probe_index_refresh(const Config& config, TracedRun& trace, Outcome& out);

}  // namespace e2e
