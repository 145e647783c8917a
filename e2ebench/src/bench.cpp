#include "e2ebench/src/bench.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "e2ebench/src/proc.h"
#include "src/obs/registry.h"

namespace e2e {

Passes run_passes(double seconds, const std::function<void()>& pass,
                  const std::function<void()>& prepare) {
  Passes p;
  double spent = 0;
  do {
    if (prepare) prepare();
    const double cpu0 = self_cpu_s();
    const std::int64_t t0 = now_ns();
    pass();
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    p.wall_s.push_back(wall);
    p.cpu_s.push_back(self_cpu_s() - cpu0);
    spent += wall;
  } while (spent < seconds);
  return p;
}

void set_batch_metrics(Outcome& out, const Passes& passes) {
  out.set("wall_s", median(passes.wall_s), "s");
  out.set("cpu_s", median(passes.cpu_s), "s");
  out.set("peak_rss_mb", peak_rss_mib(::getpid()), "MiB");
  std::string all = "pass wall times (s):";
  for (const double w : passes.wall_s) all += " " + std::to_string(w).substr(0, 6);
  out.note(all);
}

double median_seconds(int n, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(times);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ProgramError("cannot read " + path.string());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

const std::vector<std::string>& traced_layers() {
  static const std::vector<std::string> layers = {
      "synth", "formats", "store", "core", "analysis", "query",
      "landscape", "verify", "serve", "bench"};
  return layers;
}

void TracedRun::begin_program_trace() {
  rs::obs::Registry::global().reset();
  rs::obs::Registry::global().enable();
}

void TracedRun::end_program_trace() {
  rs::obs::Registry& registry = rs::obs::Registry::global();
  registry.disable();
  program_stages_json_ = registry.to_json();
  for (const auto& s : registry.spans()) {
    program_spans_.emplace_back(s.start_ns, s.start_ns + s.duration_ns);
  }
  registry.reset();
}

void TracedRun::measure_pass(Outcome& out,
                                const std::function<void()>& prepare,
                                const std::function<void(Tracer*)>& pass) {
  if (prepare) prepare();
  const std::int64_t u0 = now_ns();
  pass(nullptr);
  const double untraced = static_cast<double>(now_ns() - u0);
  if (prepare) prepare();
  begin_program_trace();
  std::uint64_t root = 0;
  std::int64_t t0 = 0, t1 = 0;
  {
    SpanScope span(&tracer_, "bench.pass");
    root = span.id();
    t0 = now_ns();
    pass(&tracer_);
    t1 = now_ns();
  }
  end_program_trace();
  out.set("obs.trace_overhead_frac",
          static_cast<double>(t1 - t0) / untraced - 1, "ratio");
  out.set("obs.unattributed_frac", unattributed_frac(t0, t1), "ratio");
  set_self_fracs(out, root);
}

double TracedRun::unattributed_frac(std::int64_t start_ns,
                                       std::int64_t end_ns) const {
  if (end_ns <= start_ns) return 0;
  const std::int64_t covered = covered_ns(program_spans_, start_ns, end_ns);
  return 1.0 - static_cast<double>(covered) /
                   static_cast<double>(end_ns - start_ns);
}

void TracedRun::set_self_fracs(Outcome& out, std::uint64_t root) const {
  const auto spans = tracer_.spans();
  double wall = 0;
  for (const auto& s : spans) {
    if (s.id == root) wall = static_cast<double>(s.end_ns - s.start_ns);
  }
  const auto self = layer_self_ns(spans, root);
  double sum = 0;
  std::string line = "self time by layer:";
  for (const auto& layer : traced_layers()) {
    const auto it = self.find(layer);
    const double frac = it == self.end() || wall <= 0 ? 0 : it->second / wall;
    out.set(layer + ".self_frac", frac, "ratio");
    sum += frac;
    if (frac > 0) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " %s=%.1f%%", layer.c_str(), frac * 100);
      line += buf;
    }
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, " (sum %.4f of %.3f s traced wall)", sum,
                wall / 1e9);
  out.note(line + buf);
}

std::vector<double> TracedRun::span_us(const std::string& name) const {
  std::vector<double> us;
  for (const auto& s : tracer_.spans()) {
    if (s.name == name) us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return us;
}

double TracedRun::span_s(const std::string& name) const {
  double total = 0;
  for (const double us : span_us(name)) total += us / 1e6;
  return total;
}

void TracedRun::write(Outcome& out) const {
  const auto path = config_.out / ("trace-" + config_.workload + "-seed" +
                                   std::to_string(config_.seed) + ".json");
  std::ofstream f(path, std::ios::binary);
  f << tracer_.chrome_json("rs_obs", program_stages_json_);
  if (!f) throw ProgramError("cannot write " + path.string());
  out.note("trace: " + path.string() + " (" +
           std::to_string(tracer_.spans().size()) + " spans, rs_obs stage "
           "table under otherData.rs_obs)");
}

}  // namespace e2e
