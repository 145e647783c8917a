#include "e2ebench/src/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace e2e {
namespace {

thread_local std::uint64_t t_current_span = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++next_id_;
}

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void Tracer::record(std::string_view name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request,
                    std::uint64_t parent) {
  SpanRecord span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.thread = thread_index();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = ++next_id_;
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string Tracer::chrome_json(const std::string& extra_key,
                                const std::string& extra_json) const {
  const std::vector<SpanRecord> all = spans();
  std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (const auto& s : all) origin = std::min(origin, s.start_ns);
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":\"";
    append_escaped(out, s.name);
    const std::string_view name = s.name;
    out += "\",\"cat\":\"";
    append_escaped(out, name.substr(0, name.find('.')));
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"request\":%llu}}",
                  s.thread, static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"";
  append_escaped(out, extra_key);
  out += "\":";
  out += extra_json.empty() ? "null" : extra_json;
  out += "}}\n";
  return out;
}

SpanScope::SpanScope(Tracer* tracer, std::string_view name,
                     std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.start_ns = now_ns();
  record_.name = name;
  record_.id = tracer_->next_id();
  record_.parent = t_current_span;
  record_.request = request;
  record_.thread = thread_index();
  saved_parent_ = t_current_span;
  t_current_span = record_.id;
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) return;
  record_.end_ns = now_ns();
  t_current_span = saved_parent_;
  tracer_->record(std::move(record_));
}

std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t start, std::int64_t end) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = start;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, end);
    if (b <= a) continue;
    covered += b - a;
    cursor = b;
  }
  return covered;
}

std::map<std::string, double> layer_self_ns(
    const std::vector<SpanRecord>& spans, std::uint64_t root) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  const SpanRecord* root_span = nullptr;
  for (const auto& s : spans) {
    children[s.parent].push_back(&s);
    if (s.id == root) root_span = &s;
  }
  std::map<std::string, double> self;
  if (root_span == nullptr) return self;
  std::vector<const SpanRecord*> stack{root_span};
  while (!stack.empty()) {
    const SpanRecord* s = stack.back();
    stack.pop_back();
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const SpanRecord* c : children[s->id]) {
      kids.emplace_back(c->start_ns, c->end_ns);
      stack.push_back(c);
    }
    const std::int64_t own =
        (s->end_ns - s->start_ns) - covered_ns(kids, s->start_ns, s->end_ns);
    const std::string layer =
        s == root_span ? "bench" : s->name.substr(0, s->name.find('.'));
    self[layer] += static_cast<double>(own);
  }
  return self;
}

}  // namespace e2e
