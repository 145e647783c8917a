// The benchmark's own spans, recorded around each call into a program layer.
//
// A span has a name "<layer>.<call>" (the layer is the src/ module the call
// enters, e.g. "formats.load_dataset"), start and end on the steady clock,
// the span that caused it (the enclosing span on the same thread) and a
// request id shared by every span of one served request.  Spans stay in
// memory and are written once, at the end of a traced run, as Chrome trace
// JSON.  With no Tracer (the untraced end-to-end runs) a SpanScope costs one
// null check.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Steady-clock nanoseconds (the same clock rs_obs uses).
std::int64_t now_ns();

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;       // 1-based
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // shared by the spans of one request; 0 = none
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t next_id();
  void record(SpanRecord span);
  /// Records an externally timed span (e.g. a request's time on the wire,
  /// which starts and ends in different loop iterations).
  void record(std::string_view name, std::int64_t start_ns,
              std::int64_t end_ns, std::uint64_t request,
              std::uint64_t parent = 0);
  std::vector<SpanRecord> spans() const;

  /// Chrome trace_event JSON of every span, with `extra` (a JSON object
  /// body, e.g. the rs_obs stage table) stored under "otherData".
  std::string chrome_json(const std::string& extra_key,
                          const std::string& extra_json) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  std::uint64_t next_id_ = 0;      // guarded by mutex_
};

/// RAII span.  Parent is the innermost open SpanScope on this thread.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string_view name, std::uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const noexcept { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
  std::uint64_t saved_parent_ = 0;
};

/// Self time of every span under the root span `root`: its duration minus
/// the part of it that its children cover, summed per layer (the name up
/// to the first '.').  The root's own self time is reported under "bench"
/// (benchmark glue between layer calls), so the values sum to the root's
/// duration.
std::map<std::string, double> layer_self_ns(const std::vector<SpanRecord>& spans,
                                            std::uint64_t root);

/// Nanoseconds of [start, end) covered by the union of `intervals`.
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                        std::int64_t start, std::int64_t end);

}  // namespace e2e
