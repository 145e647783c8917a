// Load generator for the NDJSON serve protocol: one thread per connection.
//
// Open loop: each connection sends on a fixed schedule whether or not
// replies have come back (the server answers pipelined lines in order), and
// each request is timed from when it was *due*, so a stall is charged to
// every request queued behind it, not only to the one that hit it.  The
// generator's own lateness (send time minus due time) is reported so a
// late generator cannot pass for a fast server.
//
// Closed loop: each connection sends its next request only after the
// previous reply, so it measures capacity at a fixed connection count.
//
// Pipelined: each connection keeps `depth` requests in flight, sending the
// next as each reply arrives, as a bulk client that pipelines does, and
// polls its socket without sleeping.  The server always has work queued,
// so the rate follows the server's own processing and not the wake-up
// latency of two threads handing one request back and forth.
//
// Every reply is compared byte for byte with the expected response of its
// request line; a mismatch or a missing reply is a failure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "e2ebench/src/percentile.h"
#include "e2ebench/src/trace.h"

namespace e2e {

/// The distinct request lines and the response each must receive.
struct RequestSet {
  std::vector<std::string> lines;
  std::vector<std::string> expected;
};

/// Zipf popularity over a pool: rank r is drawn with probability
/// proportional to 1/(r+1)^exponent; `index_of_rank[r]` is the pool entry
/// at rank r (the caller decides which entries are popular).
class ZipfTable {
 public:
  ZipfTable(double exponent, std::vector<std::size_t> index_of_rank);
  std::size_t sample(std::mt19937_64& rng) const;
  /// Probability mass of the `k` most popular entries.
  double head_mass(std::size_t k) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> index_of_rank_;
};

struct LoadOptions {
  std::uint16_t port = 0;
  std::size_t connections = 1;
  double seconds = 1;
  double rate_per_s = 0;        // open loop: offered rate over all connections
  std::size_t depth = 16;       // pipelined: requests in flight per connection
  double drain_timeout_s = 5;   // open loop, pipelined: wait for replies
                                // after the last send
  std::uint64_t seed = 1;       // per-connection draw streams derive from it
  Tracer* tracer = nullptr;     // spans per request when tracing
};

struct LoadResult {
  std::vector<double> latency_us;      // completed, correct requests
  std::vector<std::int64_t> at_ns;     // their due (open) or send (closed) times
  std::vector<double> lag_us;          // open loop: send time - due time
  std::vector<std::int64_t> done_ns;   // completion times (closed, pipelined)
  std::size_t attempted = 0;
  std::size_t failed = 0;              // wrong, unanswered, or transport error
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string first_failure;           // diagnostic for the first failure

  void merge(LoadResult other);
};

LoadResult run_open_loop(const RequestSet& requests, const ZipfTable& zipf,
                         const LoadOptions& options);

/// Latency summaries of consecutive `window_s` windows of `r` (by each
/// request's due or send time).  Windows with fewer than `min_samples`
/// samples (the ragged last one) are dropped.
std::vector<LatencySummary> windowed(const LoadResult& r, double window_s,
                                     std::size_t min_samples);
LoadResult run_closed_loop(const RequestSet& requests, const ZipfTable& zipf,
                           const LoadOptions& options);
LoadResult run_pipelined(const RequestSet& requests, const ZipfTable& zipf,
                         const LoadOptions& options);

}  // namespace e2e
