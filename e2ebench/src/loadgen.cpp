#include "e2ebench/src/loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <deque>
#include <thread>

#include "e2ebench/src/proc.h"

namespace e2e {
namespace {

struct Inflight {
  std::size_t index = 0;       // request line
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::uint64_t stream_end = 0;  // byte offset just past this line
};

std::mt19937_64 connection_rng(std::uint64_t seed, std::size_t connection) {
  std::seed_seq seq{seed, static_cast<std::uint64_t>(connection),
                    std::uint64_t{0x10ad}};
  return std::mt19937_64(seq);
}

void note_failure(LoadResult& r, const std::string& what) {
  ++r.failed;
  if (r.first_failure.empty()) r.first_failure = what;
}

void check_reply(const RequestSet& requests, std::size_t index,
                 const std::string& reply, std::int64_t from_ns,
                 std::int64_t to_ns, LoadResult& r) {
  if (reply != requests.expected[index]) {
    note_failure(r, "wrong reply to " + requests.lines[index].substr(0, 120) +
                        ": " + reply.substr(0, 200));
    return;
  }
  r.latency_us.push_back(static_cast<double>(to_ns - from_ns) / 1e3);
  r.at_ns.push_back(from_ns);
}

// One open-loop connection.  Due times are start + offset + k·interval;
// lines due are appended to the output stream at once and written as far
// as the socket accepts, and replies are matched to requests in order.
LoadResult open_loop_connection(const RequestSet& requests,
                                const ZipfTable& zipf,
                                const LoadOptions& options,
                                std::size_t connection, std::int64_t start_ns) {
  LoadResult r;
  r.start_ns = start_ns;
  const int fd = connect_loopback(options.port);
  if (fd < 0) {
    note_failure(r, "connect failed");
    return r;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  // Wake for each due time as exactly as the kernel allows (the default
  // 50 µs timer slack would make every send that much late).
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::mt19937_64 rng = connection_rng(options.seed, connection);
  const double interval_ns =
      1e9 * static_cast<double>(options.connections) / options.rate_per_s;
  const auto send_end =
      start_ns + static_cast<std::int64_t>(options.seconds * 1e9);
  const auto give_up =
      send_end + static_cast<std::int64_t>(options.drain_timeout_s * 1e9);
  std::uint64_t k = 0;
  const auto due_of = [&](std::uint64_t i) {
    return start_ns + static_cast<std::int64_t>(
                          (static_cast<double>(i) +
                           static_cast<double>(connection) /
                               static_cast<double>(options.connections)) *
                          interval_ns);
  };
  std::deque<Inflight> inflight;  // sent or queued, awaiting replies
  std::size_t unsent_from = 0;    // first inflight entry not fully written
  std::string out;                // bytes not yet accepted by the socket
  std::uint64_t written = 0;      // stream bytes accepted so far
  std::uint64_t queued = 0;       // stream bytes generated so far
  std::string in;
  bool broken = false;
  const std::uint64_t request_id_base =
      (static_cast<std::uint64_t>(connection) + 1) << 40;
  std::uint64_t answered = 0;

  while (true) {
    std::int64_t now = now_ns();
    for (std::int64_t due = due_of(k); due <= now && due < send_end;
         due = due_of(++k)) {
      Inflight f;
      f.index = zipf.sample(rng);
      f.due_ns = due;
      out += requests.lines[f.index];
      out.push_back('\n');
      queued += requests.lines[f.index].size() + 1;
      f.stream_end = queued;
      inflight.push_back(f);
      ++r.attempted;
    }
    while (!out.empty() && !broken) {
      const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        broken = true;
        break;
      }
      out.erase(0, static_cast<std::size_t>(n));
      written += static_cast<std::uint64_t>(n);
    }
    now = now_ns();
    while (unsent_from < inflight.size() &&
           inflight[unsent_from].stream_end <= written) {
      Inflight& f = inflight[unsent_from++];
      f.sent_ns = now;
      r.lag_us.push_back(static_cast<double>(now - f.due_ns) / 1e3);
    }
    if (broken) break;
    const bool sending = due_of(k) < send_end;
    if (!sending && inflight.empty()) break;
    if (now >= give_up) break;

    const std::int64_t wake = sending ? due_of(k) : give_up;
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
    timespec ts{static_cast<time_t>(wait / 1000000000),
                static_cast<long>(wait % 1000000000)};
    pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
               0};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        broken = true;
        break;
      }
      in.append(chunk, static_cast<std::size_t>(n));
    }
    const std::int64_t got = now_ns();
    std::size_t pos = 0;
    for (std::size_t nl = in.find('\n'); nl != std::string::npos;
         nl = in.find('\n', pos)) {
      if (inflight.empty() || unsent_from == 0) {
        broken = true;  // a reply to nothing we sent
        break;
      }
      const Inflight f = inflight.front();
      inflight.pop_front();
      --unsent_from;
      check_reply(requests, f.index, in.substr(pos, nl - pos), f.due_ns, got,
                  r);
      if (options.tracer != nullptr) {
        const std::uint64_t id = request_id_base + answered;
        options.tracer->record("loadgen.queue", f.due_ns, f.sent_ns, id);
        options.tracer->record("serve.roundtrip", f.sent_ns, got, id);
      }
      ++answered;
      pos = nl + 1;
    }
    in.erase(0, pos);
    if (broken) break;
  }
  for (std::size_t i = 0; i < inflight.size(); ++i) {
    note_failure(r, broken ? "connection lost" : "no reply before deadline");
  }
  ::close(fd);
  r.end_ns = now_ns();
  return r;
}

LoadResult closed_loop_connection(const RequestSet& requests,
                                  const ZipfTable& zipf,
                                  const LoadOptions& options,
                                  std::size_t connection,
                                  std::int64_t start_ns) {
  LoadResult r;
  r.start_ns = start_ns;
  const int fd = connect_loopback(options.port);
  if (fd < 0) {
    note_failure(r, "connect failed");
    return r;
  }
  std::mt19937_64 rng = connection_rng(options.seed, connection);
  const auto end =
      start_ns + static_cast<std::int64_t>(options.seconds * 1e9);
  const std::uint64_t request_id_base =
      (static_cast<std::uint64_t>(connection) + 1) << 40;
  std::string buffer, reply;
  for (std::int64_t t0 = now_ns(); t0 < end; t0 = now_ns()) {
    const std::size_t index = zipf.sample(rng);
    ++r.attempted;
    if (!roundtrip(fd, requests.lines[index], buffer, reply)) {
      note_failure(r, "connection lost");
      break;
    }
    const std::int64_t t1 = now_ns();
    check_reply(requests, index, reply, t0, t1, r);
    r.done_ns.push_back(t1);
    if (options.tracer != nullptr) {
      options.tracer->record("serve.roundtrip", t0, t1,
                             request_id_base + r.attempted);
    }
  }
  ::close(fd);
  r.end_ns = now_ns();
  return r;
}

// One pipelined connection.  The socket is nonblocking and the connection
// polls it without sleeping: a thread that sleeps between replies makes
// the host wake its virtual CPU for each, and on a shared host that wake-up
// latency, not the server, set the rate.
LoadResult pipelined_connection(const RequestSet& requests,
                                const ZipfTable& zipf,
                                const LoadOptions& options,
                                std::size_t connection, std::int64_t start_ns) {
  LoadResult r;
  r.start_ns = start_ns;
  const int fd = connect_loopback(options.port);
  if (fd < 0) {
    note_failure(r, "connect failed");
    return r;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  std::mt19937_64 rng = connection_rng(options.seed, connection);
  const auto end =
      start_ns + static_cast<std::int64_t>(options.seconds * 1e9);
  const auto give_up =
      end + static_cast<std::int64_t>(options.drain_timeout_s * 1e9);
  std::deque<Inflight> inflight;
  std::string out;  // request bytes the socket has not taken yet
  const auto queue_next = [&] {
    Inflight f;
    f.index = zipf.sample(rng);
    f.sent_ns = now_ns();
    ++r.attempted;
    inflight.push_back(f);
    out += requests.lines[f.index];
    out.push_back('\n');
  };
  for (std::size_t i = 0; i < options.depth; ++i) queue_next();
  std::string in;
  char chunk[65536];
  bool broken = false;
  while (!inflight.empty() && !broken) {
    while (!out.empty()) {
      const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        broken = true;
        break;
      }
      out.erase(0, static_cast<std::size_t>(n));
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      if (now_ns() > give_up) break;
      continue;
    }
    if (n <= 0) {
      broken = true;
      break;
    }
    in.append(chunk, static_cast<std::size_t>(n));
    const std::int64_t got = now_ns();
    std::size_t pos = 0;
    for (std::size_t nl = in.find('\n'); nl != std::string::npos;
         nl = in.find('\n', pos)) {
      if (inflight.empty()) {
        broken = true;  // a reply to nothing we sent
        break;
      }
      const Inflight f = inflight.front();
      inflight.pop_front();
      check_reply(requests, f.index, in.substr(pos, nl - pos), f.sent_ns, got,
                  r);
      r.done_ns.push_back(got);
      pos = nl + 1;
      if (got < end) queue_next();
    }
    in.erase(0, pos);
  }
  for (std::size_t i = 0; i < inflight.size(); ++i) {
    note_failure(r, broken ? "connection lost" : "no reply before deadline");
  }
  ::close(fd);
  r.end_ns = now_ns();
  return r;
}

template <typename Fn>
LoadResult run_connections(const LoadOptions& options, Fn fn) {
  std::vector<LoadResult> results(options.connections);
  // Start slightly in the future so every thread is connected and waiting
  // when the schedule begins.
  const std::int64_t start = now_ns() + 20'000'000;
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < options.connections; ++c) {
      threads.emplace_back([&, c] { results[c] = fn(c, start); });
    }
  }
  LoadResult all;
  all.start_ns = start;
  for (auto& r : results) all.merge(std::move(r));
  return all;
}

}  // namespace

ZipfTable::ZipfTable(double exponent, std::vector<std::size_t> index_of_rank)
    : cdf_(index_of_rank.size()), index_of_rank_(std::move(index_of_rank)) {
  double total = 0;
  for (std::size_t r = 0; r < cdf_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfTable::sample(std::mt19937_64& rng) const {
  const double u = std::generate_canonical<double, 53>(rng);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  return index_of_rank_[rank];
}

double ZipfTable::head_mass(std::size_t k) const {
  if (k == 0 || cdf_.empty()) return 0;
  return cdf_[std::min(k, cdf_.size()) - 1];
}

void LoadResult::merge(LoadResult other) {
  latency_us.insert(latency_us.end(), other.latency_us.begin(),
                    other.latency_us.end());
  at_ns.insert(at_ns.end(), other.at_ns.begin(), other.at_ns.end());
  lag_us.insert(lag_us.end(), other.lag_us.begin(), other.lag_us.end());
  done_ns.insert(done_ns.end(), other.done_ns.begin(), other.done_ns.end());
  attempted += other.attempted;
  failed += other.failed;
  if (start_ns == 0 || (other.start_ns != 0 && other.start_ns < start_ns)) {
    start_ns = other.start_ns;
  }
  end_ns = std::max(end_ns, other.end_ns);
  if (first_failure.empty()) first_failure = std::move(other.first_failure);
}

LoadResult run_open_loop(const RequestSet& requests, const ZipfTable& zipf,
                         const LoadOptions& options) {
  return run_connections(options, [&](std::size_t c, std::int64_t start) {
    return open_loop_connection(requests, zipf, options, c, start);
  });
}

std::vector<LatencySummary> windowed(const LoadResult& r, double window_s,
                                     std::size_t min_samples) {
  const auto width = static_cast<std::int64_t>(window_s * 1e9);
  std::vector<std::vector<double>> buckets;
  for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
    const auto w = static_cast<std::size_t>(
        std::max<std::int64_t>(0, r.at_ns[i] - r.start_ns) / width);
    if (w >= buckets.size()) buckets.resize(w + 1);
    buckets[w].push_back(r.latency_us[i]);
  }
  std::vector<LatencySummary> out;
  for (auto& b : buckets) {
    if (b.size() >= min_samples) out.push_back(summarize(std::move(b), 0));
  }
  return out;
}

LoadResult run_closed_loop(const RequestSet& requests, const ZipfTable& zipf,
                           const LoadOptions& options) {
  return run_connections(options, [&](std::size_t c, std::int64_t start) {
    // Closed loop starts at once; there is no schedule to align to.
    std::this_thread::sleep_for(std::chrono::nanoseconds(start - now_ns()));
    return closed_loop_connection(requests, zipf, options, c, start);
  });
}

LoadResult run_pipelined(const RequestSet& requests, const ZipfTable& zipf,
                         const LoadOptions& options) {
  return run_connections(options, [&](std::size_t c, std::int64_t start) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(start - now_ns()));
    return pipelined_connection(requests, zipf, options, c, start);
  });
}

}  // namespace e2e
