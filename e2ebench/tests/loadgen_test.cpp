// The open-loop generator against a deliberately stalled in-process stub:
// a stall must be charged to every request queued behind it.
#include "e2ebench/src/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "e2ebench/src/percentile.h"

namespace {

/// Answers each "ping" line with "pong", in order, on one connection; after
/// the `stall_after`-th request it sleeps `stall` before answering it.
class StubServer {
 public:
  StubServer(int stall_after, std::chrono::milliseconds stall)
      : stall_after_(stall_after), stall_(stall) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(listen_fd_, 4);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~StubServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  void serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    std::string in;
    int answered = 0;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      in.append(buf, static_cast<std::size_t>(n));
      for (std::size_t nl = in.find('\n'); nl != std::string::npos;
           nl = in.find('\n')) {
        in.erase(0, nl + 1);
        if (++answered == stall_after_) std::this_thread::sleep_for(stall_);
        ::send(fd, "pong\n", 5, MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  }

  int stall_after_;
  std::chrono::milliseconds stall_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

e2e::RequestSet ping() { return {{"ping"}, {"pong"}}; }

TEST(OpenLoop, StallIsChargedToEveryRequestQueuedBehindIt) {
  StubServer stub(/*stall_after=*/100, std::chrono::milliseconds(200));
  const e2e::RequestSet requests = ping();
  const e2e::ZipfTable zipf(1.0, {0});
  e2e::LoadOptions options;
  options.port = stub.port();
  options.connections = 1;
  options.rate_per_s = 1000;  // one request per millisecond
  options.seconds = 0.6;
  const e2e::LoadResult r = e2e::run_open_loop(requests, zipf, options);

  EXPECT_EQ(r.failed, 0u) << r.first_failure;
  EXPECT_EQ(r.latency_us.size(), r.attempted);
  EXPECT_GE(r.attempted, 550u);
  // Requests due during the 200 ms stall were sent on time but answered
  // after it: about 200 of them waited, the earliest ~200 ms.  Timing from
  // send-on-reply (a closed loop) would charge the stall to one request.
  const auto waited = std::count_if(r.latency_us.begin(), r.latency_us.end(),
                                    [](double us) { return us >= 50'000; });
  EXPECT_GE(waited, 100);
  EXPECT_GE(*std::max_element(r.latency_us.begin(), r.latency_us.end()),
            150'000);
  // The generator itself kept its schedule through the stall.
  const auto lag = e2e::summarize(r.lag_us, 0);
  EXPECT_LT(lag.reported.value, 20'000);
}

TEST(OpenLoop, UnstalledStubAnswersPromptly) {
  StubServer stub(/*stall_after=*/-1, std::chrono::milliseconds(0));
  const e2e::RequestSet requests = ping();
  const e2e::ZipfTable zipf(1.0, {0});
  e2e::LoadOptions options;
  options.port = stub.port();
  options.rate_per_s = 1000;
  options.seconds = 0.3;
  const e2e::LoadResult r = e2e::run_open_loop(requests, zipf, options);
  EXPECT_EQ(r.failed, 0u) << r.first_failure;
  const auto s = e2e::summarize(r.latency_us, 0);
  EXPECT_LT(s.p50.value, 20'000);
}

TEST(OpenLoop, WrongRepliesAndMissingRepliesFail) {
  StubServer stub(/*stall_after=*/-1, std::chrono::milliseconds(0));
  const e2e::RequestSet requests = {{"ping"}, {"not pong"}};
  const e2e::ZipfTable zipf(1.0, {0});
  e2e::LoadOptions options;
  options.port = stub.port();
  options.rate_per_s = 500;
  options.seconds = 0.1;
  const e2e::LoadResult r = e2e::run_open_loop(requests, zipf, options);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, r.attempted);
  EXPECT_TRUE(r.latency_us.empty());
}

TEST(ClosedLoop, CountsEveryRoundTrip) {
  StubServer stub(/*stall_after=*/-1, std::chrono::milliseconds(0));
  const e2e::RequestSet requests = ping();
  const e2e::ZipfTable zipf(1.0, {0});
  e2e::LoadOptions options;
  options.port = stub.port();
  options.seconds = 0.1;
  const e2e::LoadResult r = e2e::run_closed_loop(requests, zipf, options);
  EXPECT_EQ(r.failed, 0u) << r.first_failure;
  EXPECT_EQ(r.done_ns.size(), r.attempted);
  EXPECT_GT(r.attempted, 10u);
}

TEST(Pipelined, KeepsDepthInFlightAndCountsEveryReply) {
  StubServer stub(/*stall_after=*/50, std::chrono::milliseconds(100));
  const e2e::RequestSet requests = ping();
  const e2e::ZipfTable zipf(1.0, {0});
  e2e::LoadOptions options;
  options.port = stub.port();
  options.seconds = 0.3;
  options.depth = 8;
  const e2e::LoadResult r = e2e::run_pipelined(requests, zipf, options);
  EXPECT_EQ(r.failed, 0u) << r.first_failure;
  EXPECT_EQ(r.done_ns.size(), r.attempted);
  EXPECT_GT(r.attempted, 100u);
  // The stall held up the whole window: the 8 requests in flight at the
  // stall each waited about its length.
  const auto waited = std::count_if(r.latency_us.begin(), r.latency_us.end(),
                                    [](double us) { return us >= 50'000; });
  EXPECT_GE(waited, 8);
  EXPECT_LE(waited, 16);
}

TEST(Zipf, SkewedAndSeeded) {
  std::vector<std::size_t> ranks(4096);
  std::iota(ranks.begin(), ranks.end(), std::size_t{0});
  std::reverse(ranks.begin(), ranks.end());
  const e2e::ZipfTable zipf(0.9, ranks);
  std::mt19937_64 a(1), b(1);
  std::vector<std::size_t> counts(4096, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t x = zipf.sample(a);
    EXPECT_EQ(x, zipf.sample(b));
    ++counts[x];
  }
  const std::size_t top = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(top, 20000u / 4096u * 20u);  // far above uniform
  EXPECT_EQ(counts[4095], top);           // rank 0 is the entry it names
  EXPECT_GT(zipf.head_mass(1024), 0.5);
  EXPECT_LT(zipf.head_mass(1024), 1.0);
}

}  // namespace
