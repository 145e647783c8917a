// serve_fault battery: the live server under hostile resource conditions.
//
// fd exhaustion: the accepting loop's listen fd is level-triggered, so a
// connection it cannot accept (EMFILE) re-notifies on every epoll_wait.
// Unless the loop sheds that connection it spins at 100% CPU for as long
// as the process is out of descriptors.  The test lowers the process's
// soft RLIMIT_NOFILE, fills every free slot but one with /dev/null dups,
// lets one client take that slot, and then requires an idle server: CPU
// time well under wall time, the rejection counted, and byte-identical
// answers once descriptors are available again.
//
// Its own binary (ctest label serve_fault): the descriptor limit is
// process-wide, so no other suite may share the process.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/server.h"
#include "tests/serve/serve_test_support.h"

namespace rs::serve {
namespace {

using test_support::Client;
using test_support::request_mix;
using test_support::ServerFixture;

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int highest_open_fd() {
  int highest = -1;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  }
  return highest;
}

/// Lowers the soft descriptor limit to a few slots above the highest open
/// fd and fills all of them but one with /dev/null dups.  The destructor
/// closes the fillers and restores the limit, so a failed assertion never
/// leaves the process starved.
class FdExhaustion {
 public:
  FdExhaustion() {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(highest_open_fd() + 1 + kHeadroom);
    if (::setrlimit(RLIMIT_NOFILE, &lowered) != 0) return;
    const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (null_fd < 0) return;
    fillers_.push_back(null_fd);
    while (true) {
      const int fd = ::fcntl(null_fd, F_DUPFD_CLOEXEC, 0);
      if (fd < 0) break;  // EMFILE: the table is full
      fillers_.push_back(fd);
    }
    exhausted_ = errno == EMFILE;
    // Free exactly one slot: the client socket takes it, leaving the
    // server nothing to accept into.
    ::close(fillers_.back());
    fillers_.pop_back();
  }
  ~FdExhaustion() { release(); }

  FdExhaustion(const FdExhaustion&) = delete;
  FdExhaustion& operator=(const FdExhaustion&) = delete;

  bool exhausted() const { return exhausted_; }
  std::size_t fillers() const { return fillers_.size(); }

  void release() {
    for (const int fd : fillers_) ::close(fd);
    fillers_.clear();
    ::setrlimit(RLIMIT_NOFILE, &saved_);
  }

 private:
  static constexpr int kHeadroom = 4;
  rlimit saved_{};
  std::vector<int> fillers_;
  bool exhausted_ = false;
};

TEST(ServeFault, AcceptUnderFdExhaustionStaysIdleAndRecovers) {
  ServerOptions options;
  options.num_threads = 1;  // one loop: it accepts and serves
  ServerFixture f(options);
  ASSERT_NE(f.port, 0);

  {
    FdExhaustion exhaustion;
    ASSERT_TRUE(exhaustion.exhausted());
    EXPECT_LE(exhaustion.fillers(), 16u);  // a handful, not thousands

    // The connect completes in the kernel's backlog; the server cannot
    // accept it into a descriptor of its own.
    Client starved(f.port);
    ASSERT_TRUE(starved.connected());

    const auto wall_start = std::chrono::steady_clock::now();
    const double cpu_start = cpu_seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const double cpu = cpu_seconds() - cpu_start;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    // A spinning accept loop burns ~one full core over the window.
    EXPECT_LT(cpu, 0.25 * wall) << "cpu " << cpu << " s over wall " << wall
                                << " s: the accept loop is spinning";

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (f.server->stats().accept_rejected == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GT(f.server->stats().accept_rejected, 0u);
  }

  // Descriptors are back: a new client is served byte-identically.
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  for (const auto& line : request_mix()) {
    auto response = client.roundtrip(line);
    ASSERT_TRUE(response.has_value()) << line;
    EXPECT_EQ(*response, f.engine->handle_json(line));
  }
  f.server->stop();
}

}  // namespace
}  // namespace rs::serve
