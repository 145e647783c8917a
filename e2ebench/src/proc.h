// Process-level measurements and the child-process handle for the server.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

/// User+system CPU seconds of this process so far (all threads).
double self_cpu_s();
/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
double peak_rss_mib(pid_t pid);
/// Bytes this process's main malloc arena holds in use (mallinfo2): the
/// memory a single-threaded call keeps, whatever the allocator retained
/// from earlier work.
double heap_in_use_mib();
/// User+system CPU seconds of `pid` so far, from /proc/<pid>/stat.
double proc_cpu_s(pid_t pid);

/// A spawned child (the `rootstore serve` process).  The child dies with
/// this process (PR_SET_PDEATHSIG), and the destructor kills and reaps it,
/// so no server outlives a benchmark run on any exit path.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Starts argv[0] with `argv`, stdout and stderr appended to `log_path`.
  bool spawn(const std::vector<std::string>& argv, const std::string& log_path);
  pid_t pid() const noexcept { return pid_; }
  bool running() const noexcept { return pid_ > 0; }
  /// SIGINT (the server's graceful drain), then waits up to `timeout_ms`
  /// before SIGKILL.  Returns the exit status as waitpid reports it.
  int stop(int timeout_ms = 10000);

 private:
  pid_t pid_ = -1;
};

/// Polls until `path` holds a port number (the server writes it only after
/// listen() succeeds) or `timeout_ms` passes.
std::optional<std::uint16_t> wait_for_port_file(const std::string& path,
                                                int timeout_ms);

/// Blocking TCP connection to 127.0.0.1:`port`; -1 on failure.
int connect_loopback(std::uint16_t port);

/// Sends `line` plus '\n' and reads one response line on a blocking socket
/// (`buffer` carries bytes read past the previous line).  False on error.
bool roundtrip(int fd, const std::string& line, std::string& buffer,
               std::string& response);

}  // namespace e2e
