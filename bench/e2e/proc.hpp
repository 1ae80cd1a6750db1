// Child processes of the benchmark: a fresh shadowd per set-up, and the
// shadowsim runs of the population workload. Every child is started with
// PR_SET_PDEATHSIG so it cannot outlive the benchmark, and is always
// reaped before the benchmark moves on.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace shadowbench {

using shadow::Result;
using shadow::Status;
using shadow::u16;
using shadow::u64;

/// Monotonic clock in nanoseconds.
shadow::i64 now_ns();

/// How a reaped child ended.
struct ChildExit {
  int status = 0;             // waitpid status word
  double peak_rss_mib = 0.0;  // wait4 rusage ru_maxrss
  bool clean() const;         // exited with code 0
};

/// `shadowd --port 0 --journal DIR --log-level error`: the default
/// single-loop daemon with a per-record fsync journal.
class Daemon {
 public:
  /// Spawns the daemon and waits (up to 10 s) for its listening line.
  static Result<std::unique_ptr<Daemon>> start(const std::string& shadowd,
                                               const std::string& journal);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  u16 port() const { return port_; }

  /// User + system CPU the daemon has used so far (/proc/PID/stat).
  double cpu_seconds() const;

  /// One AdminQuery round trip over a short-lived connection, as
  /// `shadowtop --json` does it.
  Result<shadow::telemetry::Snapshot> snapshot() const;

  /// Resident set now (VmRSS from /proc/PID/status), MiB.
  double rss_mib() const;

  /// SIGTERM (graceful drain), then reap; SIGKILL after 10 s.
  void stop();

 private:
  Daemon(pid_t pid, u16 port) : pid_(pid), port_(port) {}
  pid_t pid_;
  u16 port_;
};

/// Run `argv` to completion with stdout captured; stderr is inherited.
struct Captured {
  std::string out;
  ChildExit exit;
  double wall_s = 0.0;
};
Result<Captured> run_captured(const std::vector<std::string>& argv);

}  // namespace shadowbench
