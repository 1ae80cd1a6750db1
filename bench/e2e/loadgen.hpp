// The live load generator: one process, one thread, four real
// ShadowClient/ShadowEditor instances talking TCP to a fresh shadowd. All
// file contents and edits are generated from the seed before any timed
// window; inside a window the generator only applies pre-generated edits,
// calls the editor, and blocks in ppoll(2) on the four client sockets.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "proc.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "util/types.hpp"

namespace shadowbench {

using shadow::u32;

inline constexpr u32 kConnections = 4;

/// The traffic of one live workload.
struct LiveShape {
  u32 files_per_conn = 0;
  std::size_t file_bytes = 0;
  bool binary = false;        // binary files take the CDC codec
  double edit_percent = 0.0;  // share of the file's bytes one save rewrites
  /// Operations/s over all connections; 0 = closed loop with one
  /// operation in flight per connection.
  double open_rate = 0.0;
  bool submit = false;  // an operation is save + job on that file
};

/// What one timed window measured.
struct WindowResult {
  std::vector<double> latency_ms;  // completed operations
  std::vector<double> lag_ms;      // issue time minus due time
  u64 attempted = 0;  // operations issued; each saves one file
  u64 failed = 0;
  u64 wire_bytes = 0;  // client bytes_sent over the window and its drain
  std::vector<double> server_rss_mib;  // daemon VmRSS, once a second
  double seconds = 0.0;
};

/// Counters of one traced window, before and after.
struct TraceCounters {
  shadow::telemetry::Snapshot daemon_before, daemon_after;
  shadow::telemetry::Snapshot client_before, client_after;
  double daemon_cpu_s = 0.0;
  double loadgen_cpu_s = 0.0;
  double poll_self_us = 0.0;
};

class LiveRun {
 public:
  /// Generates every file and edit the run will use. `windows` lists the
  /// length of each timed window the run will hold, in order.
  LiveRun(const LiveShape& shape, u64 seed, std::vector<double> windows,
          std::string shadowd, std::string work_dir, bool traced);
  ~LiveRun();

  LiveRun(const LiveRun&) = delete;
  LiveRun& operator=(const LiveRun&) = delete;

  /// Fresh journal + daemon, connect, create the whole working set and
  /// wait for every initial version's ack. Returns the seconds that took
  /// (from exec of shadowd). Tears down any previous set-up first.
  shadow::Result<double> setup();

  /// The next timed window. With `traced`, spans and captured frames are
  /// recorded and the counters in `counters` are filled.
  WindowResult window(bool traced, TraceCounters* counters);

  /// One `cat` job per connection over all its files must return the
  /// client's current bytes exactly; every job of the windows must match
  /// job::Executor run locally on its input version, or on a newer one
  /// saved while it waited. Returns the number of mismatches; `corrupt`
  /// falsifies one expected output of each kind (a self-test of the checks).
  u64 verify(bool corrupt, u64* attempted, u64* failed);

  void stop_daemon();

  Tracer& tracer() { return tracer_; }
  /// The Update frames the clients sent in traced windows, each with the
  /// content of its base version, rebuilt from the seeded edits.
  std::vector<CapturedUpdate> captured() const;
  const std::vector<double>& exec_us() const { return exec_us_; }
  bool pool_exhausted() const { return pool_exhausted_; }

 private:
  struct Conn;
  struct Op;

  void generate(u64 seed, const std::vector<double>& windows);
  /// Wait up to 100 ms for traffic and drain every readable connection.
  void pump();
  void issue(u32 conn, shadow::i64 due_ns);
  void collect(u32 conn, shadow::i64 now);
  std::pair<int, u64> attribute(u32 conn, const shadow::Bytes& wire) const;
  void capture_sent(u32 conn, const shadow::Bytes& wire);
  std::string command_for(u32 file) const;

  LiveShape shape_;
  std::string shadowd_;
  std::string work_dir_;
  bool traced_run_;
  std::vector<double> windows_;  // seconds of each timed window, in order
  u32 setups_ = 0;
  u32 window_index_ = 0;

  // Seeded inputs, fixed before the first set-up.
  std::string source_;  // random bytes edits copy from
  struct Region {
    u32 dst, src, len;
  };
  struct Edit {
    u32 file, first, count;  // regions_[first, first + count)
  };
  void apply_edit(const Edit& edit, std::string& text) const;
  std::vector<std::vector<std::string>> initial_;  // [conn][file]
  std::vector<std::vector<Edit>> edits_;            // [conn] in issue order
  std::vector<Region> regions_;
  std::vector<std::vector<std::pair<shadow::i64, u32>>> arrivals_;  // [window]

  std::unique_ptr<Daemon> daemon_;
  std::string journal_;  // the running daemon's fresh journal directory
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Op> ops_;
  bool pool_exhausted_ = false;

  Tracer tracer_;
  struct Sent {
    u32 conn;
    shadow::Bytes frame;
  };
  std::vector<Sent> sent_;  // Update frames of traced windows, as sent
  std::size_t sent_bytes_ = 0;
  std::vector<double> exec_us_;
  bool tracing_ = false;    // spans are being recorded
  bool in_window_ = false;  // Update frames are being captured
};

}  // namespace shadowbench
