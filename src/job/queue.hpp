// Server-side job bookkeeping: records every submitted job, its state
// machine, and the FIFO of jobs awaiting scheduling. The demand-driven
// scheduler in server/ decides WHEN to run; the queue only tracks WHAT.
//
// State machine (proto::JobState):
//   kQueued -> kWaitingFiles -> kRunning -> kCompleted -> kDelivered
//                   |                          |
//                   +-----------> kFailed <----+
#pragma once

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "proto/messages.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace shadow::job {

struct JobRecord {
  u64 job_id = 0;
  std::string client_name;       // submitting client
  u64 client_job_token = 0;
  std::string command_file;
  std::vector<proto::JobFileRef> files;
  std::string output_name;
  std::string error_name;
  std::string output_route;      // client to deliver output to ("" = owner)
  // Identity of the connection that submitted this job (opaque, never
  // dereferenced, not persisted). Duplicate-submit detection is scoped to
  // it: a resync resend arrives on the same connection, while a restarted
  // client — whose token counter starts over — arrives on a new one and
  // must get a fresh job.
  const void* submitted_via = nullptr;

  proto::JobState state = proto::JobState::kQueued;
  std::string detail;            // human-readable status line

  // Populated on completion:
  int exit_code = 0;
  std::string output_content;
  std::string error_content;
  u64 cpu_cost = 0;

  /// How many times this job was re-queued after a crash interrupted it
  /// mid-run. Persisted, so a job that keeps dying eventually fails for
  /// good instead of looping forever.
  u64 retries = 0;
};

class JobQueue {
 public:
  /// Register a new job in kQueued state; returns its id.
  u64 add(JobRecord record);

  Result<JobRecord*> find(u64 job_id);
  Result<const JobRecord*> find(u64 job_id) const;

  /// Status of every job submitted by `client_name` (paper §6.2: status
  /// with no id returns all pending jobs).
  std::vector<proto::JobStatusInfo> status_for_client(
      const std::string& client_name) const;

  /// Transition with validation; invalid transitions are internal errors
  /// (they indicate a server bug, not bad input).
  Status transition(u64 job_id, proto::JobState next,
                    const std::string& detail = "");

  /// Oldest job in kQueued or kWaitingFiles state, if any (FIFO order).
  JobRecord* next_schedulable();

  std::size_t size() const { return jobs_.size(); }
  std::size_t active_count() const;  // queued/waiting/running

  /// Iterate all jobs (used by benches for reporting and by the server's
  /// scheduler).
  const std::map<u64, JobRecord>& all() const { return jobs_; }
  std::map<u64, JobRecord>& all_mutable() { return jobs_; }

  /// Put an interrupted job back on the queue (crash recovery): a job
  /// found kRunning after a restart never actually finished, so it runs
  /// again. Bumps the retry counter.
  Status requeue(u64 job_id, const std::string& detail);

  /// Replay (journal or snapshot): insert a job if (and only if) it is
  /// not already present — records older than the snapshot replay as
  /// no-ops — and move the id counter past it.
  void restore_record(JobRecord job);

 private:
  static bool valid_transition(proto::JobState from, proto::JobState to);

  std::map<u64, JobRecord> jobs_;
  u64 next_id_ = 1;
};

}  // namespace shadow::job
