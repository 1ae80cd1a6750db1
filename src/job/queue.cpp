#include "job/queue.hpp"

#include "telemetry/registry.hpp"

namespace shadow::job {

namespace {
// Job-queue telemetry summed over every JobQueue instance. Terminal-state
// counters (completions/failures/deliveries) fire on the transition INTO
// the state, so job.transitions >= completions + failures + deliveries.
struct JobMetrics {
  telemetry::Counter& submits;
  telemetry::Counter& transitions;
  telemetry::Counter& invalid_transitions;
  telemetry::Counter& completions;
  telemetry::Counter& failures;
  telemetry::Counter& deliveries;
  telemetry::Counter& requeues;
  telemetry::Counter& restored;

  static JobMetrics& get() {
    auto& r = telemetry::Registry::global();
    static JobMetrics m{r.counter("job.submits"),
                        r.counter("job.transitions"),
                        r.counter("job.invalid_transitions"),
                        r.counter("job.completions"),
                        r.counter("job.failures"),
                        r.counter("job.deliveries"),
                        r.counter("job.requeues"),
                        r.counter("job.restored")};
    return m;
  }
};
}  // namespace

u64 JobQueue::add(JobRecord record) {
  record.job_id = next_id_;
  next_id_ += stride_;
  record.state = proto::JobState::kQueued;
  const u64 id = record.job_id;
  jobs_.emplace(id, std::move(record));
  JobMetrics::get().submits.add();
  return id;
}

Result<JobRecord*> JobQueue::find(u64 job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Error{ErrorCode::kNotFound,
                 "no such job: " + std::to_string(job_id)};
  }
  return &it->second;
}

Result<const JobRecord*> JobQueue::find(u64 job_id) const {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Error{ErrorCode::kNotFound,
                 "no such job: " + std::to_string(job_id)};
  }
  return static_cast<const JobRecord*>(&it->second);
}

std::vector<proto::JobStatusInfo> JobQueue::status_for_client(
    const std::string& client_name) const {
  std::vector<proto::JobStatusInfo> out;
  for (const auto& [id, job] : jobs_) {
    if (job.client_name != client_name) continue;
    proto::JobStatusInfo info;
    info.job_id = id;
    info.client_job_token = job.client_job_token;
    info.state = job.state;
    info.detail = job.detail;
    out.push_back(std::move(info));
  }
  return out;
}

bool JobQueue::valid_transition(proto::JobState from, proto::JobState to) {
  using S = proto::JobState;
  switch (from) {
    case S::kQueued:
      return to == S::kWaitingFiles || to == S::kRunning || to == S::kFailed;
    case S::kWaitingFiles:
      return to == S::kRunning || to == S::kFailed || to == S::kWaitingFiles;
    case S::kRunning:
      return to == S::kCompleted || to == S::kFailed;
    case S::kCompleted:
      return to == S::kDelivered || to == S::kFailed;
    case S::kFailed:
      return to == S::kDelivered;  // failure reports are delivered too
    case S::kDelivered:
      return false;
  }
  return false;
}

Status JobQueue::transition(u64 job_id, proto::JobState next,
                            const std::string& detail) {
  SHADOW_ASSIGN_OR_RETURN(record, find(job_id));
  JobMetrics& metrics = JobMetrics::get();
  if (!valid_transition(record->state, next)) {
    metrics.invalid_transitions.add();
    return Error{ErrorCode::kInternal,
                 std::string("invalid job transition ") +
                     proto::job_state_name(record->state) + " -> " +
                     proto::job_state_name(next)};
  }
  record->state = next;
  metrics.transitions.add();
  if (next == proto::JobState::kCompleted) metrics.completions.add();
  if (next == proto::JobState::kFailed) metrics.failures.add();
  if (next == proto::JobState::kDelivered) metrics.deliveries.add();
  if (!detail.empty()) record->detail = detail;
  return Status();
}

JobRecord* JobQueue::next_schedulable() {
  for (auto& [id, job] : jobs_) {
    if (job.state == proto::JobState::kQueued ||
        job.state == proto::JobState::kWaitingFiles) {
      return &job;
    }
  }
  return nullptr;
}

Status JobQueue::requeue(u64 job_id, const std::string& detail) {
  SHADOW_ASSIGN_OR_RETURN(record, find(job_id));
  // kRunning -> kQueued is deliberately absent from valid_transition —
  // in live operation it IS a bug. Crash recovery is the one legal path.
  if (record->state != proto::JobState::kRunning) {
    return Error{ErrorCode::kInternal,
                 std::string("requeue of job in state ") +
                     proto::job_state_name(record->state)};
  }
  record->state = proto::JobState::kQueued;
  record->retries += 1;
  JobMetrics::get().requeues.add();
  if (!detail.empty()) record->detail = detail;
  return Status();
}

void JobQueue::restore_record(JobRecord job) {
  const u64 id = job.job_id;
  if (id == 0 || jobs_.count(id) != 0) return;  // already in snapshot
  jobs_.emplace(id, std::move(job));
  JobMetrics::get().restored.add();
  if (id >= next_id_) next_id_ = (id / stride_ + 1) * stride_ + shard_id_;
}

std::size_t JobQueue::active_count() const {
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.state == proto::JobState::kQueued ||
        job.state == proto::JobState::kWaitingFiles ||
        job.state == proto::JobState::kRunning) {
      ++n;
    }
  }
  return n;
}

}  // namespace shadow::job
