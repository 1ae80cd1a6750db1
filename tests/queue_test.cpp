// Unit tests for server-side job bookkeeping and the state machine.
#include <gtest/gtest.h>

#include "job/queue.hpp"

namespace shadow::job {
namespace {

JobRecord sample(const std::string& client = "ws1") {
  JobRecord record;
  record.client_name = client;
  record.client_job_token = 5;
  record.command_file = "wc data\n";
  record.output_name = "/home/user/out";
  return record;
}

TEST(JobQueueTest, AddAssignsIncreasingIds) {
  JobQueue queue;
  EXPECT_EQ(queue.add(sample()), 1u);
  EXPECT_EQ(queue.add(sample()), 2u);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(JobQueueTest, ShardIdsNameTheirShardAndSurviveRestore) {
  // Shard 1 of 4 numbers seq * 4 + 1; no other shard can hand out these.
  JobQueue queue(1, 4);
  EXPECT_EQ(queue.add(sample()), 5u);
  EXPECT_EQ(queue.add(sample()), 9u);
  EXPECT_EQ(shard_of_job(9, 4), 1u);
  EXPECT_EQ(shard_of_job(9, 1), 0u);

  // Recovery moves the counter past the highest id, keeping the stride.
  JobQueue recovered(1, 4);
  JobRecord replayed = sample();
  replayed.job_id = 9;
  recovered.restore_record(replayed);
  EXPECT_EQ(recovered.add(sample()), 13u);
}

TEST(JobQueueTest, FindReturnsRecord) {
  JobQueue queue;
  const u64 id = queue.add(sample());
  auto found = queue.find(id);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value()->client_name, "ws1");
  EXPECT_EQ(found.value()->state, proto::JobState::kQueued);
  EXPECT_FALSE(queue.find(999).ok());
}

TEST(JobQueueTest, HappyPathTransitions) {
  JobQueue queue;
  const u64 id = queue.add(sample());
  EXPECT_TRUE(queue.transition(id, proto::JobState::kWaitingFiles).ok());
  EXPECT_TRUE(queue.transition(id, proto::JobState::kRunning).ok());
  EXPECT_TRUE(queue.transition(id, proto::JobState::kCompleted).ok());
  EXPECT_TRUE(queue.transition(id, proto::JobState::kDelivered).ok());
}

TEST(JobQueueTest, DirectRunFromQueuedAllowed) {
  JobQueue queue;
  const u64 id = queue.add(sample());
  EXPECT_TRUE(queue.transition(id, proto::JobState::kRunning).ok());
}

TEST(JobQueueTest, InvalidTransitionsRejected) {
  JobQueue queue;
  const u64 id = queue.add(sample());
  EXPECT_FALSE(queue.transition(id, proto::JobState::kCompleted).ok());
  EXPECT_FALSE(queue.transition(id, proto::JobState::kDelivered).ok());
  ASSERT_TRUE(queue.transition(id, proto::JobState::kRunning).ok());
  EXPECT_FALSE(queue.transition(id, proto::JobState::kQueued).ok());
  ASSERT_TRUE(queue.transition(id, proto::JobState::kCompleted).ok());
  ASSERT_TRUE(queue.transition(id, proto::JobState::kDelivered).ok());
  EXPECT_FALSE(queue.transition(id, proto::JobState::kRunning).ok());
}

TEST(JobQueueTest, FailurePathsAllowed) {
  JobQueue queue;
  const u64 a = queue.add(sample());
  ASSERT_TRUE(queue.transition(a, proto::JobState::kRunning).ok());
  ASSERT_TRUE(queue.transition(a, proto::JobState::kFailed).ok());
  // Failure reports still get delivered.
  EXPECT_TRUE(queue.transition(a, proto::JobState::kDelivered).ok());
}

TEST(JobQueueTest, TransitionUpdatesDetail) {
  JobQueue queue;
  const u64 id = queue.add(sample());
  ASSERT_TRUE(
      queue.transition(id, proto::JobState::kWaitingFiles, "pulling 2").ok());
  EXPECT_EQ(queue.find(id).value()->detail, "pulling 2");
  // Empty detail preserves the previous one.
  ASSERT_TRUE(queue.transition(id, proto::JobState::kRunning).ok());
  EXPECT_EQ(queue.find(id).value()->detail, "pulling 2");
}

TEST(JobQueueTest, StatusForClientFiltersOwnership) {
  JobQueue queue;
  queue.add(sample("alice"));
  queue.add(sample("bob"));
  queue.add(sample("alice"));
  const auto alice = queue.status_for_client("alice");
  ASSERT_EQ(alice.size(), 2u);
  EXPECT_EQ(alice[0].job_id, 1u);
  EXPECT_EQ(alice[1].job_id, 3u);
  EXPECT_TRUE(queue.status_for_client("carol").empty());
}

TEST(JobQueueTest, NextSchedulableFifo) {
  JobQueue queue;
  const u64 a = queue.add(sample());
  const u64 b = queue.add(sample());
  EXPECT_EQ(queue.next_schedulable()->job_id, a);
  ASSERT_TRUE(queue.transition(a, proto::JobState::kRunning).ok());
  EXPECT_EQ(queue.next_schedulable()->job_id, b);
  ASSERT_TRUE(queue.transition(b, proto::JobState::kWaitingFiles).ok());
  EXPECT_EQ(queue.next_schedulable()->job_id, b);  // waiting still counts
  ASSERT_TRUE(queue.transition(b, proto::JobState::kRunning).ok());
  EXPECT_EQ(queue.next_schedulable(), nullptr);
}

TEST(JobQueueTest, ActiveCount) {
  JobQueue queue;
  const u64 a = queue.add(sample());
  queue.add(sample());
  EXPECT_EQ(queue.active_count(), 2u);
  ASSERT_TRUE(queue.transition(a, proto::JobState::kRunning).ok());
  EXPECT_EQ(queue.active_count(), 2u);  // running is active
  ASSERT_TRUE(queue.transition(a, proto::JobState::kCompleted).ok());
  EXPECT_EQ(queue.active_count(), 1u);
}

}  // namespace
}  // namespace shadow::job
