// The crash matrix: kill the server's storage at EVERY write point of a
// mixed edit+submit workload and demand that (a) recovery is clean, (b)
// everything the server acknowledged before dying is still there —
// byte-identical — afterwards, and (c) after reconnect + resync the
// system converges to the exact final state of a run that never crashed.
// These sweeps fsync every record (a seal cap of 1, the sync-per-record
// reference). Variants re-run them with torn writes, a bit-flipped
// unsynced tail, a lying fsync, and a wiped disk (the no-durability
// baseline) — and, at the default cap, with several concurrent writers
// whose records share batches, killing the storage between a batch's
// appends and its fsync, at the fsync itself, and under a lying fsync.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "core/crash.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "server/shadow_server.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"
#include "vfs/cluster.hpp"

namespace shadow::core {
namespace {

class QuietLogs {
 public:
  QuietLogs() : saved_(Logger::instance().level()) {
    Logger::instance().set_level(LogLevel::kError);
  }
  ~QuietLogs() { Logger::instance().set_level(saved_); }

 private:
  LogLevel saved_;
};

/// The sync-per-record reference: a seal cap of 1 fsyncs every record
/// before its ack is released.
CrashOptions base_options() {
  CrashOptions options;
  options.seed = 11;
  options.commit_max_batch_records = 1;
  return options;
}

/// Run the no-crash oracle, then the same workload dying at every write
/// point, comparing each trial's converged state against the oracle.
/// Returns how many trials discarded a damaged journal tail.
u64 sweep_matrix(const CrashOptions& options, bool expect_acked_survival) {
  const CrashOutcome oracle = run_crash_trial(options, 0);
  EXPECT_TRUE(oracle.clean_recovery) << oracle.detail;
  EXPECT_TRUE(oracle.converged) << "oracle run failed: " << oracle.detail;
  EXPECT_GT(oracle.write_points, 10u)
      << "workload too small to be an interesting matrix";
  if (!oracle.converged) return 0;

  u64 torn_trials = 0;
  for (u64 w = 1; w <= oracle.write_points; ++w) {
    SCOPED_TRACE("crash at write " + std::to_string(w) + " of " +
                 std::to_string(oracle.write_points));
    const CrashOutcome out = run_crash_trial(options, w);
    EXPECT_EQ(out.crashed_at, w);
    EXPECT_TRUE(out.clean_recovery) << out.detail;
    if (expect_acked_survival) {
      EXPECT_TRUE(out.acked_survived) << out.detail;
    }
    EXPECT_TRUE(out.converged) << out.detail;
    EXPECT_EQ(out.server_cached, oracle.server_cached)
        << "post-recovery state diverged from the no-crash run";
    EXPECT_EQ(out.final_content, oracle.final_content);
    EXPECT_EQ(out.job_outputs, oracle.job_outputs)
        << "job outputs diverged from the no-crash run";
    EXPECT_EQ(out.writer_cached, oracle.writer_cached)
        << "a concurrent writer's recovered state diverged";
    if (out.discarded_tail_bytes > 0) ++torn_trials;
  }

  // Persist-layer telemetry accounting: every recovery, torn tail and
  // replayed record in the sweep also incremented its global counter.
  // A lying fsync may legitimately lose every journal record, so replay
  // counts are only demanded where acked state had to survive.
  auto& reg = telemetry::Registry::global();
  EXPECT_GT(reg.counter("persist.recoveries").value(), 0u);
  if (expect_acked_survival) {
    EXPECT_GT(reg.counter("persist.replayed_records").value(), 0u);
  }
  EXPECT_GE(reg.counter("persist.torn_tails").value(), torn_trials);
  EXPECT_EQ(reg.counter("cache.lookups").value(),
            reg.counter("cache.hits").value() +
                reg.counter("cache.misses").value());
  return torn_trials;
}

TEST(CrashMatrix, EveryWritePointOnStrictDisk) {
  QuietLogs quiet;
  // Strict power cut: only fsynced bytes survive. Every ack the server
  // gave must be backed by a synced journal record, so acked state holds
  // at every single crash point.
  sweep_matrix(base_options(), /*expect_acked_survival=*/true);
}

TEST(CrashMatrix, TornFinalWriteIsTruncatedNotTrusted) {
  QuietLogs quiet;
  CrashOptions options = base_options();
  options.seed = 12;
  // The dying append leaves a 5-byte prefix on the disk, and the cut is
  // lenient enough to keep it: trials whose fatal write hit the journal
  // see a genuinely torn tail and must truncate it.
  options.torn_keep = 5;
  options.keep_unsynced_fraction = 1.0;
  const u64 torn_trials =
      sweep_matrix(options, /*expect_acked_survival=*/true);
  EXPECT_GT(torn_trials, 0u)
      << "no trial exercised the torn-tail truncation path";
}

TEST(CrashMatrix, BitFlippedTailIsTruncatedNotTrusted) {
  QuietLogs quiet;
  CrashOptions options = base_options();
  options.seed = 13;
  // A lying fsync keeps every journal byte in the unsynced page cache;
  // the power cut keeps them all but flips one bit. The CRC framing must
  // catch the flip and truncate — and because the disk lied about
  // durability, only convergence (not acked survival) can be promised.
  options.lying_fsync_after = 1;
  options.keep_unsynced_fraction = 1.0;
  options.flip_bit_in_kept_tail = true;
  const u64 torn_trials =
      sweep_matrix(options, /*expect_acked_survival=*/false);
  EXPECT_GT(torn_trials, 0u)
      << "no trial exercised the bit-flip truncation path";
}

TEST(CrashMatrix, LyingFsyncLosesDataButStillConverges) {
  QuietLogs quiet;
  CrashOptions options = base_options();
  options.seed = 14;
  // The nastiest disk: fsync says OK from the first write on, the power
  // cut drops everything unsynced. Acked-durability is impossible on such
  // hardware; the recovery path must still come up clean and resync back
  // to the oracle state.
  options.lying_fsync_after = 1;
  options.keep_unsynced_fraction = 0.0;
  sweep_matrix(options, /*expect_acked_survival=*/false);
}

TEST(CrashMatrix, RecoveredCacheEarnsDeltaContinuation) {
  QuietLogs quiet;
  // The payoff run: a server recovering its shadow cache lets the first
  // post-restart edit travel as a delta. Wiping the disk before restart
  // is the no-durability baseline — the same edit degrades to a full
  // transfer.
  CrashOptions options = base_options();
  options.seed = 15;
  const CrashOutcome kept = run_crash_trial(options, 0);
  ASSERT_TRUE(kept.converged) << kept.detail;
  EXPECT_GT(kept.post_restart_delta, 0u)
      << "recovered cache should let post-restart edits ship deltas";
  EXPECT_EQ(kept.post_restart_full, 0u);

  options.wipe_disk_before_restart = true;
  const CrashOutcome wiped = run_crash_trial(options, 0);
  ASSERT_TRUE(wiped.converged) << wiped.detail;
  EXPECT_GT(wiped.post_restart_full, 0u)
      << "a wiped server has no base to diff against";
  EXPECT_EQ(wiped.server_cached, kept.server_cached);
}

// A job interrupted by a crash is requeued with its retry counter bumped;
// a job interrupted over and over eventually FAILS for good, and the
// owning client is told so on its next connect — it must never hang
// waiting for output that will never come.
TEST(CrashRecovery, RepeatedCrashesMidJobCapRetriesAndFailTheJob) {
  QuietLogs quiet;
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");
  persist::MemDir disk;

  server::ServerConfig sc;
  sc.name = "super";
  sc.max_job_retries = 2;

  client::ShadowEnvironment env;
  client::ShadowClient client("ws", env, &cluster, "retry-domain");
  client::ShadowEditor editor(&client, &cluster);
  u64 token = 0;

  {
    // Initial run: submit a job. With a simulator attached, completion is
    // a scheduled event — by never advancing the clock, the server "dies"
    // with the job still kRunning.
    sim::Simulator sim;
    persist::DurableStore store(&disk);
    server::ShadowServer server(sc, &sim, &store);
    ASSERT_TRUE(server.recover_from_storage().ok());
    auto pair = net::make_loopback_pair("ws", "super");
    server.attach(pair.b.get());
    client.connect("super", pair.a.get());
    net::pump(pair);

    ASSERT_TRUE(editor.create("/home/user/data", "gamma\nalpha\nbeta\n").ok());
    net::pump(pair);
    (void)server.pump_persist();  // where the shard loop's pass would end
    net::pump(pair);
    client::ShadowClient::SubmitOptions job;
    job.files = {"/home/user/data"};
    job.command_file = "sort data\n";
    job.output_path = "/home/user/job.out";
    job.error_path = "/home/user/job.err";
    auto submitted = client.submit(job);
    ASSERT_TRUE(submitted.ok());
    token = submitted.value();
    net::pump(pair);
    (void)server.pump_persist();
    net::pump(pair);
    ASSERT_TRUE(server.jobs().find(1).ok());
    EXPECT_EQ(server.jobs().find(1).value()->state,
              proto::JobState::kRunning);
  }

  // Two crash/recover rounds: each recovery finds the orphan, requeues it
  // (retries 1, then 2) and starts it again — and each server dies before
  // the simulated completion fires.
  for (int round = 1; round <= 2; ++round) {
    SCOPED_TRACE("recovery round " + std::to_string(round));
    disk.crash();  // every pump_persist() synced everything: nothing lost
    sim::Simulator sim;
    persist::DurableStore store(&disk);
    server::ShadowServer server(sc, &sim, &store);
    ASSERT_TRUE(server.recover_from_storage().ok());
    (void)server.pump_persist();  // the restart's first loop pass
    EXPECT_EQ(server.stats().requeued_jobs, 1u);
    EXPECT_EQ(server.stats().retry_capped_jobs, 0u);
    ASSERT_TRUE(server.jobs().find(1).ok());
    EXPECT_EQ(server.jobs().find(1).value()->retries,
              static_cast<u64>(round));
  }

  // Third recovery: retries == max_job_retries — the job fails for good.
  disk.crash();
  sim::Simulator sim;
  persist::DurableStore store(&disk);
  server::ShadowServer server(sc, &sim, &store);
  ASSERT_TRUE(server.recover_from_storage().ok());
  EXPECT_EQ(server.stats().requeued_jobs, 0u);
  EXPECT_EQ(server.stats().retry_capped_jobs, 1u);
  ASSERT_TRUE(server.jobs().find(1).ok());
  EXPECT_EQ(server.jobs().find(1).value()->state, proto::JobState::kFailed);
  EXPECT_EQ(server.jobs().find(1).value()->exit_code, 2);

  // The client reconnects and hears about the failure immediately (the
  // Hello handler re-delivers undelivered terminal jobs).
  auto pair = net::make_loopback_pair("ws", "super");
  server.attach(pair.b.get());
  client.connect("super", pair.a.get());
  net::pump(pair);

  ASSERT_TRUE(client.job_done(token));
  const auto view = client.jobs().find(token);
  ASSERT_NE(view, client.jobs().end());
  EXPECT_EQ(view->second.state, proto::JobState::kFailed);
  EXPECT_EQ(view->second.exit_code, 2);
  auto err = cluster.read_file("ws", "/home/user/job.err");
  ASSERT_TRUE(err.ok());
  EXPECT_NE(err.value().find("crash"), std::string::npos)
      << "failure notification should say WHY: got '" << err.value() << "'";
  EXPECT_EQ(server.jobs().find(1).value()->state,
            proto::JobState::kDelivered);
}

// ---- group commit: concurrent writers, batched fsyncs ----

CrashOptions group_options(u64 seed) {
  CrashOptions options;
  options.seed = seed;
  options.edits = 4;  // 3 writers triple the records; keep the sweep bounded
  options.writers = 3;  // default seal cap: one fsync per settle round
  options.count_syncs_as_write_points = true;
  return options;
}

TEST(CrashMatrix, GroupCommitMultiWriterEveryPoint) {
  QuietLogs quiet;
  // Three writers' records share batches; sync() calls join the write-
  // point numbering, so the sweep kills the storage mid-batch, in the gap
  // after a batch's last append, and at the batch fsync itself. An ack
  // released by a batch that never fsynced would fail acked_survived here.
  sweep_matrix(group_options(31), /*expect_acked_survival=*/true);
}

TEST(CrashMatrix, GroupCommitTornBatchTailIsTruncated) {
  QuietLogs quiet;
  CrashOptions options = group_options(32);
  options.writers = 2;
  // The dying mid-batch append leaves a 5-byte prefix and the lenient cut
  // keeps every unsynced byte: recovery sees a half-written batch tail
  // and must truncate it back to the last fsync-covered prefix.
  options.torn_keep = 5;
  options.keep_unsynced_fraction = 1.0;
  const u64 torn_trials =
      sweep_matrix(options, /*expect_acked_survival=*/true);
  EXPECT_GT(torn_trials, 0u)
      << "no trial exercised the torn-batch-tail truncation path";
}

TEST(CrashMatrix, GroupCommitLyingFsyncStillConverges) {
  QuietLogs quiet;
  CrashOptions options = group_options(33);
  options.writers = 2;
  // The batch fsync says OK but syncs nothing, then the power cut drops
  // every unsynced byte: whole acked BATCHES evaporate at once. No
  // durability promise can hold on such a disk, but recovery must stay
  // clean and resync must still reach the oracle state for every writer.
  options.lying_fsync_after = 1;
  options.keep_unsynced_fraction = 0.0;
  sweep_matrix(options, /*expect_acked_survival=*/false);
}

// Opt-in extension hook for CI: SHADOW_CRASH_EXTRA_POINTS=17,23,40 runs
// additional crash points (e.g. a denser sweep of a bigger workload)
// without bloating the default suite.
TEST(CrashMatrixExtra, EnvSelectedWritePointsHold) {
  const char* env_points = std::getenv("SHADOW_CRASH_EXTRA_POINTS");
  if (env_points == nullptr || *env_points == '\0') {
    GTEST_SKIP() << "set SHADOW_CRASH_EXTRA_POINTS=comma,separated,points";
  }
  QuietLogs quiet;
  CrashOptions options = base_options();
  options.seed = 21;
  options.edits = 12;  // a longer workload so big point indices exist
  const CrashOutcome oracle = run_crash_trial(options, 0);
  ASSERT_TRUE(oracle.converged) << oracle.detail;

  std::string spec(env_points);
  std::size_t parsed = 0;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    const u64 point = std::strtoull(tok.c_str(), nullptr, 10);
    if (point == 0 || point > oracle.write_points) continue;
    ++parsed;
    SCOPED_TRACE("extra crash point " + tok);
    const CrashOutcome out = run_crash_trial(options, point);
    EXPECT_TRUE(out.clean_recovery) << out.detail;
    EXPECT_TRUE(out.acked_survived) << out.detail;
    EXPECT_TRUE(out.converged) << out.detail;
    EXPECT_EQ(out.server_cached, oracle.server_cached);
  }
  EXPECT_GT(parsed, 0u) << "no usable points in SHADOW_CRASH_EXTRA_POINTS "
                        << "(workload has " << oracle.write_points
                        << " write points)";
}

}  // namespace
}  // namespace shadow::core
