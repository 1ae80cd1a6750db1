// Group-commit WAL tests: batching semantics of the deferred-append path
// (seal caps, flush ordering, the cap-1 byte-for-byte guarantee), the
// no-partial-release rule when a batch's fsync fails, the server's
// ack-deferral contract (one pump, one fsync), a compaction failure that
// stops acks, and crash trials that die at batch boundaries — between a
// batch's appends and its fsync, and at the fsync itself.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "core/crash.hpp"
#include "core/workload.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "persist/fault_fs.hpp"
#include "persist/storage.hpp"
#include "persist/wal.hpp"
#include "server/shadow_server.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"
#include "vfs/cluster.hpp"

namespace shadow {
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

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

persist::GroupCommitConfig capped_at(u64 max_records) {
  persist::GroupCommitConfig gc;
  gc.max_batch_records = max_records;
  return gc;
}

// ---- batching semantics ----

TEST(GroupCommitTest, CallbacksWaitForFlushAndReleaseInOrder) {
  persist::MemDir dir;
  persist::DurableStore store(&dir, 100);

  std::vector<int> released;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store
                    .append_deferred(persist::RecordType::kShadowCached,
                                     bytes_of("r" + std::to_string(i)),
                                     [&released, i](const Status& st) {
                                       ASSERT_TRUE(st.ok());
                                       released.push_back(i);
                                     })
                    .ok());
  }
  EXPECT_TRUE(released.empty());  // written, not yet promised
  EXPECT_EQ(store.pending_records(), 5u);
  EXPECT_GT(dir.pending_bytes(), 0u);  // nothing fsynced yet

  ASSERT_TRUE(store.flush().ok());
  EXPECT_EQ(released, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(store.pending_records(), 0u);
  EXPECT_EQ(dir.pending_bytes(), 0u);  // one fsync covered the batch
  EXPECT_EQ(store.stats().group_flushes, 1u);
  EXPECT_EQ(store.stats().group_records, 5u);
}

TEST(GroupCommitTest, BatchSealsAtRecordCap) {
  persist::MemDir dir;
  persist::DurableStore store(&dir, 100);
  store.set_group_commit(capped_at(3));

  int released = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store
                    .append_deferred(persist::RecordType::kShadowCached,
                                     bytes_of("x"),
                                     [&released](const Status& st) {
                                       ASSERT_TRUE(st.ok());
                                       ++released;
                                     })
                    .ok());
  }
  // The third record hit the cap: the batch sealed and synced itself.
  EXPECT_EQ(released, 3);
  EXPECT_EQ(store.pending_records(), 0u);
  EXPECT_EQ(store.stats().group_flushes, 1u);
}

TEST(GroupCommitTest, BatchSealsAtByteCap) {
  persist::MemDir dir;
  persist::DurableStore store(&dir, 100);
  persist::GroupCommitConfig gc;
  gc.max_batch_bytes = 64;
  store.set_group_commit(gc);

  int released = 0;
  ASSERT_TRUE(store
                  .append_deferred(persist::RecordType::kShadowCached,
                                   Bytes(128, 0x5A),
                                   [&released](const Status& st) {
                                     ASSERT_TRUE(st.ok());
                                     ++released;
                                   })
                  .ok());
  EXPECT_EQ(released, 1);  // one oversized record still seals immediately
  EXPECT_EQ(store.stats().group_flushes, 1u);
}

TEST(GroupCommitTest, CapOneMatchesAppendByteForByte) {
  persist::MemDir classic_dir;
  persist::DurableStore classic(&classic_dir, 100);

  persist::MemDir w0_dir;
  persist::DurableStore w0(&w0_dir, 100);
  w0.set_group_commit(capped_at(1));

  const std::vector<std::pair<persist::RecordType, std::string>> records = {
      {persist::RecordType::kShadowCached, "alpha"},
      {persist::RecordType::kJobSubmitted, "beta"},
      {persist::RecordType::kShadowEvicted, "gamma"},
  };
  for (const auto& [type, body] : records) {
    ASSERT_TRUE(classic.append(type, bytes_of(body)).ok());
    bool inline_ack = false;
    ASSERT_TRUE(w0.append_deferred(type, bytes_of(body),
                                   [&inline_ack](const Status& st) {
                                     ASSERT_TRUE(st.ok());
                                     inline_ack = true;
                                   })
                    .ok());
    // Cap 1 seals, syncs and resolves BEFORE append_deferred returns.
    EXPECT_TRUE(inline_ack);
  }

  auto a = classic_dir.read(persist::DurableStore::kJournalName);
  auto b = w0_dir.read(persist::DurableStore::kJournalName);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());  // identical journal bytes
  EXPECT_EQ(classic_dir.pending_bytes(), 0u);
  EXPECT_EQ(w0_dir.pending_bytes(), 0u);  // same fsync-per-record rhythm
  EXPECT_EQ(w0.pending_records(), 0u);
  EXPECT_EQ(w0.stats().group_flushes, records.size());  // one sync each
}

// ---- failure semantics (the no-partial-release rule) ----

TEST(GroupCommitTest, FsyncFailureFailsWholeBatchNeverASubset) {
  QuietLogs quiet;
  persist::MemDir mem;
  persist::StorageFaultPlan plan;
  plan.syncs_are_write_points = true;
  plan.crash_at_write = 4;  // three appends, then THE batch fsync
  persist::FaultFs faults(&mem, plan);
  persist::DurableStore store(&faults, 100);

  int ok_acks = 0;
  int failed_acks = 0;
  auto count = [&](const Status& st) {
    if (st.ok()) {
      ++ok_acks;
    } else {
      ++failed_acks;
    }
  };
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store
                    .append_deferred(persist::RecordType::kShadowCached,
                                     bytes_of("doomed"), count)
                    .ok());
  }
  EXPECT_EQ(failed_acks, 0);

  Status flushed = store.flush();
  EXPECT_FALSE(flushed.ok());
  // EVERY pending ack failed together — releasing any subset as OK would
  // promise durability for records the dead disk never synced.
  EXPECT_EQ(ok_acks, 0);
  EXPECT_EQ(failed_acks, 3);
  EXPECT_EQ(store.pending_records(), 0u);
  EXPECT_EQ(store.stats().group_flush_failures, 1u);
  EXPECT_FALSE(store.group_error().ok());

  // Later deferred appends fail fast instead of queueing behind the
  // broken disk; their callbacks get the error inline.
  bool late_failed = false;
  Status late = store.append_deferred(
      persist::RecordType::kShadowCached, bytes_of("late"),
      [&late_failed](const Status& st) { late_failed = !st.ok(); });
  EXPECT_FALSE(late.ok());
  EXPECT_TRUE(late_failed);
}

TEST(GroupCommitTest, DropPendingDiscardsCallbacksWithoutInvoking) {
  persist::MemDir dir;
  persist::DurableStore store(&dir, 100);

  int invoked = 0;
  ASSERT_TRUE(store
                  .append_deferred(persist::RecordType::kShadowCached,
                                   bytes_of("orphan"),
                                   [&invoked](const Status&) { ++invoked; })
                  .ok());
  store.drop_pending();  // teardown path: the ack targets are gone
  EXPECT_EQ(invoked, 0);
  EXPECT_EQ(store.pending_records(), 0u);
}

TEST(GroupCommitTest, CompactionFlushesTheOpenBatchFirst) {
  persist::MemDir dir;
  persist::DurableStore store(&dir, /*compact_every=*/2);

  int released = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store
                    .append_deferred(persist::RecordType::kShadowCached,
                                     bytes_of("c" + std::to_string(i)),
                                     [&released](const Status& st) {
                                       ASSERT_TRUE(st.ok());
                                       ++released;
                                     })
                    .ok());
  }
  ASSERT_TRUE(store.compaction_due());
  ASSERT_TRUE(store.compact(bytes_of("snapshot-state")).ok());
  // No callback may straddle the truncation: all three released first.
  EXPECT_EQ(released, 3);
  EXPECT_EQ(store.pending_records(), 0u);

  persist::DurableStore reader(&dir, 100);
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().snapshot_present);
  EXPECT_EQ(recovered.value().snapshot, bytes_of("snapshot-state"));
  EXPECT_TRUE(recovered.value().records.empty());  // truncated after snapshot
}

// ---- the server's ack-deferral contract ----

TEST(GroupCommitTest, ServerDefersAcksUntilTheBatchIsDurable) {
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");

  persist::MemDir disk;
  persist::DurableStore store(&disk, 100);

  server::ServerConfig sc;
  sc.name = "super";
  server::ShadowServer server(sc, nullptr, &store);

  client::ShadowEnvironment env;
  client::ShadowClient client("ws", env, &cluster, "gc-domain");
  client::ShadowEditor editor(&client, &cluster);
  auto pair = net::make_loopback_pair("ws", "super");
  server.attach(pair.b.get());
  client.connect("super", pair.a.get());
  net::pump(pair);

  ASSERT_TRUE(editor.create("/home/user/f", "deferred ack payload").ok());
  net::pump(pair);

  // The server HOLDS the UpdateAck: the record is written but its batch
  // has not fsynced, so no durability promise may leave the building.
  auto id = client.resolve_name("/home/user/f");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(client.acked_versions("super").count(id.value().key()), 0u);
  EXPECT_EQ(server.stats().acks_deferred, 1u);
  EXPECT_GT(store.pending_records(), 0u);

  (void)server.pump_persist();  // the loop pass ends
  net::pump(pair);
  EXPECT_EQ(client.acked_versions("super").count(id.value().key()), 1u);
  EXPECT_EQ(server.stats().journal_appends, 1u);
  EXPECT_EQ(server.stats().persist_flushes, 1u);
  EXPECT_EQ(disk.pending_bytes(), 0u);
}

TEST(GroupCommitTest, OnePumpIsOneFsyncForEveryClientsUpdate) {
  constexpr int kClients = 4;
  vfs::Cluster cluster;
  persist::MemDir disk;
  persist::DurableStore store(&disk);  // default caps

  server::ServerConfig sc;
  sc.name = "super";
  server::ShadowServer server(sc, nullptr, &store);

  struct Writer {
    std::unique_ptr<client::ShadowClient> client;
    std::unique_ptr<client::ShadowEditor> editor;
    net::LoopbackPair pair;
  };
  std::vector<Writer> writers(kClients);
  for (int i = 0; i < kClients; ++i) {
    const std::string host = "ws" + std::to_string(i);
    (void)cluster.add_host(host).mkdir_p("/home/user");
    Writer& w = writers[i];
    w.client = std::make_unique<client::ShadowClient>(
        host, client::ShadowEnvironment{}, &cluster, "gc-domain");
    w.editor = std::make_unique<client::ShadowEditor>(w.client.get(), &cluster);
    w.pair = net::make_loopback_pair(host, "super");
    server.attach(w.pair.b.get());
    w.client->connect("super", w.pair.a.get());
    net::pump(w.pair);
  }

  // One Update from each client reaches the server in the same pass.
  for (auto& w : writers) {
    ASSERT_TRUE(w.editor->create("/home/user/f", "one pass, one fsync").ok());
    net::pump(w.pair);
  }
  EXPECT_EQ(server.stats().updates_received, static_cast<u64>(kClients));
  for (auto& w : writers) {
    EXPECT_TRUE(w.client->acked_versions("super").empty())
        << "an UpdateAck left before its record was fsynced";
  }
  EXPECT_EQ(store.pending_records(), static_cast<u64>(kClients));
  EXPECT_EQ(store.stats().group_flushes, 0u);

  // The pass ends: one fsync covers all four records and releases all
  // four acks.
  EXPECT_EQ(server.pump_persist(), static_cast<std::size_t>(kClients));
  EXPECT_EQ(store.stats().group_flushes, 1u);
  EXPECT_EQ(store.stats().group_records, static_cast<u64>(kClients));
  EXPECT_EQ(server.stats().persist_flushes, 1u);
  EXPECT_EQ(disk.pending_bytes(), 0u);
  for (auto& w : writers) {
    net::pump(w.pair);
    EXPECT_EQ(w.client->acked_versions("super").size(), 1u);
  }
}

TEST(GroupCommitTest, CompactionFailureStopsAcksAndIsRecorded) {
  QuietLogs quiet;
  telemetry::Registry::global().reset_values();
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");

  // Write 1 is the journal append; write 2 is the snapshot's
  // write_atomic, the first step of compaction — the storage dies there.
  persist::MemDir mem;
  persist::StorageFaultPlan plan;
  plan.crash_at_write = 2;
  persist::FaultFs faults(&mem, plan);
  persist::DurableStore store(&faults, /*compact_every=*/1);

  server::ServerConfig sc;
  sc.name = "super";
  server::ShadowServer server(sc, nullptr, &store);
  client::ShadowClient client("ws", client::ShadowEnvironment{}, &cluster,
                              "gc-domain");
  client::ShadowEditor editor(&client, &cluster);
  auto pair = net::make_loopback_pair("ws", "super");
  server.attach(pair.b.get());
  client.connect("super", pair.a.get());
  net::pump(pair);

  ASSERT_TRUE(editor.create("/home/user/f", "version one\n").ok());
  net::pump(pair);
  (void)server.pump_persist();  // fsync + ack, then the compaction dies
  net::pump(pair);
  auto id = client.resolve_name("/home/user/f");
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(client.acked_versions("super").at(id.value().key()), 1u)
      << "the record was fsynced before compaction: its ack stands";
  EXPECT_EQ(server.stats().compactions, 0u);

  bool recorded = false;
  for (const auto& event : telemetry::Registry::global().events().recent()) {
    if (event.kind == telemetry::EventKind::kJournal &&
        event.detail == "compaction failed; persistence dead") {
      recorded = true;
    }
  }
  EXPECT_TRUE(recorded);
  server.sync_telemetry();
  auto& reg = telemetry::Registry::global();
  EXPECT_EQ(reg.gauge("server.persist_alive").value(), 0.0);
  EXPECT_EQ(reg.counter("server.journal_failures").value(), 1u);

  // No durability can be promised any more: the next save is never acked.
  ASSERT_TRUE(editor.create("/home/user/f", "version two\n").ok());
  net::pump(pair);
  (void)server.pump_persist();
  net::pump(pair);
  EXPECT_EQ(client.acked_versions("super").at(id.value().key()), 1u);
  EXPECT_EQ(server.stats().updates_received, 2u);
}

// ---- crash trials at batch boundaries ----

TEST(GroupCommitTest, GroupedOracleMatchesClassicOracle) {
  QuietLogs quiet;
  core::CrashOptions classic;
  classic.seed = 11;
  classic.edits = 6;
  classic.commit_max_batch_records = 1;  // the sync-per-record reference
  // Count syncs on BOTH sides so the op totals are comparable: cap 1
  // pays one sync per record, the default cap one per batch.
  classic.count_syncs_as_write_points = true;
  const auto baseline = core::run_crash_trial(classic, 0);
  ASSERT_TRUE(baseline.converged) << baseline.detail;

  core::CrashOptions grouped = classic;
  grouped.commit_max_batch_records = core::CrashOptions{}.commit_max_batch_records;
  const auto batched = core::run_crash_trial(grouped, 0);
  ASSERT_TRUE(batched.converged) << batched.detail;

  // Batching changes WHEN acks release, never WHAT the system computes:
  // the grouped oracle lands on the classic oracle's exact final state.
  EXPECT_EQ(batched.final_content, baseline.final_content);
  EXPECT_EQ(batched.server_cached, baseline.server_cached);
  EXPECT_EQ(batched.job_outputs, baseline.job_outputs);
  // ...with far fewer fsyncs: syncs join the write-point numbering here,
  // so fewer total write points means the batching actually happened.
  EXPECT_LT(batched.write_points, baseline.write_points);
}

TEST(GroupCommitTest, CrashAtEveryGroupedPointKeepsAckedState) {
  QuietLogs quiet;
  core::CrashOptions options;
  options.seed = 23;
  options.edits = 5;
  options.writers = 2;
  options.count_syncs_as_write_points = true;

  const auto oracle = core::run_crash_trial(options, 0);
  ASSERT_TRUE(oracle.converged) << oracle.detail;
  ASSERT_GT(oracle.write_points, 0u);

  // Every point: mid-batch appends, the gap between a batch's last append
  // and its fsync, and the fsync itself all get a kill.
  for (u64 point = 1; point <= oracle.write_points; ++point) {
    const auto out = core::run_crash_trial(options, point);
    EXPECT_TRUE(out.clean_recovery) << "point " << point << ": " << out.detail;
    EXPECT_TRUE(out.acked_survived) << "point " << point << ": " << out.detail;
    EXPECT_TRUE(out.converged) << "point " << point << ": " << out.detail;
    EXPECT_EQ(out.final_content, oracle.final_content) << "point " << point;
    EXPECT_EQ(out.job_outputs, oracle.job_outputs) << "point " << point;
  }
}

}  // namespace
}  // namespace shadow
