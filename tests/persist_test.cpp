// Checkpoint/restore tests: component round trips, the server snapshot
// (a record stream) as a fixed point, recovery's shadow-id binding, plus
// the end-to-end payoff — a restarted process that restores its snapshot
// continues with DELTAS where a fresh one would pay a full transfer.
#include <gtest/gtest.h>

#include <algorithm>

#include "cache/shadow_cache.hpp"
#include "cdc/signature.hpp"
#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "core/workload.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "proto/messages.hpp"
#include "server/journal_records.hpp"
#include "server/shadow_server.hpp"
#include "telemetry/registry.hpp"
#include "util/crc32.hpp"
#include "version/version_store.hpp"
#include "vfs/cluster.hpp"

namespace shadow {
namespace {

// ---- component round trips ----

TEST(PersistTest, VersionChainRoundTripBothModes) {
  for (auto mode : {version::StorageMode::kFull,
                    version::StorageMode::kReverseDelta}) {
    version::VersionChain chain(3, mode);
    std::string content = core::make_file(5000, 1);
    for (int i = 0; i < 5; ++i) {
      chain.append(content);
      content = core::modify_percent(content, 5, static_cast<u64>(i));
    }
    chain.acknowledge(3);

    BufWriter w;
    chain.encode(w);
    BufReader r(w.data());
    auto restored = version::VersionChain::decode(r);
    ASSERT_TRUE(restored.ok()) << version::storage_mode_name(mode);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(restored.value().latest_number(), chain.latest_number());
    EXPECT_EQ(restored.value().acked(), chain.acked());
    EXPECT_EQ(restored.value().stored_count(), chain.stored_count());
    for (u64 n = 1; n <= 5; ++n) {
      EXPECT_EQ(restored.value().has(n), chain.has(n)) << n;
      if (chain.has(n)) {
        EXPECT_EQ(restored.value().get(n).value().content,
                  chain.get(n).value().content);
      }
    }
    // The restored chain keeps numbering where it left off.
    EXPECT_EQ(restored.value().append("new"), 6u);
  }
}

TEST(PersistTest, VersionStoreRoundTrip) {
  version::VersionStore store(4, version::StorageMode::kReverseDelta);
  store.chain("a").append("content a1");
  store.chain("a").append("content a2");
  store.chain("b").append("content b1");
  BufWriter w;
  store.encode(w);
  BufReader r(w.data());
  auto restored = version::VersionStore::decode(r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().file_count(), 2u);
  EXPECT_EQ(restored.value().chain("a").get(2).value().content,
            "content a2");
  EXPECT_EQ(restored.value().storage_mode(),
            version::StorageMode::kReverseDelta);
}

// ---- the server snapshot: a record stream ----

namespace journal = server::journal;

naming::GlobalFileId file_id(const std::string& domain, u64 inode) {
  return naming::GlobalFileId{domain, "ws", "/home/user/f" + std::to_string(inode),
                              inode};
}

std::string text_of(char c, std::size_t n) { return std::string(n, c); }

/// The cache key of the output of `wc data` writing /home/user/job.out.
constexpr const char* kOutputKey = "out:ws|/home/user/job.out|wc data\n|";

u32 crc_of(const std::string& s) {
  return crc32(reinterpret_cast<const u8*>(s.data()), s.size());
}

/// A snapshot holding one of everything: content entries, a digest entry,
/// a reverse-shadow output entry and a job in each state — in the order
/// the writer emits them (cache entries least recently used first, then
/// jobs by id).
Bytes everything_snapshot() {
  const std::string a = text_of('a', 100);
  const std::string b = text_of('b', 100);
  const cdc::Signature sig =
      cdc::signature_of(text_of('c', 5000), cdc::ChunkerParams{});
  BufWriter w;
  journal::SnapshotHeader{0, 1, 4 + 6}.encode(w);
  journal::put_snapshot_record(
      w, journal::ShadowCached{{file_id("net", 1), "net/1", 2, crc_of(a)},
                               a, "ws"});
  journal::put_snapshot_record(
      w, journal::ShadowCached{{{}, kOutputKey, 3, crc_of("prev")}, "prev", {}});
  journal::put_snapshot_record(
      w, journal::ShadowDigest{{file_id("net", 3), "net/3", 4,
                                sig.whole_crc()},
                               sig, "ws"});
  journal::put_snapshot_record(
      w, journal::ShadowCached{{file_id("net", 2), "net/2", 1, crc_of(b)},
                               b, "other"});
  u64 id = 0;
  for (proto::JobState state :
       {proto::JobState::kQueued, proto::JobState::kWaitingFiles,
        proto::JobState::kRunning, proto::JobState::kCompleted,
        proto::JobState::kFailed, proto::JobState::kDelivered}) {
    job::JobRecord job;
    job.job_id = ++id;
    job.client_name = "ws";
    job.client_job_token = 100 + id;
    job.command_file = "wc data\n";
    proto::JobFileRef ref;
    ref.file = file_id("net", id == 1 ? 1 : 4);  // cached, or not
    ref.local_name = "data";
    ref.version = id == 1 ? 2 : 9;
    ref.crc = 0x1234;
    job.files.push_back(ref);
    job.output_name = "/home/user/job.out";
    job.state = state;
    job.detail = proto::job_state_name(state);
    // Only a finished, undelivered job holds output.
    job.output_content =
        id == 4 || id == 5 ? "output of job " + std::to_string(id) : "";
    journal::put_snapshot_record(w, job);
  }
  return w.take();
}

TEST(ServerSnapshotTest, RestoreThenSaveIsAFixedPoint) {
  server::ServerConfig sc;
  server::ShadowServer original(sc);
  const Bytes stream = everything_snapshot();
  ASSERT_TRUE(original.restore_state(stream).ok());
  ASSERT_EQ(original.file_cache().entry_count(), 4u);
  ASSERT_EQ(original.jobs().size(), 6u);
  // The writer emits exactly the canonical stream it was given...
  const Bytes saved = original.save_state();
  EXPECT_EQ(saved, stream);
  // ...and a server restored from it saves the same bytes again.
  server::ShadowServer restored(sc);
  ASSERT_TRUE(restored.restore_state(saved).ok());
  EXPECT_EQ(restored.save_state(), saved);
  // Every job state survives, and the id counter moves past them.
  for (u64 id = 1; id <= 6; ++id) {
    EXPECT_EQ(restored.jobs().find(id).value()->state,
              original.jobs().find(id).value()->state)
        << "job " << id;
  }
  const auto* digest = restored.file_cache().peek("net/3");
  ASSERT_NE(digest, nullptr);
  EXPECT_FALSE(digest->has_bytes());
}

TEST(ServerSnapshotTest, LruRecencySurvivesARestore) {
  server::ServerConfig sc;
  server::ShadowServer original(sc);
  ASSERT_TRUE(original.restore_state(everything_snapshot()).ok());
  // Touch the oldest entry: it becomes the most recently used.
  ASSERT_TRUE(original.file_cache().get("net/1").ok());
  server::ShadowServer restored(sc);
  ASSERT_TRUE(restored.restore_state(original.save_state()).ok());
  std::vector<std::string> order;
  for (const auto* entry : restored.file_cache().eviction_order()) {
    order.push_back(entry->key);
  }
  EXPECT_EQ(order, (std::vector<std::string>{kOutputKey, "net/3", "net/2",
                                              "net/1"}));
  // The next put over budget evicts the least recently used: the output.
  restored.file_cache().set_byte_budget(restored.file_cache().bytes_used());
  ASSERT_TRUE(restored.file_cache().put("net/9", 1, "x", 0).ok());
  EXPECT_FALSE(restored.file_cache().contains(kOutputKey));
  EXPECT_TRUE(restored.file_cache().contains("net/3"));
  EXPECT_TRUE(restored.file_cache().contains("net/2"));
  EXPECT_TRUE(restored.file_cache().contains("net/1"));
}

TEST(ServerSnapshotTest, RestoreIntoASmallerBudgetEvictsOldestFirst) {
  server::ServerConfig sc;
  sc.cache_budget = 200;  // both 100-byte content entries; no digest room
  server::ShadowServer small(sc);
  ASSERT_TRUE(small.restore_state(everything_snapshot()).ok());
  EXPECT_LE(small.file_cache().bytes_used(), 200u);
  // Ordinary eviction as the puts replay: net/1 (the oldest) made room
  // for net/2.
  EXPECT_FALSE(small.file_cache().contains("net/1"));
  EXPECT_TRUE(small.file_cache().contains("net/3"));
  EXPECT_TRUE(small.file_cache().contains("net/2"));
  // The shadow ids of evicted entries stay bound.
  EXPECT_EQ(small.domains().cache_key(file_id("net", 1)), "net/1");
}

TEST(ServerSnapshotTest, NewFileGetsAFreshShadowId) {
  server::ServerConfig sc;
  server::ShadowServer restored(sc);
  ASSERT_TRUE(restored.restore_state(everything_snapshot()).ok());
  // Cached files keep their ids; the uncached job input was interned
  // after every cache record, so it cannot collide with one.
  EXPECT_EQ(restored.domains().cache_key(file_id("net", 2)), "net/2");
  EXPECT_EQ(restored.domains().cache_key(file_id("net", 4)), "net/4");
  EXPECT_EQ(restored.domains().cache_key(file_id("net", 77)), "net/5");
}

// ---- recovery binds every shadow record's id before replaying jobs ----

void append(persist::DurableStore& store, const journal::Body& body) {
  ASSERT_TRUE(store.append(body.type, body.bytes).ok());
}

/// Journal [job-submitted(file x), <shadow record>(file y, "d/1")] and
/// recover: x and y must end up under different shadow ids.
void expect_distinct_ids_after_recovery(bool digest) {
  const naming::GlobalFileId x = file_id("d", 10);
  const naming::GlobalFileId y = file_id("d", 20);
  persist::MemDir disk;
  {
    persist::DurableStore store(&disk);
    job::JobRecord job;
    job.job_id = 1;
    job.client_name = "ws";
    job.command_file = "wc x\n";
    proto::JobFileRef ref;
    ref.file = x;
    ref.local_name = "x";
    ref.version = 1;
    job.files.push_back(ref);
    append(store, journal::body_of(job));
    const std::string content = "contents of y\n";
    const journal::ShadowHeader head{y, "d/1", 1, crc_of(content)};
    if (digest) {
      append(store, journal::body_of(journal::ShadowDigest{
                        head, cdc::signature_of(content, {}), "ws"}));
    } else {
      append(store,
             journal::body_of(journal::ShadowCached{head, content, "ws"}));
    }
  }
  persist::DurableStore store(&disk);
  server::ServerConfig sc;
  server::ShadowServer server(sc, nullptr, &store);
  ASSERT_TRUE(server.recover_from_storage().ok());
  ASSERT_EQ(server.stats().recovered_records, 2u);
  EXPECT_EQ(server.domains().cache_key(y), "d/1");
  EXPECT_NE(server.domains().cache_key(x), "d/1")
      << "x's job would read y's bytes";
}

TEST(PersistTest, RecoveryBindsDigestRecordIdsBeforeJobs) {
  expect_distinct_ids_after_recovery(/*digest=*/true);
}

TEST(PersistTest, RecoveryBindsCachedRecordIdsBeforeJobs) {
  expect_distinct_ids_after_recovery(/*digest=*/false);
}

TEST(PersistTest, PopulatedSnapshotTruncationsFailCleanly) {
  // Build a server with real state, then verify every truncation of its
  // snapshot is rejected without crashing (mutation-robust restore).
  server::ServerConfig sc;
  sc.reverse_shadow = true;
  server::ShadowServer server(sc);
  ASSERT_TRUE(server.file_cache()
                  .put("net/1", 3, core::make_file(2000, 1), 0xAB)
                  .ok());
  naming::GlobalFileId id;
  id.domain = "net";
  id.host = "h";
  id.path = "/f";
  id.inode = 9;
  (void)server.domains().cache_key(id);
  const Bytes snapshot = server.save_state();
  ASSERT_GT(snapshot.size(), 100u);
  for (std::size_t cut = 0; cut < snapshot.size();
       cut += 1 + cut / 16) {  // sample cuts, denser near the start
    Bytes partial(snapshot.begin(),
                  snapshot.begin() + static_cast<long>(cut));
    server::ShadowServer fresh(sc);
    EXPECT_FALSE(fresh.restore_state(partial).ok()) << "cut " << cut;
  }
  // And the untouched snapshot restores.
  server::ShadowServer fresh(sc);
  EXPECT_TRUE(fresh.restore_state(snapshot).ok());
  EXPECT_EQ(fresh.file_cache().entry_count(), 1u);
}

TEST(PersistTest, SnapshotsRejectGarbage) {
  server::ServerConfig sc;
  server::ShadowServer server(sc);
  EXPECT_FALSE(server.restore_state(Bytes{1, 2, 3}).ok());
  vfs::Cluster cluster;
  client::ShadowClient client("c", {}, &cluster, "net");
  EXPECT_FALSE(client.restore_state(Bytes{9, 9}).ok());
  // Truncations of a valid snapshot fail cleanly.
  const Bytes good = server.save_state();
  for (std::size_t cut = 0; cut + 1 < good.size(); ++cut) {
    Bytes partial(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(server.restore_state(partial).ok());
  }
}

// ---- end-to-end: restart with snapshot => deltas continue ----

class PersistE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    (void)cluster_.add_host("ws").mkdir_p("/home/user");
    server_config_.name = "super";
  }

  void start_server(const Bytes* snapshot = nullptr) {
    server_ = std::make_unique<server::ShadowServer>(server_config_);
    if (snapshot != nullptr) {
      ASSERT_TRUE(server_->restore_state(*snapshot).ok());
    }
  }

  void start_client(const Bytes* snapshot = nullptr) {
    pair_ = net::make_loopback_pair("ws", "super");
    server_->attach(pair_.b.get());
    client_ = std::make_unique<client::ShadowClient>(
        "ws", client::ShadowEnvironment{}, &cluster_, "net-1");
    if (snapshot != nullptr) {
      ASSERT_TRUE(client_->restore_state(*snapshot).ok());
    }
    editor_ = std::make_unique<client::ShadowEditor>(client_.get(),
                                                     &cluster_);
    client_->connect("super", pair_.a.get());
    net::pump(pair_);
  }

  vfs::Cluster cluster_;
  server::ServerConfig server_config_;
  std::unique_ptr<server::ShadowServer> server_;
  net::LoopbackPair pair_;
  std::unique_ptr<client::ShadowClient> client_;
  std::unique_ptr<client::ShadowEditor> editor_;
};

TEST_F(PersistE2E, BothSidesRestartAndContinueWithDeltas) {
  start_server();
  start_client();
  const std::string v1 = core::make_file(30'000, 1);
  ASSERT_TRUE(editor_->create("/home/user/f", v1).ok());
  net::pump(pair_);
  ASSERT_EQ(server_->stats().full_transfers, 1u);

  // Checkpoint both sides, then "crash" and restart both processes.
  const Bytes server_snapshot = server_->save_state();
  const Bytes client_snapshot = client_->save_state();
  start_server(&server_snapshot);
  start_client(&client_snapshot);

  // The next edit ships a DELTA: the restored server still caches v1 and
  // the restored client still stores v1 to diff against.
  ASSERT_TRUE(
      editor_->create("/home/user/f", core::modify_percent(v1, 2, 2)).ok());
  net::pump(pair_);
  EXPECT_EQ(server_->stats().full_transfers, 0u);  // fresh stats object
  EXPECT_EQ(server_->stats().delta_transfers, 1u);
}

TEST_F(PersistE2E, WithoutSnapshotsRestartPaysFullTransfer) {
  start_server();
  start_client();
  const std::string v1 = core::make_file(30'000, 1);
  ASSERT_TRUE(editor_->create("/home/user/f", v1).ok());
  net::pump(pair_);

  // Restart both sides cold.
  start_server();
  start_client();
  ASSERT_TRUE(
      editor_->create("/home/user/f", core::modify_percent(v1, 2, 2)).ok());
  net::pump(pair_);
  EXPECT_EQ(server_->stats().full_transfers, 1u);
  EXPECT_EQ(server_->stats().delta_transfers, 0u);
}

TEST_F(PersistE2E, ServerSnapshotPreservesReverseShadowGenerations) {
  server_config_.reverse_shadow = true;
  start_server();
  start_client();
  ASSERT_TRUE(editor_->create("/home/user/f", core::make_file(20'000, 3))
                  .ok());
  client::ShadowClient::SubmitOptions job;
  job.files = {"/home/user/f"};
  job.command_file = "sort f\n";
  job.output_path = "/home/user/out";
  job.error_path = "/home/user/err";
  auto t1 = client_->submit(job);
  ASSERT_TRUE(t1.ok());
  net::pump(pair_);
  ASSERT_TRUE(client_->job_done(t1.value()));

  // Restart BOTH sides with snapshots; rerun the same job. The output
  // delta generation chain continues seamlessly.
  const Bytes server_snapshot = server_->save_state();
  const Bytes client_snapshot = client_->save_state();
  start_server(&server_snapshot);
  start_client(&client_snapshot);
  auto t2 = client_->submit(job);
  ASSERT_TRUE(t2.ok());
  net::pump(pair_);
  ASSERT_TRUE(client_->job_done(t2.value()));
  EXPECT_EQ(server_->stats().output_delta_hits, 1u);
  EXPECT_EQ(client_->stats().output_nacks_sent, 0u);
}

TEST_F(PersistE2E, LiveServerSnapshotIsAFixedPoint) {
  // A snapshot of a server that really served a session (a cached file,
  // a delivered job, a reverse-shadow output) restores to the same bytes.
  server_config_.reverse_shadow = true;
  start_server();
  start_client();
  ASSERT_TRUE(editor_->create("/home/user/f", core::make_file(20'000, 3))
                  .ok());
  ASSERT_TRUE(editor_->create("/home/user/g", core::make_file(3'000, 4))
                  .ok());
  client::ShadowClient::SubmitOptions job;
  job.files = {"/home/user/f", "/home/user/g"};
  job.command_file = "sort f\n";
  job.output_path = "/home/user/out";
  job.error_path = "/home/user/err";
  auto t1 = client_->submit(job);
  ASSERT_TRUE(t1.ok());
  net::pump(pair_);
  ASSERT_TRUE(client_->job_done(t1.value()));

  const Bytes snapshot = server_->save_state();
  start_server(&snapshot);
  EXPECT_EQ(server_->save_state(), snapshot);
}

// ---- twin recovery: a live server and one recovered from a copy of its
// store hold the same state ----

/// A save_state() stream's records, each as its raw type byte and body.
/// Cache records (content or digest) are sorted: ShadowCache::get moves
/// LRU recency and no record journals that, so only their set is state.
/// Every other record keeps its order.
struct StateRecords {
  std::vector<Bytes> cache;
  std::vector<Bytes> rest;
};

StateRecords state_records(const Bytes& snapshot) {
  StateRecords out;
  BufReader r(snapshot);
  auto header = journal::SnapshotHeader::decode(r);
  EXPECT_TRUE(header.ok());
  if (!header.ok()) return out;
  for (u64 i = 0; i < header.value().records; ++i) {
    const std::size_t start = r.position();
    auto type = journal::get_snapshot_record_type(r);
    EXPECT_TRUE(type.ok());
    if (!type.ok() || !journal::describe(type.value(), r).ok()) {
      ADD_FAILURE() << "record " << i << " does not decode";
      return out;
    }
    Bytes record(snapshot.begin() + static_cast<long>(start),
                 snapshot.begin() + static_cast<long>(r.position()));
    const bool cache_record =
        type.value() == persist::RecordType::kShadowCached ||
        type.value() == persist::RecordType::kShadowDigest;
    (cache_record ? out.cache : out.rest).push_back(std::move(record));
  }
  EXPECT_TRUE(r.at_end());
  std::sort(out.cache.begin(), out.cache.end());
  return out;
}

/// A file-by-file copy of `disk`, as a second process would find it.
void copy_dir(persist::MemDir& disk, persist::MemDir& copy) {
  for (const std::string& name : disk.list()) {
    auto bytes = disk.read(name);
    ASSERT_TRUE(bytes.ok()) << name;
    ASSERT_TRUE(copy.write_atomic(name, bytes.value()).ok()) << name;
  }
}

/// A reverse-shadow server journaling to a MemDir (its cache unbounded),
/// one client over loopback, and twins recovered from copies of the dir.
class JournaledSession : public ::testing::Test {
 protected:
  void SetUp() override {
    (void)cluster_.add_host("ws").mkdir_p("/home/user");
    config_.name = "super";
    config_.reverse_shadow = true;
    server_ = std::make_unique<server::ShadowServer>(config_, nullptr,
                                                     &store_);
    ASSERT_TRUE(server_->recover_from_storage().ok());
    server_->attach(pair_.b.get());
    client_.connect("super", pair_.a.get());
    settle();
  }

  void settle() {
    do {
      net::pump(pair_);
    } while (server_->pump_persist() > 0);
  }

  /// Submit `job`, settle, and return its token once its output is in.
  u64 run(const client::ShadowClient::SubmitOptions& job) {
    auto token = client_.submit(job);
    EXPECT_TRUE(token.ok());
    settle();
    if (!token.ok()) return 0;
    EXPECT_TRUE(client_.job_done(token.value()));
    return token.value();
  }

  /// A server recovered from a fresh copy of the live server's dir. It
  /// uses the copy's store, so drop an earlier twin before the next.
  std::unique_ptr<server::ShadowServer> recover_twin() {
    (void)server_->pump_persist();
    twin_store_.reset();
    twin_disk_ = std::make_unique<persist::MemDir>();
    copy_dir(disk_, *twin_disk_);
    twin_store_ = std::make_unique<persist::DurableStore>(twin_disk_.get());
    auto twin = std::make_unique<server::ShadowServer>(config_, nullptr,
                                                       twin_store_.get());
    EXPECT_TRUE(twin->recover_from_storage().ok());
    return twin;
  }

  vfs::Cluster cluster_;
  persist::MemDir disk_;
  persist::DurableStore store_{&disk_};
  server::ServerConfig config_;
  std::unique_ptr<server::ShadowServer> server_;
  net::LoopbackPair pair_ = net::make_loopback_pair("ws", "super");
  client::ShadowClient client_{"ws", client::ShadowEnvironment{}, &cluster_,
                               "net-1"};
  client::ShadowEditor editor_{&client_, &cluster_};
  std::unique_ptr<persist::MemDir> twin_disk_;
  std::unique_ptr<persist::DurableStore> twin_store_;
};

TEST_F(JournaledSession, TwinRecoversTheLiveState) {
  client::ShadowClient::SubmitOptions job;
  job.files = {"/home/user/f"};
  job.command_file = "sort f\n";
  job.output_path = "/home/user/out";
  job.error_path = "/home/user/err";
  std::string content = core::make_file(6'000, 5);
  auto edit = [&](u64 seed) {
    content = core::modify_percent(content, 2, seed);
    ASSERT_TRUE(editor_.create("/home/user/f", content).ok());
  };
  edit(1);
  run(job);
  edit(2);
  run(job);
  // The third run's JobOutputAck never reaches the server: the server sees
  // every other message, so the job stays completed, not delivered.
  pair_.b->set_receiver([&](Bytes wire) {
    auto m = proto::decode_message(wire);
    if (m.ok() && std::holds_alternative<proto::JobOutputAck>(m.value())) {
      return;
    }
    server_->inject_message(pair_.b.get(), std::move(wire));
  });
  edit(3);
  run(job);
  ASSERT_EQ(server_->jobs().size(), 3u);
  EXPECT_EQ(server_->jobs().all().rbegin()->second.state,
            proto::JobState::kCompleted);
  EXPECT_EQ(server_->stats().output_delta_hits, 2u);

  // The twin saves the live state: the same cache entries (key, version,
  // CRC, bytes, owner) and the same jobs.
  auto twin = recover_twin();
  const StateRecords want = state_records(server_->save_state());
  const StateRecords got = state_records(twin->save_state());
  EXPECT_EQ(got.cache.size(), want.cache.size());
  EXPECT_TRUE(got.cache == want.cache) << "cache records differ";
  EXPECT_EQ(got.rest.size(), want.rest.size());
  EXPECT_TRUE(got.rest == want.rest) << "job records differ";
}

TEST_F(JournaledSession, OutputEntryIsNoFile) {
  // No input files, and a command ending in "/<digits>": the output's key
  // must still never read as a "<domain>/<shadow-id>" file key.
  client::ShadowClient::SubmitOptions job;
  job.command_file = "echo a/12";
  job.output_path = "/home/user/out";
  job.error_path = "/home/user/err";
  run(job);
  const std::string key = "out:ws|/home/user/out|echo a/12|";
  ASSERT_NE(server_->file_cache().peek(key), nullptr);

  auto twin = recover_twin();
  const auto* entry = twin->file_cache().peek(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version, 1u);
  EXPECT_EQ(entry->content, server_->file_cache().peek(key)->content);
  EXPECT_EQ(twin->domains().domain_count(), 0u) << "bound a domain";
  twin->sync_telemetry();
  EXPECT_EQ(telemetry::Registry::global()
                .gauge("server.tracked_files")
                .value(),
            0.0)
      << "tracked the output as a file";

  // An eviction record for the output drops the entry on replay.
  append(store_, journal::body_of(journal::ShadowEvicted{key}));
  twin.reset();
  twin = recover_twin();
  EXPECT_EQ(twin->file_cache().peek(key), nullptr);
  EXPECT_EQ(twin->file_cache().entry_count(), 0u);
}

}  // namespace
}  // namespace shadow
