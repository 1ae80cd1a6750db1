// Targeted edge-case tests of the server's protocol handling, driven
// directly over loopback so individual messages can be forged.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <set>
#include <utility>

#include "cdc/signature.hpp"
#include "compress/compress.hpp"
#include "diff/diff.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "proto/messages.hpp"
#include "core/system.hpp"
#include "core/workload.hpp"
#include "server/shadow_server.hpp"
#include "telemetry/registry.hpp"
#include "util/crc32.hpp"

namespace shadow::server {
namespace {

naming::GlobalFileId file_id(u64 inode) {
  naming::GlobalFileId id;
  id.domain = "net-x";
  id.host = "ws";
  id.path = "/f" + std::to_string(inode);
  id.inode = inode;
  return id;
}

Bytes pack_delta(const diff::Delta& delta) {
  return proto::pack_payload(delta, compress::Codec::kStored);
}

class ServerEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override { start(ServerConfig{}); }

  void start(ServerConfig sc, persist::DurableStore* store = nullptr) {
    sc.name = "super";
    server_ = std::make_unique<ShadowServer>(sc, nullptr, store);
    pair_ = net::make_loopback_pair("ws", "super");
    server_->attach(pair_.b.get());
    // Capture everything the server sends back.
    pair_.a->set_receiver([this](Bytes wire) {
      auto m = proto::decode_message(wire);
      if (m.ok()) received_.push_back(std::move(m).take());
    });
    send(proto::Hello{"ws", "net-x"});
    pump();
    received_.clear();
  }

  void send(proto::Message m) {
    ASSERT_TRUE(pair_.a->send(proto::encode_message(m)).ok());
  }
  /// Deliver everything both ways, fsyncing each batch as a loop would.
  void pump() {
    do {
      net::pump(pair_);
    } while (server_->pump_persist() > 0);
  }

  template <typename T>
  const T* last_of() const {
    for (auto it = received_.rbegin(); it != received_.rend(); ++it) {
      if (const T* m = std::get_if<T>(&*it)) return m;
    }
    return nullptr;
  }

  persist::MemDir disk_;  // for tests that start() a journaled server
  persist::DurableStore store_{&disk_};
  std::unique_ptr<ShadowServer> server_;
  net::LoopbackPair pair_;
  std::vector<proto::Message> received_;
};

TEST_F(ServerEdgeTest, NotifyTriggersPullWithCorrectVersions) {
  proto::NotifyNewVersion notify;
  notify.file = file_id(1);
  notify.version = 4;
  notify.size = 100;
  notify.crc = 0xAB;
  send(notify);
  pump();
  const auto* pull = last_of<proto::PullRequest>();
  ASSERT_NE(pull, nullptr);
  EXPECT_EQ(pull->have_version, 0u);
  EXPECT_EQ(pull->want_version, 4u);
}

TEST_F(ServerEdgeTest, DuplicateNotifyDoesNotDoublePull) {
  proto::NotifyNewVersion notify;
  notify.file = file_id(1);
  notify.version = 2;
  send(notify);
  send(notify);
  pump();
  EXPECT_EQ(server_->stats().pulls_sent, 1u);
}

TEST_F(ServerEdgeTest, StaleNotifyIgnored) {
  proto::NotifyNewVersion notify;
  notify.file = file_id(1);
  notify.version = 5;
  send(notify);
  pump();
  received_.clear();
  notify.version = 3;  // older than what the server already wants
  send(notify);
  pump();
  EXPECT_EQ(server_->stats().pulls_sent, 1u);
}

TEST_F(ServerEdgeTest, FullUpdateCachedAndAcked) {
  proto::Update update;
  update.file = file_id(1);
  update.base_version = 0;
  update.new_version = 7;
  update.payload = pack_delta(diff::Delta::make_full("cached content\n"));
  send(update);
  pump();
  const auto* ack = last_of<proto::UpdateAck>();
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->ok);
  EXPECT_EQ(ack->version, 7u);
  EXPECT_EQ(server_->file_cache().entry_count(), 1u);
}

TEST_F(ServerEdgeTest, SubmitWithUnpullableFileStaysWaiting) {
  proto::SubmitJob submit;
  submit.client_job_token = 1;
  submit.command_file = "wc data\n";
  proto::JobFileRef ref;
  ref.file = file_id(9);
  ref.local_name = "data";
  ref.version = 1;
  submit.files.push_back(ref);
  send(submit);
  pump();
  const auto* reply = last_of<proto::SubmitReply>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->accepted);
  // The pull went out; until an Update arrives the job waits.
  const auto& jobs = server_->jobs().all();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs.begin()->second.state, proto::JobState::kWaitingFiles);

  // Now satisfy it.
  proto::Update update;
  update.file = file_id(9);
  update.base_version = 0;
  update.new_version = 1;
  update.payload = pack_delta(diff::Delta::make_full("a\nb\n"));
  send(update);
  pump();
  EXPECT_EQ(jobs.begin()->second.state, proto::JobState::kCompleted);
}

TEST_F(ServerEdgeTest, StatusForSpecificJob) {
  proto::SubmitJob submit;
  submit.client_job_token = 2;
  submit.command_file = "echo done\n";
  send(submit);
  pump();
  received_.clear();
  proto::StatusQuery query;
  query.job_id = 1;
  send(query);
  pump();
  const auto* reply = last_of<proto::StatusReply>();
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->jobs.size(), 1u);
  EXPECT_EQ(reply->jobs[0].job_id, 1u);
  EXPECT_EQ(reply->jobs[0].state, proto::JobState::kCompleted);
}

TEST_F(ServerEdgeTest, StatusForUnknownJobIsEmpty) {
  proto::StatusQuery query;
  query.job_id = 42;
  send(query);
  pump();
  const auto* reply = last_of<proto::StatusReply>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->jobs.empty());
}

TEST_F(ServerEdgeTest, JobWithBadCommandFileFails) {
  proto::SubmitJob submit;
  submit.client_job_token = 3;
  submit.command_file = "";  // unparsable: no commands
  send(submit);
  pump();
  const auto* out = last_of<proto::JobOutput>();
  ASSERT_NE(out, nullptr);
  EXPECT_NE(out->exit_code, 0);
  EXPECT_EQ(server_->stats().jobs_failed, 1u);
}

TEST_F(ServerEdgeTest, AckForUnknownJobIgnored) {
  proto::JobOutputAck ack;
  ack.job_id = 99;
  ack.ok = true;
  send(ack);
  pump();  // must not crash or reply
  EXPECT_TRUE(last_of<proto::JobOutput>() == nullptr);
}

TEST_F(ServerEdgeTest, AckForUnknownJobNackAlsoIgnored) {
  proto::JobOutputAck ack;
  ack.job_id = 77;
  ack.ok = false;
  ack.error = "whatever";
  send(ack);
  pump();
  EXPECT_TRUE(last_of<proto::JobOutput>() == nullptr);
}

TEST_F(ServerEdgeTest, NackForADeliveredJobSendsNothing) {
  proto::SubmitJob submit;
  submit.client_job_token = 4;
  submit.command_file = "echo done\n";
  send(submit);
  pump();
  const auto* out = last_of<proto::JobOutput>();
  ASSERT_NE(out, nullptr);
  const u64 job_id = out->job_id;
  send(proto::JobOutputAck{job_id, true, ""});
  pump();
  const job::JobRecord& job = *server_->jobs().find(job_id).value();
  EXPECT_EQ(job.state, proto::JobState::kDelivered);
  EXPECT_TRUE(job.output_content.empty()) << "a delivered job keeps bytes";
  // A late nack finds no bytes to resend and sends nothing.
  received_.clear();
  send(proto::JobOutputAck{job_id, false, "late"});
  pump();
  EXPECT_TRUE(last_of<proto::JobOutput>() == nullptr);
  EXPECT_EQ(server_->stats().outputs_sent, 1u);
}

TEST_F(ServerEdgeTest, RedeliveredOutputKeepsItsGeneration) {
  // Reverse shadow with a journal; the job's output is never acked.
  ServerConfig sc;
  sc.reverse_shadow = true;
  start(sc, &store_);
  proto::SubmitJob submit;
  submit.client_job_token = 5;
  submit.command_file = "echo done\n";
  send(submit);
  pump();
  const u64 appends = store_.stats().appends;
  const u64 puts = server_->file_cache().stats().puts;
  // Every Hello re-delivers it: the same run, so the same generation, and
  // nothing stored or journaled again.
  for (int hello = 0; hello < 2; ++hello) {
    send(proto::Hello{"ws", "net-x"});
    pump();
  }
  std::vector<u64> generations;
  for (const auto& m : received_) {
    if (const auto* out = std::get_if<proto::JobOutput>(&m)) {
      generations.push_back(out->output_generation);
    }
  }
  EXPECT_EQ(generations, (std::vector<u64>{1, 1, 1}));
  EXPECT_EQ(store_.stats().appends, appends);
  EXPECT_EQ(server_->file_cache().stats().puts, puts);
}

TEST_F(ServerEdgeTest, PullCapRespectedAcrossManyNotifies) {
  for (u64 i = 0; i < 10; ++i) {
    proto::NotifyNewVersion notify;
    notify.file = file_id(100 + i);
    notify.version = 1;
    send(notify);
  }
  pump();
  EXPECT_LE(server_->stats().pulls_sent, server_->config().max_outstanding_pulls);
  EXPECT_GT(server_->stats().pulls_deferred, 0u);
}

TEST_F(ServerEdgeTest, ResaveDuringPullKeepsOnePullSlotPerFile) {
  // Each file is saved again while its first pull is still unanswered, so
  // the server sends a second pull. The client answers each pull with
  // the version it asks for, until no pull is left. Every file must give
  // back exactly the one slot it took, or the leaked slots pile up.
  std::set<u64> pulled;
  for (u64 i = 0; i < 5; ++i) {
    for (u64 v = 1; v <= 2; ++v) {
      proto::NotifyNewVersion notify;
      notify.file = file_id(200 + i);
      notify.version = v;
      send(notify);
      pump();
    }
    for (bool answered = true; answered;) {
      std::vector<proto::Message> batch;
      batch.swap(received_);
      answered = false;
      for (const auto& m : batch) {
        const auto* pull = std::get_if<proto::PullRequest>(&m);
        if (pull == nullptr) continue;
        pulled.insert(pull->file.inode);
        proto::Update update;
        update.file = pull->file;
        update.new_version = pull->want_version;
        update.payload = pack_delta(diff::Delta::make_full(
            pull->file.path + " v" + std::to_string(pull->want_version) +
            "\n"));
        send(update);
        pump();
        answered = true;
      }
    }
  }
  EXPECT_EQ(pulled, (std::set<u64>{200, 201, 202, 203, 204}));
  server_->sync_telemetry();
  EXPECT_EQ(
      telemetry::Registry::global().gauge("server.outstanding_pulls").value(),
      0.0);
}

// One row per way an Update can be unusable. The server answers each with
// exactly one full re-pull: no UpdateAck, the cache untouched, one
// counted repair and one event that names the reason.
struct RepairRow {
  std::string name;
  proto::Update update;
  std::string reason;       // the re-pull event must contain this
  std::string cached_base;  // non-empty: cached as v3 before the update
  u32 notified_crc = 0;     // non-zero: announced for the update's version
};

void PrintTo(const RepairRow& row, std::ostream* os) { *os << row.name; }

std::vector<RepairRow> repair_rows() {
  const std::string base = core::make_file(2'000, 1);
  const diff::Delta line_delta = diff::Delta::compute(
      base, core::modify_percent(base, 5, 2), diff::Algorithm::kHuntMcIlroy);

  const auto file = file_id(1);
  std::vector<RepairRow> rows;
  rows.push_back({"UndecodablePayload", {file, 0, 1, {0xFF, 0xEE, 0xDD}},
                  "bad codec tag", "", 0});
  diff::Delta damaged = diff::Delta::make_full("cached content\n");
  damaged.full_crc ^= 1;  // bit flip inside the content survived decode
  rows.push_back({"FullContentBadCrc", {file, 0, 1, pack_delta(damaged)},
                  "full-content delta fails its CRC", "", 0});
  rows.push_back({"LineDeltaNoBase", {file, 3, 4, pack_delta(line_delta)},
                  "base v3 not cached", "", 0});
  rows.push_back({"LineDeltaApplyFails", {file, 3, 4, pack_delta(line_delta)},
                  "does not match script's old CRC",
                  core::make_file(2'000, 3), 0});
  const std::string content = "what the notify described\n";
  const u32 content_crc =
      crc32(reinterpret_cast<const u8*>(content.data()), content.size());
  rows.push_back({"CrcDiffersFromNotify",
                  {file, 0, 1, pack_delta(diff::Delta::make_full(content))},
                  "content crc mismatch", "", content_crc ^ 1});
  // Mostly unchanged big file, so the chunk delta copies base chunks.
  const std::string big = core::make_file(100'000, 4);
  const diff::Delta cdc_delta = diff::Delta::compute_cdc(
      cdc::signature_of(big, cdc::ChunkerParams{}), "edited\n" + big);
  rows.push_back({"CdcCopiesNoBase", {file, 3, 4, pack_delta(cdc_delta)},
                  "cdc base v3 not cached", "", 0});
  return rows;
}

class ServerRepairTest : public ServerEdgeTest,
                         public ::testing::WithParamInterface<RepairRow> {
 protected:
  /// (version, crc) of the cached entry for file 1, or nullopt.
  std::optional<std::pair<u64, u32>> cached() const {
    const cache::CacheEntry* entry = server_->file_cache().peek(
        server_->domains().cache_key(file_id(1)));
    if (entry == nullptr) return std::nullopt;
    return std::make_pair(entry->version, entry->crc);
  }
};

TEST_P(ServerRepairTest, EndsInOneFullRepull) {
  const RepairRow& row = GetParam();
  const proto::Update& update = row.update;
  if (update.base_version != 0) {
    // A row that names a base must carry a delta that needs one.
    ASSERT_TRUE(proto::unpack_payload(update.payload).value().needs_base());
  }
  if (!row.cached_base.empty()) {
    send(proto::Update{update.file, 0, 3,
                       pack_delta(diff::Delta::make_full(row.cached_base))});
  }
  if (row.notified_crc != 0) {
    send(proto::NotifyNewVersion{update.file, update.new_version, 0,
                                 row.notified_crc});
  }
  pump();
  received_.clear();
  const auto cache_before = cached();
  const u64 events_before =
      telemetry::Registry::global().events().total_recorded();

  send(update);
  pump();

  std::vector<proto::PullRequest> pulls;
  for (const auto& m : received_) {
    EXPECT_EQ(std::get_if<proto::UpdateAck>(&m), nullptr) << "an ack was sent";
    if (const auto* pull = std::get_if<proto::PullRequest>(&m)) {
      pulls.push_back(*pull);
    }
  }
  ASSERT_EQ(pulls.size(), 1u);
  EXPECT_EQ(pulls[0].have_version, 0u);
  EXPECT_EQ(pulls[0].want_version, update.new_version);
  EXPECT_EQ(cached(), cache_before);
  const ServerStats& stats = server_->stats();
  EXPECT_EQ(stats.full_repulls, 1u);
  EXPECT_EQ(stats.updates_received, stats.updates_applied + stats.full_repulls);
  int repair_events = 0;
  for (const auto& event : telemetry::Registry::global().events().recent()) {
    if (event.seq <= events_before) continue;
    if (event.detail.rfind("full re-pull", 0) != 0) continue;
    ++repair_events;
    EXPECT_EQ(event.kind, telemetry::EventKind::kCache);
    EXPECT_NE(event.detail.find(row.reason), std::string::npos)
        << event.detail;
  }
  EXPECT_EQ(repair_events, 1);

  if (row.notified_crc != 0) {
    // One shot: the notified CRC may be the damaged half, so the full copy
    // the re-pull brings is accepted on its own CRC.
    received_.clear();
    send(update);
    pump();
    const auto* ack = last_of<proto::UpdateAck>();
    ASSERT_NE(ack, nullptr);
    EXPECT_TRUE(ack->ok);
    EXPECT_EQ(ack->version, update.new_version);
    ASSERT_TRUE(cached().has_value());
    EXPECT_EQ(cached()->first, update.new_version);
    EXPECT_EQ(server_->stats().full_repulls, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, ServerRepairTest, ::testing::ValuesIn(repair_rows()),
    [](const ::testing::TestParamInfo<RepairRow>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace shadow::server
