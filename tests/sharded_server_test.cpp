// Inline-mode ShardedServer: Hello routing, shard-local state, aggregated
// stats/telemetry, the cross-shard output_route hop and its ack's way
// back to the job's shard, per-shard journal
// recovery, and the facade's lobby answering AdminQuery without a Hello.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cdc/signature.hpp"
#include "compress/compress.hpp"
#include "diff/delta.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "proto/messages.hpp"
#include "server/sharded_server.hpp"
#include "telemetry/registry.hpp"
#include "util/byte_io.hpp"

namespace shadow::server {
namespace {

// With domain "net0" and 4 shards, the FNV-1a router pins ws0..ws3 to
// shards 1, 2, 3, 0 — all four shards covered (values pinned by
// ShardRouterTest.HashIsStableAcrossRestarts).
constexpr std::size_t kShards = 4;
const char* kDomain = "net0";

naming::GlobalFileId file_id(const std::string& host, u64 inode) {
  naming::GlobalFileId id;
  id.domain = kDomain;
  id.host = host;
  id.path = "/work/f" + std::to_string(inode);
  id.inode = inode;
  return id;
}

/// A synthetic workstation: loopback pair + decoded message log.
struct Client {
  std::string name;
  net::LoopbackPair pair;
  std::vector<proto::Message> received;

  void connect(ShardedServer& server) {
    pair = net::make_loopback_pair(name, "super");
    pair.a->set_receiver([this](Bytes wire) {
      auto decoded = proto::decode_message(wire);
      if (decoded.ok()) received.push_back(std::move(decoded).take());
    });
    server.attach(pair.b.get());
    proto::Hello hello;
    hello.client_name = name;
    hello.domain = kDomain;
    ASSERT_TRUE(pair.a->send(proto::encode_message(hello)).ok());
    net::pump(pair);
  }

  void send(const proto::Message& m) {
    ASSERT_TRUE(pair.a->send(proto::encode_message(m)).ok());
    net::pump(pair);
  }

  template <typename T>
  const T* last_of() const {
    for (auto it = received.rbegin(); it != received.rend(); ++it) {
      if (const T* m = std::get_if<T>(&*it)) return m;
    }
    return nullptr;
  }
};

TEST(ShardedServerTest, HelloRoutesToStableShardAndReplies) {
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, kShards);
  const std::size_t expected_shard[] = {1, 2, 3, 0};
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < 4; ++c) {
    auto client = std::make_unique<Client>();
    client->name = "ws" + std::to_string(c);
    client->connect(sharded);
    const auto* reply = client->last_of<proto::HelloReply>();
    ASSERT_NE(reply, nullptr) << client->name;
    EXPECT_EQ(reply->server_name, "super");
    ASSERT_TRUE(sharded.shard_of_client(client->name).has_value());
    EXPECT_EQ(*sharded.shard_of_client(client->name), expected_shard[c]);
    EXPECT_TRUE(
        sharded.shard(expected_shard[c]).has_client(client->name));
    clients.push_back(std::move(client));
  }
  // Nobody else saw the connection.
  for (std::size_t s = 0; s < kShards; ++s) {
    for (int c = 0; c < 4; ++c) {
      if (s != expected_shard[c]) {
        EXPECT_FALSE(sharded.shard(s).has_client("ws" + std::to_string(c)));
      }
    }
  }
}

TEST(ShardedServerTest, UpdatesStayShardLocalAndAggregate) {
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, kShards);
  const std::size_t expected_shard[] = {1, 2, 3, 0};
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < 4; ++c) {
    auto client = std::make_unique<Client>();
    client->name = "ws" + std::to_string(c);
    client->connect(sharded);
    clients.push_back(std::move(client));
  }
  for (int c = 0; c < 4; ++c) {
    proto::Update update;
    update.file = file_id(clients[c]->name, 1);
    update.base_version = 0;
    update.new_version = 1;
    update.payload = proto::pack_payload(
        diff::Delta::make_full("file of " + clients[c]->name + "\n"),
        compress::Codec::kStored);
    clients[c]->send(update);
    const auto* ack = clients[c]->last_of<proto::UpdateAck>();
    ASSERT_NE(ack, nullptr);
    EXPECT_TRUE(ack->ok);
  }
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(sharded.shard(expected_shard[c]).stats().updates_received, 1u);
    EXPECT_EQ(sharded.shard(expected_shard[c]).file_cache().entry_count(),
              1u);
  }
  EXPECT_EQ(sharded.aggregate_stats().updates_received, 4u);
}

TEST(ShardedServerTest, OutputRoutedAcrossShards) {
  // ws0 (shard 1) submits a job whose output goes to ws1 (shard 2): the
  // finished JobOutput must hop shards through the facade's peer router.
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, kShards);
  Client submitter;
  submitter.name = "ws0";
  submitter.connect(sharded);
  Client recipient;
  recipient.name = "ws1";
  recipient.connect(sharded);

  proto::SubmitJob submit;
  submit.client_job_token = 7;
  submit.command_file = "echo crunched\n";
  submit.output_route = "ws1";
  submitter.send(submit);
  // The routed output sits in ws1's loopback inbox; drain it.
  net::pump(recipient.pair);

  const auto* reply = submitter.last_of<proto::SubmitReply>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->accepted);
  EXPECT_EQ(submitter.last_of<proto::JobOutput>(), nullptr);
  const auto* out = recipient.last_of<proto::JobOutput>();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->exit_code, 0);
  EXPECT_EQ(out->client_job_token, 7u);
}

/// ws1 (shard 2) runs a job of its own, then ws0 (shard 1) submits one
/// routed to ws1. Both outputs sit in ws1's inbox, neither acked.
struct RoutedJobRig {
  ServerConfig config = [] {
    ServerConfig c;
    c.name = "super";
    return c;
  }();
  ShardedServer sharded{config, kShards};
  Client submitter;
  Client recipient;
  u64 own_id = 0;
  u64 routed_id = 0;

  RoutedJobRig() {
    submitter.name = "ws0";
    submitter.connect(sharded);
    recipient.name = "ws1";
    recipient.connect(sharded);
    proto::SubmitJob own;
    own.client_job_token = 1;
    own.command_file = "echo mine\n";
    recipient.send(own);
    if (const auto* out = recipient.last_of<proto::JobOutput>()) {
      own_id = out->job_id;
    }
    proto::SubmitJob routed;
    routed.client_job_token = 7;
    routed.command_file = "echo crunched\n";
    routed.output_route = "ws1";
    submitter.send(routed);
    net::pump(recipient.pair);
    if (const auto* out = recipient.last_of<proto::JobOutput>()) {
      routed_id = out->job_id;
    }
  }

  proto::JobState state(std::size_t shard, u64 job_id) {
    auto found = sharded.shard(shard).jobs().find(job_id);
    return found.ok() ? found.value()->state : proto::JobState::kQueued;
  }
};

TEST(ShardedServerTest, RoutedOutputAckReachesTheJobsShard) {
  // Job ids are unique across shards, so the recipient's ack of a routed
  // output settles the submitter's job, never its own job.
  RoutedJobRig rig;
  ASSERT_NE(rig.own_id, 0u);
  ASSERT_NE(rig.routed_id, 0u);
  EXPECT_NE(rig.routed_id, rig.own_id);

  proto::JobOutputAck ack;
  ack.job_id = rig.routed_id;
  rig.recipient.send(ack);
  EXPECT_EQ(rig.state(1, rig.routed_id), proto::JobState::kDelivered);
  EXPECT_EQ(rig.state(2, rig.own_id), proto::JobState::kCompleted);
}

TEST(ShardedServerTest, RoutedOutputNackResendsTheRoutedJob) {
  RoutedJobRig rig;
  const std::size_t outputs_before = rig.recipient.received.size();
  proto::JobOutputAck nack;
  nack.job_id = rig.routed_id;
  nack.ok = false;
  nack.error = "lost the previous output";
  rig.recipient.send(nack);
  net::pump(rig.recipient.pair);

  ASSERT_EQ(rig.recipient.received.size(), outputs_before + 1);
  const auto* resent = rig.recipient.last_of<proto::JobOutput>();
  ASSERT_NE(resent, nullptr);
  EXPECT_EQ(resent->job_id, rig.routed_id);
  EXPECT_EQ(resent->client_job_token, 7u);
  EXPECT_EQ(resent->output_base_generation, 0u);  // full content
  auto output = proto::unpack_payload(resent->output_payload);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output.value().apply("").value(), "crunched\n");
  EXPECT_EQ(rig.sharded.shard(1).stats().outputs_sent, 2u);
  EXPECT_EQ(rig.sharded.shard(2).stats().outputs_sent, 1u);
}

TEST(ShardedServerTest, LobbyHangsUpOnPreV1Hello) {
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, kShards);
  Client old;
  old.name = "ws0";
  old.pair = net::make_loopback_pair(old.name, "super");
  old.pair.a->set_receiver([&](Bytes) { old.received.emplace_back(); });
  sharded.attach(old.pair.b.get());
  BufWriter pre_v1;
  pre_v1.put_u8(static_cast<u8>(proto::MessageType::kHello));
  pre_v1.put_string(old.name);
  pre_v1.put_string(kDomain);
  ASSERT_TRUE(old.pair.a->send(pre_v1.take()).ok());
  net::pump(old.pair);
  // The connection is closed: even a v1 Hello on it is never routed.
  proto::Hello hello;
  hello.client_name = old.name;
  hello.domain = kDomain;
  old.send(hello);
  EXPECT_TRUE(old.received.empty());
  EXPECT_FALSE(sharded.shard_of_client(old.name).has_value());
}

TEST(ShardedServerTest, AdminQueryAnsweredWithoutHello) {
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, kShards);
  Client editor;
  editor.name = "ws0";
  editor.connect(sharded);
  proto::Update update;
  update.file = file_id("ws0", 3);
  update.base_version = 0;
  update.new_version = 1;
  update.payload = proto::pack_payload(
      diff::Delta::make_full("telemetry fodder\n"), compress::Codec::kStored);
  editor.send(update);

  // shadowtop's opening move: AdminQuery with no Hello. The connection
  // stays in the lobby and is answered from aggregated telemetry.
  net::LoopbackPair admin = net::make_loopback_pair("shadowtop", "super");
  std::vector<proto::Message> replies;
  admin.a->set_receiver([&](Bytes wire) {
    auto decoded = proto::decode_message(wire);
    if (decoded.ok()) replies.push_back(std::move(decoded).take());
  });
  sharded.attach(admin.b.get());
  proto::AdminQuery query;
  ASSERT_TRUE(admin.a->send(proto::encode_message(query)).ok());
  net::pump(admin);
  ASSERT_EQ(replies.size(), 1u);
  const auto* reply = std::get_if<proto::AdminReply>(&replies[0]);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(reply->server_name, "super");

  // Aggregated plain names AND the shard-prefixed breakdown both present
  // (ws0 is pinned to shard 1), so `shadowtop --filter shard1.` works.
  u64 aggregated = 0;
  u64 shard1_only = 0;
  bool saw_shard_count = false;
  for (const auto& c : reply->snapshot.counters) {
    if (c.name == "server.updates_received") aggregated = c.value;
    if (c.name == "shard1.server.updates_received") shard1_only = c.value;
  }
  for (const auto& g : reply->snapshot.gauges) {
    if (g.name == "shards.count") {
      saw_shard_count = true;
      EXPECT_EQ(g.value, static_cast<double>(kShards));
    }
  }
  EXPECT_GE(aggregated, 1u);
  EXPECT_GE(shard1_only, 1u);
  EXPECT_TRUE(saw_shard_count);

  // A second query over the same still-lobbied connection also answers.
  ASSERT_TRUE(admin.a->send(proto::encode_message(query)).ok());
  net::pump(admin);
  EXPECT_EQ(replies.size(), 2u);
}

// Every ServerStats field reaches the aggregate and the plain telemetry
// name, CDC counters included: with more than one shard only the facade
// writes the unprefixed names shadowtop checks.
TEST(ShardedServerTest, CdcCountersReachAggregateAndPlainNames) {
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, 2);
  Client editor;
  editor.name = "ws0";
  editor.connect(sharded);
  std::string base;
  for (int i = 0; i < 4000; ++i) base += "line " + std::to_string(i) + "\n";
  const diff::Delta cdc = diff::Delta::compute_cdc(
      cdc::signature_of(base, cdc::ChunkerParams{}), "edited\n" + base);
  ASSERT_EQ(cdc.format, diff::Delta::Format::kCdc);
  const auto stored = compress::Codec::kStored;
  editor.send(proto::Update{file_id("ws0", 5), 0, 1,
                            proto::pack_payload(diff::Delta::make_full(base),
                                                stored)});
  editor.send(
      proto::Update{file_id("ws0", 5), 1, 2, proto::pack_payload(cdc, stored)});

  EXPECT_EQ(sharded.aggregate_stats().cdc_transfers, 1u);
  sharded.sync_telemetry();
  auto& reg = telemetry::Registry::global();
  EXPECT_EQ(reg.counter("server.cdc_transfers").value(), 1u);
  EXPECT_EQ(reg.counter("server.digest_advances").value(), 1u);
  EXPECT_EQ(reg.gauge("server.digest_entries").value(), 1.0);
}

TEST(ShardedServerTest, PerShardJournalsRecoverIndependently) {
  std::vector<std::unique_ptr<persist::MemDir>> dirs;
  std::vector<std::unique_ptr<persist::DurableStore>> stores;
  std::vector<persist::DurableStore*> ptrs;
  for (std::size_t s = 0; s < kShards; ++s) {
    dirs.push_back(std::make_unique<persist::MemDir>());
    stores.push_back(
        std::make_unique<persist::DurableStore>(dirs.back().get()));
    ptrs.push_back(stores.back().get());
  }
  ServerConfig config;
  config.name = "super";
  {
    ShardedServer sharded(config, kShards, ptrs);
    ASSERT_TRUE(sharded.recover_all().ok());  // empty stores: no-op
    for (int c = 0; c < 4; ++c) {
      Client client;
      client.name = "ws" + std::to_string(c);
      client.connect(sharded);
      proto::Update update;
      update.file = file_id(client.name, 1);
      update.base_version = 0;
      update.new_version = 1;
      update.payload = proto::pack_payload(
          diff::Delta::make_full("durable " + client.name + "\n"),
          compress::Codec::kStored);
      client.send(update);
      (void)sharded.tick();  // the pass ends in the journal fsync
      net::pump(client.pair);
      const auto* ack = client.last_of<proto::UpdateAck>();
      ASSERT_NE(ack, nullptr);
      ASSERT_TRUE(ack->ok);  // journaled before this ack
    }
  }  // server "crashes"

  // Fresh stores over the same directories; fresh facade; recover.
  std::vector<std::unique_ptr<persist::DurableStore>> stores2;
  std::vector<persist::DurableStore*> ptrs2;
  for (std::size_t s = 0; s < kShards; ++s) {
    stores2.push_back(
        std::make_unique<persist::DurableStore>(dirs[s].get()));
    ptrs2.push_back(stores2.back().get());
  }
  ShardedServer revived(config, kShards, ptrs2);
  ASSERT_TRUE(revived.recover_all().ok());
  const std::size_t expected_shard[] = {1, 2, 3, 0};
  for (int c = 0; c < 4; ++c) {
    auto& shard = revived.shard(expected_shard[c]);
    EXPECT_EQ(shard.file_cache().entry_count(), 1u)
        << "shard " << expected_shard[c] << " lost ws" << c << "'s file";
  }
}

}  // namespace
}  // namespace shadow::server
