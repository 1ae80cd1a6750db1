// Randomized whole-system stress: several clients, several servers, many
// files, random interleavings of edits/submits/evictions — then quiesce
// and check the global invariants (DESIGN.md 2, 3, 5). Deterministic in
// the seed, so any failure replays exactly.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "compress/compress.hpp"
#include "core/system.hpp"
#include "core/workload.hpp"
#include "diff/delta.hpp"
#include "net/tcp_transport.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "proto/messages.hpp"
#include "server/sharded_server.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace shadow::core {
namespace {

class SystemStress : public ::testing::TestWithParam<int> {};

TEST_P(SystemStress, RandomOpsThenInvariantsHold) {
  const u64 seed = static_cast<u64>(GetParam()) * 7919 + 101;
  Rng rng(seed);

  ShadowSystem system;
  const int num_clients = 2 + static_cast<int>(rng.below(2));
  const int num_files = 3;
  server::ServerConfig sc;
  sc.name = "super";
  sc.cache_budget = rng.chance(0.5) ? 40'000 : 0;  // sometimes tight
  sc.eviction = static_cast<cache::EvictionPolicy>(rng.below(3));
  sc.max_outstanding_pulls = 1 + rng.below(4);
  sc.reverse_shadow = rng.chance(0.5);
  auto& server = system.add_server(sc);

  std::vector<std::string> names;
  for (int c = 0; c < num_clients; ++c) {
    const std::string name = "ws" + std::to_string(c);
    names.push_back(name);
    client::ShadowEnvironment env;
    env.flow = rng.chance(0.3) ? client::FlowMode::kRequestDriven
                               : client::FlowMode::kDemandDriven;
    env.background_updates = rng.chance(0.8);
    env.retention_limit = rng.below(4);
    env.version_storage = rng.chance(0.5)
                              ? version::StorageMode::kReverseDelta
                              : version::StorageMode::kFull;
    env.codec = static_cast<compress::Codec>(rng.below(3));
    system.add_client(name, env);
    system.connect(name, "super", sim::LinkConfig::cypress_9600());
  }
  system.settle();

  // Each client owns its files (no cross-client shared files here; those
  // are covered by the NFS tests) and edits/submits randomly.
  std::map<std::string, std::string> contents;  // "client/file" -> content
  std::vector<u64> tokens;
  int submits = 0;

  for (int op = 0; op < 40; ++op) {
    const std::string& who = names[rng.below(names.size())];
    const int file_idx = static_cast<int>(rng.below(num_files));
    const std::string path = "/home/user/f" + std::to_string(file_idx);
    const std::string key = who + path;
    switch (rng.below(4)) {
      case 0:
      case 1: {  // edit
        auto& content = contents[key];
        content = content.empty()
                      ? make_file(3000 + rng.below(20'000), rng.next())
                      : modify_percent(content, 1 + rng.below(20),
                                       rng.next());
        ASSERT_TRUE(system.editor(who)
                        .edit(path, [&](const std::string&) {
                          return content;
                        })
                        .ok());
        break;
      }
      case 2: {  // submit (only if the file exists)
        if (contents[key].empty()) break;
        client::ShadowClient::SubmitOptions job;
        job.files = {path};
        job.command_file =
            "wc f" + std::to_string(file_idx) + "\n";
        job.output_path = "/home/user/out" + std::to_string(file_idx);
        job.error_path = "/home/user/err" + std::to_string(file_idx);
        auto token = system.client(who).submit(job);
        ASSERT_TRUE(token.ok());
        tokens.push_back(token.value());
        ++submits;
        break;
      }
      default: {  // random partial progress + occasional forced eviction
        system.simulator().run_until(system.simulator().now() +
                                     rng.below(5'000'000));
        if (rng.chance(0.3)) server.file_cache().evict_one();
      }
    }
  }
  system.settle();

  // Invariant: every submitted job reached a terminal, delivered state.
  for (const auto& [id, record] : server.jobs().all()) {
    EXPECT_EQ(record.state, proto::JobState::kDelivered)
        << "seed " << seed << " job " << id;
  }
  EXPECT_EQ(server.jobs().all().size(), static_cast<std::size_t>(submits));

  // Invariant 3: whatever IS cached matches the owning client's latest
  // version byte for byte.
  naming::NameResolver resolver(system.domain_id(), &system.cluster());
  for (const auto& [key, content] : contents) {
    if (content.empty()) continue;
    const std::string who = key.substr(0, key.find('/'));
    const std::string path = key.substr(key.find('/'));
    const auto id = resolver.resolve(who, path).value();
    const auto cache_key = server.domains().cache_key(id);
    auto entry = server.file_cache().get(cache_key);
    if (entry.ok()) {
      EXPECT_EQ(entry.value()->content, content)
          << "seed " << seed << " file " << key;
    }
  }

  // Telemetry accounting identities hold after any interleaving (the
  // registry is process-global and accumulates across seeds; the
  // identities hold at every instant regardless).
  auto& reg = telemetry::Registry::global();
  EXPECT_EQ(reg.counter("cache.lookups").value(),
            reg.counter("cache.hits").value() +
                reg.counter("cache.misses").value())
      << "seed " << seed;
  EXPECT_EQ(reg.counter("diff.computes").value(),
            reg.counter("diff.ed_deltas").value() +
                reg.counter("diff.block_deltas").value() +
                reg.counter("diff.full_fallbacks").value())
      << "seed " << seed;
  EXPECT_GE(reg.counter("job.transitions").value(),
            reg.counter("job.completions").value() +
                reg.counter("job.failures").value() +
                reg.counter("job.deliveries").value())
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemStress, ::testing::Range(0, 12));

// ---- group-commit stress: 4 shard threads, batched fsyncs ----
//
// Thread-per-core ShardedServer over real TCP with per-shard FsDir
// journals: every shard batches its own connections' records under one
// fsync at the end of each event-loop pass. Runs under the tsan CI job
// (the *Stress* filter), so every cross-thread handoff in the
// deferred-ack path gets raced for real.

void run_group_commit_client(u16 port, int index,
                             std::atomic<int>& failures) {
  const std::string name = "gw" + std::to_string(index);
  auto connected = net::tcp_connect(port, "super");
  if (!connected.ok()) {
    ++failures;
    return;
  }
  auto transport = std::move(connected).take();
  std::atomic<int> hello_replies{0};
  std::atomic<int> acks{0};
  std::atomic<int> outputs{0};
  transport->set_receiver([&](Bytes wire) {
    auto decoded = proto::decode_message(wire);
    if (!decoded.ok()) return;
    if (std::get_if<proto::HelloReply>(&decoded.value())) ++hello_replies;
    if (const auto* ack = std::get_if<proto::UpdateAck>(&decoded.value())) {
      if (ack->ok) ++acks;
    }
    if (const auto* out = std::get_if<proto::JobOutput>(&decoded.value())) {
      proto::JobOutputAck confirm;
      confirm.job_id = out->job_id;
      confirm.ok = true;
      (void)transport->send(proto::encode_message(confirm));
      ++outputs;
    }
  });
  auto wait_for = [&](const std::function<bool()>& done) {
    for (int i = 0; i < 5000 && !done(); ++i) {
      transport->poll();
      ::usleep(1000);
    }
    return done();
  };

  proto::Hello hello;
  hello.client_name = name;
  hello.domain = "gc-stress";
  if (!transport->send(proto::encode_message(hello)).ok() ||
      !wait_for([&] { return hello_replies.load() >= 1; })) {
    ++failures;
    return;
  }

  const int kUpdates = 8;
  for (int v = 1; v <= kUpdates; ++v) {
    naming::GlobalFileId id;
    id.domain = "gc-stress";
    id.host = name;
    id.path = "/work/data";
    id.inode = 42;
    proto::Update update;
    update.file = id;
    update.base_version = 0;
    update.new_version = static_cast<u64>(v);
    update.payload = proto::pack_payload(
        diff::Delta::make_full(name + " version " + std::to_string(v) + "\n"),
        compress::Codec::kStored);
    if (!transport->send(proto::encode_message(update)).ok()) {
      ++failures;
      return;
    }
  }
  // Every ack is a durability promise released by a batch fsync; all 8
  // must still arrive even though none is synced individually.
  if (!wait_for([&] { return acks.load() >= kUpdates; })) {
    ++failures;
    return;
  }

  proto::SubmitJob submit;
  submit.client_job_token = static_cast<u64>(index) + 1;
  submit.command_file = "echo done-" + name + "\n";
  if (!transport->send(proto::encode_message(submit)).ok() ||
      !wait_for([&] { return outputs.load() >= 1; })) {
    ++failures;
    return;
  }
  transport->close();
}

TEST(GroupCommitStress, FourShardThreadsBatchedFsync) {
  char tmpl[] = "/tmp/shadow_gc_stress_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;

  constexpr std::size_t kShards = 4;
  constexpr int kClients = 8;
  std::vector<std::unique_ptr<persist::FsDir>> dirs;
  std::vector<std::unique_ptr<persist::DurableStore>> stores;
  std::vector<persist::DurableStore*> store_ptrs;
  for (std::size_t i = 0; i < kShards; ++i) {
    dirs.push_back(std::make_unique<persist::FsDir>(
        root + "/shard" + std::to_string(i)));
    stores.push_back(
        std::make_unique<persist::DurableStore>(dirs.back().get()));
    store_ptrs.push_back(stores.back().get());
  }

  server::ServerConfig config;
  config.name = "super";
  {
    server::ShardedServer sharded(config, kShards, store_ptrs);
    ASSERT_TRUE(sharded.recover_all().ok());
    net::TcpListener listener;
    ASSERT_TRUE(listener.listen(0).ok());
    sharded.start_threads();
    std::atomic<int> failures{0};
    std::atomic<bool> stop_accepting{false};
    std::thread acceptor([&] {
      while (!stop_accepting.load()) {
        sharded.wait_lobby(listener.fd(), 10);
        if (auto accepted = listener.accept(); accepted.ok()) {
          sharded.adopt_tcp(std::move(accepted).take());
        }
        sharded.poll_lobby();
      }
    });
    {
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back(
            [&, c] { run_group_commit_client(listener.port(), c, failures); });
      }
      for (auto& t : clients) t.join();
    }
    stop_accepting.store(true);
    acceptor.join();
    sharded.stop_threads();

    EXPECT_EQ(failures.load(), 0);
    const auto stats = sharded.aggregate_stats();
    EXPECT_EQ(stats.updates_received, static_cast<u64>(kClients) * 8u);
    EXPECT_EQ(stats.jobs_completed, static_cast<u64>(kClients));
    EXPECT_EQ(stats.journal_failures, 0u);
    // Acks were actually deferred and actually released by pass flushes.
    EXPECT_GT(stats.acks_deferred, 0u);
    EXPECT_GT(stats.persist_flushes, 0u);

    // The batching identity across every shard store, at quiesce: all
    // accepted records were resolved, and flushes never exceed records.
    u64 group_records = 0;
    u64 group_flushes = 0;
    for (const auto& store : stores) {
      EXPECT_EQ(store->pending_records(), 0u);
      EXPECT_TRUE(store->group_error().ok());
      group_records += store->stats().group_records;
      group_flushes += store->stats().group_flushes;
    }
    EXPECT_GT(group_records, 0u);
    EXPECT_LE(group_flushes, group_records);
  }

  // Each shard journal recovers cleanly — batched appends framed exactly
  // like classic ones.
  stores.clear();
  u64 recovered_records = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    persist::DurableStore reader(dirs[i].get());
    auto recovered = reader.recover();
    ASSERT_TRUE(recovered.ok()) << "shard " << i;
    EXPECT_FALSE(recovered.value().journal_torn) << "shard " << i;
    recovered_records += recovered.value().records.size();
  }
  EXPECT_GT(recovered_records, 0u);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace shadow::core
