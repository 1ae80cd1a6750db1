// Threaded-mode ShardedServer over real TCP sockets: N event loop
// threads, an acceptor thread running the routing lobby, and concurrent
// clients hammering the submit/update path. This is the binary the tsan
// CI job runs under ThreadSanitizer — every cross-thread handoff
// (adopt(), post(), the telemetry registry, the event ring) gets
// exercised here.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "compress/compress.hpp"
#include "diff/delta.hpp"
#include "net/tcp_transport.hpp"
#include "proto/messages.hpp"
#include "server/sharded_server.hpp"
#include "util/byte_io.hpp"

namespace shadow::server {
namespace {

constexpr int kWaitRounds = 5000;  // x 1ms = 5s per wait

/// Acceptor thread: the same loop shadowd --threads N runs.
class Acceptor {
 public:
  Acceptor(ShardedServer& server, net::TcpListener& listener)
      : server_(server), listener_(listener), thread_([this] { run(); }) {}
  ~Acceptor() {
    stop_.store(true);
    thread_.join();
  }

 private:
  void run() {
    while (!stop_.load()) {
      server_.wait_lobby(listener_.fd(), 10);
      if (auto accepted = listener_.accept(); accepted.ok()) {
        server_.adopt_tcp(std::move(accepted).take());
      }
      server_.poll_lobby();
    }
  }

  ShardedServer& server_;
  net::TcpListener& listener_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One workstation's whole session, run on its own thread.
void run_client(u16 port, int index, std::atomic<int>& failures) {
  const std::string name = "ws" + std::to_string(index);
  auto connected = net::tcp_connect(port, "super");
  if (!connected.ok()) {
    ++failures;
    return;
  }
  auto transport = std::move(connected).take();
  int hello_replies = 0;
  int acks = 0;
  int outputs = 0;
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
    for (int i = 0; i < kWaitRounds && !done(); ++i) {
      transport->poll();
      ::usleep(1000);
    }
    return done();
  };

  proto::Hello hello;
  hello.client_name = name;
  hello.domain = "tcp-net";
  if (!transport->send(proto::encode_message(hello)).ok() ||
      !wait_for([&] { return hello_replies >= 1; })) {
    ++failures;
    return;
  }

  const int kUpdates = 10;
  for (int v = 1; v <= kUpdates; ++v) {
    naming::GlobalFileId id;
    id.domain = "tcp-net";
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
  if (!wait_for([&] { return acks >= kUpdates; })) {
    ++failures;
    return;
  }

  proto::SubmitJob submit;
  submit.client_job_token = static_cast<u64>(index) + 1;
  submit.command_file = "echo done-" + name + "\n";
  if (!transport->send(proto::encode_message(submit)).ok() ||
      !wait_for([&] { return outputs >= 1; })) {
    ++failures;
    return;
  }
  transport->close();
}

TEST(ShardedTcpTest, ConcurrentClientsAcrossFourShardThreads) {
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, 4);
  net::TcpListener listener;
  ASSERT_TRUE(listener.listen(0).ok());
  sharded.start_threads();
  ASSERT_TRUE(sharded.threaded());
  std::atomic<int> failures{0};
  {
    Acceptor acceptor(sharded, listener);
    const int kClients = 8;
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(
          [&, c] { run_client(listener.port(), c, failures); });
    }
    for (auto& t : clients) t.join();

    // shadowtop-style admin client: AdminQuery with no Hello, answered at
    // the lobby while shard threads are live.
    auto admin = net::tcp_connect(listener.port(), "super");
    ASSERT_TRUE(admin.ok());
    std::atomic<bool> got_reply{false};
    u64 aggregated_updates = 0;
    admin.value()->set_receiver([&](Bytes wire) {
      auto decoded = proto::decode_message(wire);
      if (!decoded.ok()) return;
      if (const auto* reply =
              std::get_if<proto::AdminReply>(&decoded.value())) {
        for (const auto& counter : reply->snapshot.counters) {
          if (counter.name == "server.updates_received") {
            aggregated_updates = counter.value;
          }
        }
        got_reply.store(true);
      }
    });
    proto::AdminQuery query;
    ASSERT_TRUE(
        admin.value()->send(proto::encode_message(query)).ok());
    for (int i = 0; i < kWaitRounds && !got_reply.load(); ++i) {
      admin.value()->poll();
      ::usleep(1000);
    }
    ASSERT_TRUE(got_reply.load());
    EXPECT_EQ(aggregated_updates, 8u * 10u);
  }
  sharded.stop_threads();

  EXPECT_EQ(failures.load(), 0);
  const auto stats = sharded.aggregate_stats();
  EXPECT_EQ(stats.updates_received, 8u * 10u);
  EXPECT_EQ(stats.jobs_submitted, 8u);
  EXPECT_EQ(stats.jobs_completed, 8u);
  // Work actually spread: with 8 distinct owner hosts over 4 shards, at
  // least two shards must have seen traffic (FNV would have to collapse
  // all 8 names into one bucket to fail this).
  int busy_shards = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    if (sharded.shard(s).stats().updates_received > 0) ++busy_shards;
  }
  EXPECT_GE(busy_shards, 2);
}

TEST(ShardedTcpTest, LobbyClosesPreV1HelloAndServesV1) {
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, 2);
  net::TcpListener listener;
  ASSERT_TRUE(listener.listen(0).ok());
  sharded.start_threads();
  std::atomic<int> failures{0};
  {
    Acceptor acceptor(sharded, listener);
    // A pre-v1 Hello ends after (name, domain). No shard can serve it, so
    // the lobby hangs up rather than leave the peer waiting for a reply.
    auto old = net::tcp_connect(listener.port(), "super");
    ASSERT_TRUE(old.ok());
    int replies = 0;
    old.value()->set_receiver([&](Bytes) { ++replies; });
    BufWriter hello;
    hello.put_u8(static_cast<u8>(proto::MessageType::kHello));
    hello.put_string("oldws");
    hello.put_string("tcp-net");
    ASSERT_TRUE(old.value()->send(hello.take()).ok());
    for (int i = 0; i < kWaitRounds && !old.value()->closed(); ++i) {
      old.value()->poll();
      ::usleep(1000);
    }
    EXPECT_TRUE(old.value()->closed());
    EXPECT_EQ(replies, 0);

    run_client(listener.port(), 0, failures);
  }
  sharded.stop_threads();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_FALSE(sharded.shard_of_client("oldws").has_value());
  EXPECT_EQ(sharded.aggregate_stats().jobs_completed, 1u);
}

TEST(ShardedTcpTest, ThreadsStartStopIdempotently) {
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, 2);
  sharded.start_threads();
  sharded.start_threads();  // no-op
  EXPECT_TRUE(sharded.threaded());
  sharded.stop_threads();
  EXPECT_FALSE(sharded.threaded());
  sharded.stop_threads();  // idempotent
}

}  // namespace
}  // namespace shadow::server
