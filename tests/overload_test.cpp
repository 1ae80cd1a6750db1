// Overload control & graceful degradation: session leases and heartbeat
// renewal, bounded per-connection output queues (slow consumers are
// dropped, never allowed to wedge the server), the unified admission
// budget answered with ServerBusy + retry_after_usec, jittered client
// backoff, and graceful drain (notify, flush deferred group-commit acks,
// refuse new work). The paper's best-effort contract (§5.1) extends to
// overload: shed clients reconcile byte-identical after reconnecting —
// degraded service, never corruption.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "core/workload.hpp"
#include "net/fault_transport.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "server/shadow_server.hpp"
#include "sim/backoff.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"
#include "vfs/cluster.hpp"

namespace shadow {
namespace {

/// Overload runs provoke shed/drop warnings on purpose; mute them.
class QuietLogs {
 public:
  QuietLogs() : saved_(Logger::instance().level()) {
    Logger::instance().set_level(LogLevel::kError);
  }
  ~QuietLogs() { Logger::instance().set_level(saved_); }

 private:
  LogLevel saved_;
};

// ---- sim::Backoff jitter -------------------------------------------------

TEST(BackoffJitter, SameSeedSameSchedule) {
  sim::Backoff a(100, 1600);
  sim::Backoff b(100, 1600);
  a.set_jitter(0.5, 42);
  b.set_jitter(0.5, 42);
  std::vector<sim::SimTime> seq_a, seq_b;
  for (int i = 0; i < 8; ++i) {
    seq_a.push_back(a.next());
    seq_b.push_back(b.next());
  }
  EXPECT_EQ(seq_a, seq_b);  // bit-reproducible per seed

  // Every draw lands within the jitter band around the doubling base.
  sim::SimTime base = 100;
  for (const auto d : seq_a) {
    const sim::SimTime span = base / 2;
    EXPECT_GE(d, base - span);
    EXPECT_LE(d, base + span);
    base = base >= 1600 / 2 ? 1600 : base * 2;
  }
}

TEST(BackoffJitter, DifferentSeedsDecorrelate) {
  sim::Backoff a(100'000, 8'000'000);
  sim::Backoff b(100'000, 8'000'000);
  a.set_jitter(0.5, 7);
  b.set_jitter(0.5, 8);
  bool differed = false;
  for (int i = 0; i < 8; ++i) {
    if (a.next() != b.next()) differed = true;
  }
  EXPECT_TRUE(differed);  // the thundering herd actually spreads out
}

TEST(BackoffJitter, ZeroJitterKeepsExactDoubling) {
  sim::Backoff plain(100, 1600);
  EXPECT_EQ(plain.peek(), 100u);
  EXPECT_EQ(plain.next(), 100u);
  EXPECT_EQ(plain.next(), 200u);
  EXPECT_EQ(plain.next(), 400u);
  plain.reset();
  EXPECT_EQ(plain.next(), 100u);

  sim::Backoff jittered(100, 1600);
  jittered.set_jitter(0.5, 1);
  (void)jittered.next();
  jittered.set_jitter(0.0, 1);  // 0 disables jitter again
  EXPECT_EQ(jittered.next(), 200u);
}

// ---- bounded transport queues --------------------------------------------

TEST(QueueCap, LoopbackRejectsOverflowThenRecovers) {
  auto pair = net::make_loopback_pair("a", "b");
  pair.a->set_queue_limit(256);
  EXPECT_EQ(pair.a->queue_limit(), 256u);

  const Bytes msg(100, 0x42);
  ASSERT_TRUE(pair.a->send(msg).ok());
  ASSERT_TRUE(pair.a->send(msg).ok());
  EXPECT_EQ(pair.a->queued_bytes(), 200u);

  auto st = pair.a->send(msg);  // 200 + 100 > 256
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kResourceExhausted);

  // The consumer drains; capacity returns. Nothing was corrupted or
  // half-queued by the refused send.
  std::size_t received = 0;
  pair.b->set_receiver([&](Bytes m) { received += m.size(); });
  (void)pair.b->poll();
  EXPECT_EQ(received, 200u);
  EXPECT_EQ(pair.a->queued_bytes(), 0u);
  EXPECT_TRUE(pair.a->send(msg).ok());
}

// ---- session leases ------------------------------------------------------

TEST(Lease, IdleSessionExpiresAndIsReclaimed) {
  QuietLogs quiet;
  sim::Simulator sim;
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");

  server::ServerConfig sc;
  sc.name = "super";
  sc.lease_usec = 1'000'000;
  server::ShadowServer server(sc, &sim);

  auto pair = net::make_loopback_pair("ws", "super");
  client::ShadowClient client("ws", client::ShadowEnvironment{}, &cluster,
                              "net-ov");
  server.attach(pair.b.get());
  client.connect("super", pair.a.get());
  net::pump(pair);
  ASSERT_TRUE(server.has_client("ws"));

  // Dead air for twice the lease: the session is expired and its
  // per-client state reclaimed on the next housekeeping tick.
  sim.run_until(2'000'000);
  (void)server.tick();
  EXPECT_FALSE(server.has_client("ws"));
  EXPECT_EQ(server.stats().leases_expired, 1u);
}

TEST(Lease, HeartbeatKeepsIdleSessionAlive) {
  QuietLogs quiet;
  sim::Simulator sim;
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");

  server::ServerConfig sc;
  sc.name = "super";
  sc.lease_usec = 1'000'000;
  server::ShadowServer server(sc, &sim);

  auto pair = net::make_loopback_pair("ws", "super");
  client::ShadowClient client("ws", client::ShadowEnvironment{}, &cluster,
                              "net-ov");
  server.attach(pair.b.get());
  client.connect("super", pair.a.get());
  net::pump(pair);
  ASSERT_TRUE(client.hello_done("super"));

  // An editor sitting idle between saves: no traffic except heartbeats,
  // sent well inside the lease. The session must survive indefinitely.
  for (int i = 0; i < 5; ++i) {
    sim.run_until(sim.now() + 600'000);
    EXPECT_EQ(client.heartbeat(), 1u);
    net::pump(pair);
    (void)server.tick();
    ASSERT_TRUE(server.has_client("ws")) << "expired after beat " << i;
  }
  EXPECT_GE(server.stats().heartbeats_received, 5u);
  EXPECT_GE(client.stats().heartbeats_sent, 5u);
  EXPECT_EQ(server.stats().leases_expired, 0u);

  // Heartbeats stop; the lease finally runs out.
  sim.run_until(sim.now() + 2'000'000);
  (void)server.tick();
  EXPECT_FALSE(server.has_client("ws"));
  EXPECT_EQ(server.stats().leases_expired, 1u);
}

// ---- admission control + ServerBusy retry --------------------------------

TEST(Admission, ConnectionBudgetShedsHelloAndRetrySucceeds) {
  QuietLogs quiet;
  sim::Simulator sim;
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");
  (void)cluster.add_host("ws2").mkdir_p("/home/user");

  server::ServerConfig sc;
  sc.name = "super";
  sc.overload.max_connections = 1;
  sc.overload.retry_after_usec = 200'000;
  server::ShadowServer server(sc);

  auto pair_a = net::make_loopback_pair("ws", "super");
  client::ShadowClient first("ws", client::ShadowEnvironment{}, &cluster,
                             "net-ov");
  server.attach(pair_a.b.get());
  first.connect("super", pair_a.a.get());
  net::pump(pair_a);
  ASSERT_TRUE(server.has_client("ws"));

  // The shard is full: the second Hello is shed with a retry hint, the
  // transport stays open, and the client backs off instead of failing.
  auto pair_b = net::make_loopback_pair("ws2", "super");
  client::ShadowClient second("ws2", client::ShadowEnvironment{}, &cluster,
                              "net-ov");
  second.set_simulator(&sim);
  server.attach(pair_b.b.get());
  second.connect("super", pair_b.a.get());
  net::pump(pair_b);
  EXPECT_FALSE(server.has_client("ws2"));
  EXPECT_EQ(server.stats().busy_rejects, 1u);
  EXPECT_EQ(second.stats().server_busy, 1u);
  EXPECT_TRUE(second.backing_off("super"));
  EXPECT_FALSE(second.hello_done("super"));  // no HelloReply yet

  // Capacity frees up (the first workstation disconnects); the jittered
  // backoff fires the Hello again and the session completes.
  server.detach(pair_a.b.get());
  sim.run_until(sim.now() + 5'000'000);
  net::pump(pair_b);
  EXPECT_TRUE(server.has_client("ws2"));
  EXPECT_TRUE(second.hello_done("super"));
  EXPECT_FALSE(second.backing_off("super"));
  EXPECT_GE(second.stats().busy_retries, 1u);
}

TEST(Admission, SubmitShedWithRetryAfterEventuallyRuns) {
  QuietLogs quiet;
  sim::Simulator sim;
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");

  server::ServerConfig sc;
  sc.name = "super";
  // Any queued outbound byte trips the budget — the test stalls its own
  // reads to hold bytes in the queue at submit time.
  sc.overload.max_total_queued_bytes = 8;
  sc.overload.retry_after_usec = 500'000;
  server::ShadowServer server(sc);

  auto pair = net::make_loopback_pair("ws", "super");
  client::ShadowEnvironment env;
  env.diff_bytes_per_second = 0;  // no sim-charged diff latency
  client::ShadowClient client("ws", env, &cluster, "net-ov");
  client::ShadowEditor editor(&client, &cluster);
  client.set_simulator(&sim);
  server.attach(pair.b.get());
  client.connect("super", pair.a.get());
  net::pump(pair);

  // The edit's NotifyNewVersion makes the server queue a PullRequest we
  // deliberately do not read: the submit arrives while output is backed
  // up, so admission sheds it with ServerBusy instead of queueing the job.
  ASSERT_TRUE(editor.create("/home/user/f", "b\na\n").ok());
  (void)pair.b->poll();  // server reads the notify; pull stays queued
  ASSERT_GT(server.total_queued_bytes(), 8u);

  client::ShadowClient::SubmitOptions job;
  job.files = {"/home/user/f"};
  job.command_file = "sort f\n";
  job.output_path = "/home/user/out";
  job.error_path = "/home/user/err";
  auto token = client.submit(job);
  ASSERT_TRUE(token.ok());
  (void)pair.b->poll();  // submit shed while the backlog stands
  EXPECT_EQ(server.stats().busy_rejects, 1u);

  net::pump(pair);  // client drains the pull, answers it, sees ServerBusy
  EXPECT_EQ(client.stats().server_busy, 1u);
  EXPECT_TRUE(client.backing_off("super"));
  EXPECT_FALSE(client.job_done(token.value()));

  // After retry_after (plus jitter) the archived submit is re-sent; the
  // backlog has drained, so this time it is admitted and completes.
  sim.run_until(sim.now() + 3'000'000);
  net::pump(pair);
  EXPECT_GE(client.stats().busy_retries, 1u);
  EXPECT_TRUE(client.job_done(token.value()));
  EXPECT_EQ(cluster.read_file("ws", "/home/user/out").value(), "a\nb\n");
  EXPECT_FALSE(client.backing_off("super"));
}

TEST(Admission, ActiveJobBudgetShedsWithRetryHintNotFinalReject) {
  QuietLogs quiet;

  server::ServerConfig sc;
  sc.name = "super";
  sc.overload.max_active_jobs = 1;
  sc.overload.retry_after_usec = 250'000;
  server::ShadowServer server(sc);

  // Raw protocol drive: a v1 Hello, then a job pinned in kWaitingFiles by
  // a version that never arrives, holding the backlog at the budget.
  auto pair = net::make_loopback_pair("ws", "super");
  std::vector<proto::Message> inbox;
  pair.a->set_receiver([&](Bytes wire) {
    auto decoded = proto::decode_message(wire);
    ASSERT_TRUE(decoded.ok());
    inbox.push_back(std::move(decoded).take());
  });
  server.attach(pair.b.get());

  proto::Hello hello;
  hello.client_name = "ws";
  hello.domain = "net-ov";
  ASSERT_TRUE(pair.a->send(proto::encode_message(hello)).ok());
  net::pump(pair);

  proto::SubmitJob waiting;
  waiting.client_job_token = 1;
  waiting.command_file = "wc f\n";
  proto::JobFileRef ref;
  ref.file.domain = "net-ov";
  ref.file.host = "ws";
  ref.file.path = "/home/user/f";
  ref.file.inode = 1;
  ref.local_name = "f";
  ref.version = 1'000'000;  // never satisfied: the job stays active
  waiting.files.push_back(ref);
  ASSERT_TRUE(pair.a->send(proto::encode_message(waiting)).ok());
  net::pump(pair);

  // The budget is met, not exceeded: the second submit is shed with a
  // retryable ServerBusy, NOT the final queue-full SubmitReply.
  proto::SubmitJob extra = waiting;
  extra.client_job_token = 2;
  inbox.clear();
  ASSERT_TRUE(pair.a->send(proto::encode_message(extra)).ok());
  net::pump(pair);
  EXPECT_EQ(server.stats().busy_rejects, 1u);
  ASSERT_EQ(inbox.size(), 1u);
  const auto* busy = std::get_if<proto::ServerBusy>(&inbox[0]);
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->client_job_token, 2u);
  EXPECT_EQ(busy->retry_after_usec, 250'000u);
  EXPECT_FALSE(busy->draining);
}

// ---- slow consumer: bounded queue dooms, reconnect reconciles ------------

TEST(SlowConsumer, OverflowDropsConnectionAndReconcilesByteIdentical) {
  QuietLogs quiet;
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");

  server::ServerConfig sc;
  sc.name = "super";
  sc.overload.max_conn_queued_bytes = 2048;
  sc.max_outstanding_pulls = 10'000;  // the byte cap is the limit under test
  server::ShadowServer server(sc);

  auto pair = net::make_loopback_pair("ws", "super");
  client::ShadowClient client("ws", client::ShadowEnvironment{}, &cluster,
                              "net-ov");
  client::ShadowEditor editor(&client, &cluster);
  server.attach(pair.b.get());
  client.connect("super", pair.a.get());
  net::pump(pair);

  // Healthy baseline: one file synced, one job round-tripped.
  ASSERT_TRUE(editor.create("/home/user/f0", "b\na\n").ok());
  net::pump(pair);
  client::ShadowClient::SubmitOptions job;
  job.files = {"/home/user/f0"};
  job.command_file = "sort f0\n";
  job.output_path = "/home/user/out";
  job.error_path = "/home/user/err";
  auto token = client.submit(job);
  ASSERT_TRUE(token.ok());
  net::pump(pair);
  ASSERT_TRUE(client.job_done(token.value()));

  // The workstation stalls mid-stream: it keeps announcing new versions
  // but stops reading. Every notify makes the server queue a PullRequest;
  // the queue crosses the byte cap and the server drops the connection
  // rather than buffering without bound or blocking its loop.
  int created = 0;
  for (int i = 1; i <= 300 && server.stats().conns_dropped_overflow == 0;
       ++i) {
    ASSERT_TRUE(editor
                    .create("/home/user/f" + std::to_string(i),
                            core::make_file(120 + i, 1000 + i))
                    .ok());
    created = i;
    (void)pair.b->poll();  // server reads notifies; client reads nothing
  }
  ASSERT_EQ(server.stats().conns_dropped_overflow, 1u)
      << "byte cap never tripped after " << created << " notifies";
  ASSERT_LE(server.total_queued_bytes(), 2048u);  // the cap held throughout

  (void)server.tick();  // housekeeping reaps the doomed connection
  EXPECT_FALSE(server.has_client("ws"));
  EXPECT_EQ(server.total_queued_bytes(), 0u);

  // Reconnect over a fresh link — with a couple of wire faults for good
  // measure (a duplicated and a reordered client frame; both harmless to
  // the idempotent handlers). The loopback inbox cannot drain mid-burst
  // the way a real socket does, so the fresh link runs uncapped; the TCP
  // path flushes incrementally instead.
  auto pair2 = net::make_loopback_pair("ws", "super");
  net::FaultPlan plan;
  plan.script = {{3, net::FaultKind::kDuplicate},
                 {10, net::FaultKind::kReorder}};
  net::FaultTransport to_server(pair2.a.get(), plan);
  server.attach(pair2.b.get());
  pair2.b->set_queue_limit(0);
  client.connect("super", &to_server);
  client.resync("super");
  to_server.flush();
  for (int round = 0; round < 2000; ++round) {
    if (to_server.poll() + pair2.b->poll() != 0) continue;
    if (client.tick() + server.tick() == 0) break;
  }

  // Byte-identical reconciliation: every version the client holds —
  // including the ones whose pulls died in the dropped queue — is now
  // cached verbatim (the local VFS is the oracle).
  naming::NameResolver resolver("net-ov", &cluster);
  for (int i = 0; i <= created; ++i) {
    const std::string path = "/home/user/f" + std::to_string(i);
    const auto id = resolver.resolve("ws", path).value();
    auto entry = server.file_cache().get(server.domains().cache_key(id));
    ASSERT_TRUE(entry.ok()) << path << " missing after reconcile";
    EXPECT_EQ(entry.value()->content, cluster.read_file("ws", path).value())
        << path << " diverged after reconcile";
  }
}

// ---- graceful drain ------------------------------------------------------

TEST(Drain, FlushesParkedAcksAndNotifiesClients) {
  QuietLogs quiet;
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");

  persist::MemDir dir;
  persist::DurableStore store(&dir);  // no loop: only drain flushes

  server::ServerConfig sc;
  sc.name = "super";
  server::ShadowServer server(sc, nullptr, &store);

  auto pair = net::make_loopback_pair("ws", "super");
  client::ShadowClient client("ws", client::ShadowEnvironment{}, &cluster,
                              "net-ov");
  client::ShadowEditor editor(&client, &cluster);
  server.attach(pair.b.get());
  client.connect("super", pair.a.get());
  net::pump(pair);

  // The update's ack waits for the open commit batch's fsync.
  ASSERT_TRUE(editor.create("/home/user/f", "contents\n").ok());
  net::pump(pair);
  ASSERT_GT(store.pending_records(), 0u);
  EXPECT_TRUE(client.acked_versions("super").empty());
  EXPECT_FALSE(server.drain_complete());

  // Drain: the batch is flushed (the deferred ack resolves — never
  // silently dropped) and every v1 client is told the server is leaving.
  server.begin_drain();
  EXPECT_TRUE(server.draining());
  EXPECT_TRUE(server.drain_complete());
  EXPECT_EQ(store.pending_records(), 0u);
  net::pump(pair);
  EXPECT_EQ(client.acked_versions("super").size(), 1u);
  EXPECT_EQ(client.stats().server_busy, 1u);
  EXPECT_EQ(server.stats().drain_notices, 1u);

  // Draining servers take no new work.
  client::ShadowClient::SubmitOptions job;
  job.files = {"/home/user/f"};
  job.command_file = "sort f\n";
  job.output_path = "/home/user/out";
  job.error_path = "/home/user/err";
  auto token = client.submit(job);
  ASSERT_TRUE(token.ok());
  net::pump(pair);
  EXPECT_FALSE(client.job_done(token.value()));
  EXPECT_GE(server.stats().busy_rejects, 1u);
}

TEST(Drain, RefusesNewHellosWhileDraining) {
  QuietLogs quiet;
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");

  server::ServerConfig sc;
  sc.name = "super";
  server::ShadowServer server(sc);
  server.begin_drain();
  server.begin_drain();  // idempotent

  auto pair = net::make_loopback_pair("ws", "super");
  client::ShadowClient client("ws", client::ShadowEnvironment{}, &cluster,
                              "net-ov");
  server.attach(pair.b.get());
  client.connect("super", pair.a.get());
  net::pump(pair);

  EXPECT_FALSE(server.has_client("ws"));
  EXPECT_EQ(server.stats().busy_rejects, 1u);
  EXPECT_EQ(client.stats().server_busy, 1u);
  EXPECT_TRUE(client.backing_off("super"));
}

// ---- overload stress: many clients, tiny budgets, drain mid-traffic ------

TEST(OverloadStress, ManyClientsTinyBudgetsWithMidTrafficDrain) {
  QuietLogs quiet;
  sim::Simulator sim;
  vfs::Cluster cluster;

  persist::MemDir dir;
  persist::DurableStore store(&dir);

  server::ServerConfig sc;
  sc.name = "super";
  sc.overload.max_connections = 4;
  sc.overload.max_conn_queued_bytes = 64 * 1024;
  sc.overload.retry_after_usec = 200'000;
  sc.lease_usec = 30'000'000;
  server::ShadowServer server(sc, &sim, &store);

  constexpr int kClients = 6;
  std::vector<net::LoopbackPair> pairs;
  std::vector<std::unique_ptr<client::ShadowClient>> clients;
  std::vector<std::unique_ptr<client::ShadowEditor>> editors;
  for (int i = 0; i < kClients; ++i) {
    const std::string host = "ws" + std::to_string(i);
    (void)cluster.add_host(host).mkdir_p("/home/user");
    pairs.push_back(net::make_loopback_pair(host, "super"));
    client::ShadowEnvironment env;
    env.diff_bytes_per_second = 0;
    clients.push_back(std::make_unique<client::ShadowClient>(
        host, env, &cluster, "net-ov"));
    clients.back()->set_simulator(&sim);
    editors.push_back(std::make_unique<client::ShadowEditor>(
        clients.back().get(), &cluster));
    server.attach(pairs.back().b.get());
    clients.back()->connect("super", pairs.back().a.get());
  }

  auto round = [&] {
    std::size_t moved = 0;
    for (auto& p : pairs) moved += p.a->poll() + p.b->poll();
    for (auto& c : clients) moved += c->tick();
    moved += server.tick();
    moved += server.pump_persist();
    sim.run_until(sim.now() + 50'000);
    return moved;
  };
  for (int r = 0; r < 10; ++r) (void)round();
  // Settle in-flight frames without advancing time: a retry that fired on
  // the last round must meet its fresh ServerBusy before we inspect.
  for (int r = 0; r < 4; ++r) {
    for (auto& p : pairs) (void)p.a->poll(), (void)p.b->poll();
  }

  // Only the connection budget's worth of clients got in; the rest are
  // backing off on ServerBusy, not failed and not crashed.
  int admitted = 0, backing_off = 0;
  for (int i = 0; i < kClients; ++i) {
    if (server.has_client("ws" + std::to_string(i))) ++admitted;
    if (clients[i]->backing_off("super")) ++backing_off;
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(backing_off, kClients - 4);
  EXPECT_GE(server.stats().busy_rejects,
            static_cast<u64>(kClients - 4));

  // Admitted clients do real work under the tiny budgets.
  std::vector<u64> tokens(kClients, 0);
  for (int i = 0; i < kClients; ++i) {
    if (!server.has_client("ws" + std::to_string(i))) continue;
    ASSERT_TRUE(
        editors[i]->create("/home/user/f", core::make_file(400, i)).ok());
    client::ShadowClient::SubmitOptions job;
    job.files = {"/home/user/f"};
    job.command_file = "sort f\n";
    job.output_path = "/home/user/out";
    job.error_path = "/home/user/err";
    auto token = clients[i]->submit(job);
    ASSERT_TRUE(token.ok());
    tokens[i] = token.value();
  }
  for (int r = 0; r < 40; ++r) (void)round();
  for (int i = 0; i < kClients; ++i) {
    if (tokens[i] == 0) continue;
    EXPECT_TRUE(clients[i]->job_done(tokens[i])) << "ws" << i;
  }

  // SIGTERM arrives mid-traffic: drain. Every pending commit-batch ack
  // must resolve (durably acked, never silently dropped) and the server
  // must refuse all new work while the backed-off clients keep retrying.
  server.begin_drain();
  const u64 rejects_at_drain = server.stats().busy_rejects;
  for (int r = 0; r < 30; ++r) (void)round();
  (void)server.pump_persist();
  EXPECT_TRUE(server.drain_complete());
  EXPECT_EQ(store.pending_records(), 0u);
  EXPECT_GE(server.stats().drain_notices, 4u);
  EXPECT_GT(server.stats().busy_rejects, rejects_at_drain)
      << "retrying clients should be refused while draining";

  // A submit from an admitted client is shed during drain.
  int victim = -1;
  for (int i = 0; i < kClients; ++i) {
    if (server.has_client("ws" + std::to_string(i))) { victim = i; break; }
  }
  ASSERT_GE(victim, 0);
  client::ShadowClient::SubmitOptions late;
  late.files = {"/home/user/f"};
  late.command_file = "sort f\n";
  late.output_path = "/home/user/out2";
  late.error_path = "/home/user/err2";
  auto late_token = clients[victim]->submit(late);
  ASSERT_TRUE(late_token.ok());
  for (int r = 0; r < 5; ++r) (void)round();
  EXPECT_FALSE(clients[victim]->job_done(late_token.value()));
}

// ---- telemetry mirror (what shadowtop --selftest keys on) ----------------

TEST(OverloadTelemetry, CountersMirrorServerStats) {
  QuietLogs quiet;
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");

  server::ServerConfig sc;
  sc.name = "super";
  sc.lease_usec = 123'456;
  server::ShadowServer server(sc);
  server.begin_drain();

  auto pair = net::make_loopback_pair("ws", "super");
  client::ShadowClient client("ws", client::ShadowEnvironment{}, &cluster,
                              "net-ov");
  server.attach(pair.b.get());
  client.connect("super", pair.a.get());
  net::pump(pair);

  server.sync_telemetry();
  auto& reg = telemetry::Registry::global();
  EXPECT_EQ(reg.counter("overload.busy_rejects").value(),
            server.stats().busy_rejects);
  EXPECT_EQ(reg.counter("overload.conns_dropped").value(),
            server.stats().conns_dropped_overflow);
  EXPECT_EQ(reg.counter("overload.drain_notices").value(),
            server.stats().drain_notices);
  EXPECT_EQ(reg.counter("lease.expired").value(),
            server.stats().leases_expired);
  EXPECT_EQ(reg.counter("lease.heartbeats").value(),
            server.stats().heartbeats_received);
  EXPECT_EQ(reg.gauge("overload.draining").value(), 1.0);
  EXPECT_EQ(reg.gauge("lease.usec").value(), 123'456.0);
}

}  // namespace
}  // namespace shadow
