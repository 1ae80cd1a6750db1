// Edge-case tests for the client: error paths a user can actually hit.
#include <gtest/gtest.h>

#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "core/system.hpp"
#include "core/workload.hpp"
#include "net/loopback.hpp"
#include "proto/messages.hpp"
#include "server/shadow_server.hpp"

namespace shadow::client {
namespace {

class ClientEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    (void)cluster_.add_host("ws").mkdir_p("/home/user");
    server::ServerConfig sc;
    sc.name = "super";
    server_ = std::make_unique<server::ShadowServer>(sc);
    pair_ = net::make_loopback_pair("ws", "super");
    server_->attach(pair_.b.get());
    client_ = std::make_unique<ShadowClient>("ws", ShadowEnvironment{},
                                             &cluster_, "net-1");
    editor_ = std::make_unique<ShadowEditor>(client_.get(), &cluster_);
    client_->connect("super", pair_.a.get());
    net::pump(pair_);
  }

  vfs::Cluster cluster_;
  net::LoopbackPair pair_;
  std::unique_ptr<server::ShadowServer> server_;
  std::unique_ptr<ShadowClient> client_;
  std::unique_ptr<ShadowEditor> editor_;
};

TEST_F(ClientEdgeTest, SubmitWithMissingFileFails) {
  ShadowClient::SubmitOptions job;
  job.files = {"/home/user/never-created.f"};
  job.command_file = "wc never-created.f\n";
  auto token = client_->submit(job);
  EXPECT_EQ(token.code(), ErrorCode::kNotFound);
  EXPECT_TRUE(client_->jobs().empty());
}

TEST_F(ClientEdgeTest, SubmitToUnknownServerFails) {
  ASSERT_TRUE(editor_->create("/home/user/f", "x\n").ok());
  ShadowClient::SubmitOptions job;
  job.files = {"/home/user/f"};
  job.command_file = "wc f\n";
  job.server = "nonexistent-cray";
  auto token = client_->submit(job);
  EXPECT_EQ(token.code(), ErrorCode::kNotFound);
}

TEST_F(ClientEdgeTest, StatusToUnknownServerFails) {
  EXPECT_EQ(client_->request_status(0, "ghost").code(),
            ErrorCode::kNotFound);
}

TEST_F(ClientEdgeTest, EditedOnMissingFileFails) {
  EXPECT_EQ(client_->edited("/home/user/void.f").code(),
            ErrorCode::kNotFound);
}

TEST_F(ClientEdgeTest, JobDoneForUnknownTokenIsFalse) {
  EXPECT_FALSE(client_->job_done(12345));
}

TEST_F(ClientEdgeTest, ResolveNameRequiresExistingFile) {
  EXPECT_FALSE(client_->resolve_name("/home/user/no.f").ok());
  ASSERT_TRUE(editor_->create("/home/user/yes.f", "x").ok());
  auto id = client_->resolve_name("/home/user/yes.f");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value().domain, "net-1");
  EXPECT_EQ(id.value().host, "ws");
}

TEST_F(ClientEdgeTest, MalformedServerMessageDropped) {
  // Garbage from the server side must not break the session.
  ASSERT_TRUE(pair_.b->send(Bytes{0xDE, 0xAD}).ok());
  net::pump(pair_);
  ASSERT_TRUE(editor_->create("/home/user/f", "fine\n").ok());
  net::pump(pair_);
  EXPECT_EQ(server_->stats().updates_received, 1u);
}

TEST_F(ClientEdgeTest, ReconnectReplacesSession) {
  const std::string v1 = core::make_file(10'000, 1);
  ASSERT_TRUE(editor_->create("/home/user/f", v1).ok());
  net::pump(pair_);
  // New transport to the same server name (e.g. after a TCP drop).
  auto fresh = net::make_loopback_pair("ws", "super");
  server_->attach(fresh.b.get());
  client_->connect("super", fresh.a.get());
  net::pump(fresh);
  // Edits flow over the new session; version numbering continues, so the
  // server ships a delta against its cached v1.
  ASSERT_TRUE(
      editor_->create("/home/user/f", core::modify_percent(v1, 2, 2)).ok());
  net::pump(fresh);
  EXPECT_EQ(server_->stats().delta_transfers, 1u);
  pair_ = std::move(fresh);  // keep alive for teardown ordering
}

TEST_F(ClientEdgeTest, OutputRouteToDisconnectedClientDoesNotWedge) {
  ASSERT_TRUE(editor_->create("/home/user/f", "x\n").ok());
  ShadowClient::SubmitOptions job;
  job.files = {"/home/user/f"};
  job.command_file = "wc f\n";
  job.output_route = "printer-that-is-off";
  auto token = client_->submit(job);
  ASSERT_TRUE(token.ok());
  net::pump(pair_);
  // The job ran; delivery had nowhere to go (logged, not fatal); the
  // server is still fully operational for the next job.
  EXPECT_EQ(server_->stats().jobs_completed, 1u);
  ShadowClient::SubmitOptions ok_job;
  ok_job.files = {"/home/user/f"};
  ok_job.command_file = "wc f\n";
  auto token2 = client_->submit(ok_job);
  ASSERT_TRUE(token2.ok());
  net::pump(pair_);
  EXPECT_TRUE(client_->job_done(token2.value()));
}

// No server nacks an Update: it re-pulls what it cannot use. An ack with
// ok=false is refused outside input — logged and dropped, so the client
// resends nothing and garbage-collects nothing on its word.
TEST(ClientNackTest, RefusedAckResendsAndCollectsNothing) {
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");
  ShadowClient client("ws", ShadowEnvironment{}, &cluster, "net-1");
  ShadowEditor editor(&client, &cluster);
  auto pair = net::make_loopback_pair("ws", "super");
  std::size_t updates = 0;
  pair.b->set_receiver([&](Bytes wire) {
    auto m = proto::decode_message(wire);
    if (m.ok() && std::holds_alternative<proto::Update>(m.value())) {
      ++updates;
    }
  });
  client.connect("super", pair.a.get());
  ASSERT_TRUE(editor.create("/home/user/f", "first\n").ok());
  ASSERT_TRUE(editor.create("/home/user/f", "second\n").ok());
  const auto id = client.resolve_name("/home/user/f").value();
  const proto::UpdateAck nack{id, 2, false, "content crc mismatch"};
  ASSERT_TRUE(pair.b->send(proto::encode_message(nack)).ok());
  net::pump(pair);

  EXPECT_EQ(updates, 0u);
  EXPECT_EQ(client.stats().full_sent, 0u);
  EXPECT_TRUE(client.acked_versions("super").empty());
  const auto& chain = client.versions().chain(id.key());
  EXPECT_TRUE(chain.has(1) && chain.has(2));  // nothing garbage-collected
}

}  // namespace
}  // namespace shadow::client
