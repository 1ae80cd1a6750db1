// Tests for reverse shadow processing (§8.3): the server caches job
// outputs and ships only output deltas when the same job is re-run —
// and for transfer compression of outputs.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "core/workload.hpp"

namespace shadow::core {
namespace {

class ReverseShadowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server::ServerConfig sc;
    sc.name = "super";
    sc.reverse_shadow = true;
    system_.add_server(sc);
    system_.add_client("ws");
    link_ = &system_.connect("ws", "super", sim::LinkConfig::cypress_9600());
    system_.settle();
  }

  // A job whose output is LARGE (echoes the sorted file) so output deltas
  // matter; re-running after a small edit yields mostly-identical output.
  client::ShadowClient::SubmitOptions sort_job() {
    client::ShadowClient::SubmitOptions opts;
    opts.files = {"/home/user/data.f"};
    opts.command_file = "sort data.f\n";
    opts.output_path = "/home/user/sorted.out";
    opts.error_path = "/home/user/sorted.err";
    return opts;
  }

  u64 run_cycle(const std::string& content) {
    auto& editor = system_.editor("ws");
    auto& client = system_.client("ws");
    EXPECT_TRUE(editor.create("/home/user/data.f", content).ok());
    auto token = client.submit(sort_job());
    EXPECT_TRUE(token.ok());
    const u64 before = link_->total_payload_bytes();
    system_.settle();
    EXPECT_TRUE(client.job_done(token.value()));
    return link_->total_payload_bytes() - before;
  }

  ShadowSystem system_;
  sim::Link* link_ = nullptr;
};

TEST_F(ReverseShadowTest, RerunShipsOutputDelta) {
  const std::string v1 = make_file(40'000, 1);
  run_cycle(v1);
  auto& server = system_.server("super");
  EXPECT_EQ(server.stats().output_delta_hits, 0u);  // first run: full

  // Tiny edit: the sorted output barely changes.
  run_cycle(modify_percent(v1, 1, 2));
  EXPECT_EQ(server.stats().output_delta_hits, 1u);
  EXPECT_EQ(system_.client("ws").stats().output_delta_applied, 1u);

  // The delivered output must equal a locally computed sort.
  auto delivered =
      system_.cluster().read_file("ws", "/home/user/sorted.out");
  ASSERT_TRUE(delivered.ok());
  EXPECT_FALSE(delivered.value().empty());
}

TEST_F(ReverseShadowTest, OutputDeltaSavesBytes) {
  const std::string v1 = make_file(40'000, 3);
  run_cycle(v1);

  // Re-run with NO edit at all: input delta is empty, output delta is
  // empty — the whole cycle costs control messages only.
  auto& editor = system_.editor("ws");
  auto& client = system_.client("ws");
  ASSERT_TRUE(editor.create("/home/user/data.f", v1).ok());
  auto token = client.submit(sort_job());
  ASSERT_TRUE(token.ok());
  const u64 before = link_->total_payload_bytes();
  system_.settle();
  ASSERT_TRUE(client.job_done(token.value()));
  const u64 rerun_bytes = link_->total_payload_bytes() - before;
  EXPECT_LT(rerun_bytes, 1000u);  // vs ~40 KB of output on the first run
}

TEST_F(ReverseShadowTest, OutputsVerifiedAgainstDirectExecution) {
  const std::string v1 = make_file(10'000, 4);
  run_cycle(v1);
  const std::string v2 = modify_percent(v1, 5, 5);
  run_cycle(v2);

  job::Executor executor;
  auto expected = executor.run_command_file(
      "sort data.f\n", {{"data.f", v2}});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(
      system_.cluster().read_file("ws", "/home/user/sorted.out").value(),
      expected.value().output);
}

TEST_F(ReverseShadowTest, ClientLostOutputBaseTriggersResend) {
  const std::string v1 = make_file(20'000, 6);
  run_cycle(v1);

  // Sabotage: wipe the client's output cache by replacing the client-side
  // file AND pretending a different generation. We can't reach into the
  // private cache, so emulate the miss by reconnecting a fresh client of
  // the same name over a new link — its output cache starts empty.
  client::ShadowEnvironment env;
  auto fresh = std::make_unique<client::ShadowClient>(
      "ws", env, &system_.cluster(), system_.domain_id());
  sim::Link* link2 = nullptr;
  {
    // Manual wiring into the same server.
    auto& server = system_.server("super");
    static std::vector<std::unique_ptr<sim::Link>> extra_links;
    static std::vector<std::unique_ptr<net::SimTransport>> extra_transports;
    extra_links.push_back(std::make_unique<sim::Link>(
        &system_.simulator(), sim::LinkConfig::cypress_9600()));
    link2 = extra_links.back().get();
    auto pair = net::make_sim_pair(link2, "ws", "super");
    server.attach(pair.b.get());
    fresh->connect("super", pair.a.get());
    extra_transports.push_back(std::move(pair.a));
    extra_transports.push_back(std::move(pair.b));
  }
  system_.settle();

  // Re-run the same job from the fresh client: the server believes it can
  // send a delta (generation 1 exists server-side), the fresh client
  // nacks, and the server resends full. The job must still complete.
  auto token = fresh->submit(sort_job());
  ASSERT_TRUE(token.ok());
  system_.settle();
  EXPECT_TRUE(fresh->job_done(token.value()));
  EXPECT_GE(fresh->stats().output_nacks_sent, 1u);
}

/// The cache key of the one reverse-shadow output `server` holds, or "".
std::string output_key_in(server::ShadowServer& server) {
  for (const auto* entry : server.file_cache().eviction_order()) {
    if (entry->key.starts_with("out:")) return entry->key;
  }
  return "";
}

TEST_F(ReverseShadowTest, SameGenerationOtherBytesIsRefusedByCrc) {
  const std::string v1 = make_file(20'000, 8);
  run_cycle(v1);
  auto& server = system_.server("super");
  const std::string key = output_key_in(server);
  ASSERT_FALSE(key.empty());
  // The server's generation 1 now holds other bytes than the client's
  // (as after an eviction and a lost redelivery): the client must refuse
  // a delta against it by CRC, nack, and get the output in full.
  const cache::CacheEntry* held = server.file_cache().peek(key);
  const u64 generation = held->version;
  const std::string other = "tampered\n" + held->content;
  ASSERT_TRUE(server.file_cache().put(key, generation, other, 0).ok());
  const std::string v2 = modify_percent(v1, 1, 9);
  run_cycle(v2);
  auto& client = system_.client("ws");
  EXPECT_EQ(server.stats().output_delta_hits, 1u);
  EXPECT_EQ(client.stats().output_nacks_sent, 1u);
  EXPECT_EQ(client.stats().output_delta_applied, 0u);
  job::Executor executor;
  auto expected = executor.run_command_file("sort data.f\n", {{"data.f", v2}});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(
      system_.cluster().read_file("ws", "/home/user/sorted.out").value(),
      expected.value().output);
}

TEST(ReverseShadowBudgetTest, EvictedOutputShipsInFullWithoutANack) {
  ShadowSystem system;
  server::ServerConfig sc;
  sc.name = "super";
  sc.reverse_shadow = true;
  sc.cache_budget = 13'000;  // room for two of the three 6 KB entries
  system.add_server(sc);
  system.add_client("ws");
  system.connect("ws", "super", sim::LinkConfig::cypress_9600());
  system.settle();
  auto& editor = system.editor("ws");
  auto& client = system.client("ws");
  auto& server = system.server("super");
  client::ShadowClient::SubmitOptions job;
  job.files = {"/home/user/data.f"};
  job.command_file = "sort data.f\n";
  job.output_path = "/home/user/sorted.out";
  job.error_path = "/home/user/sorted.err";
  auto run = [&] {
    auto token = client.submit(job);
    ASSERT_TRUE(token.ok());
    system.settle();
    ASSERT_TRUE(client.job_done(token.value()));
  };

  const std::string v1 = make_file(6'000, 10);
  ASSERT_TRUE(editor.create("/home/user/data.f", v1).ok());
  run();
  ASSERT_FALSE(output_key_in(server).empty());
  // A newer data.f, then a second file: the output is now the least
  // recently used entry, and the budget evicts it like a file.
  const std::string v2 = modify_percent(v1, 1, 11);
  ASSERT_TRUE(editor.create("/home/user/data.f", v2).ok());
  system.settle();
  ASSERT_TRUE(editor.create("/home/user/other.f", make_file(6'000, 12)).ok());
  system.settle();
  EXPECT_TRUE(output_key_in(server).empty()) << "output not evicted";

  // The re-run finds no base: its output ships in full, and the client,
  // told it is generation 1 again, takes it without a nack.
  run();
  EXPECT_EQ(server.stats().output_delta_hits, 0u);
  EXPECT_EQ(client.stats().output_nacks_sent, 0u);
  job::Executor executor;
  auto expected = executor.run_command_file("sort data.f\n", {{"data.f", v2}});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(system.cluster().read_file("ws", "/home/user/sorted.out").value(),
            expected.value().output);
}

TEST(ReverseShadowConfigTest, DisabledMeansAlwaysFullOutput) {
  ShadowSystem system;
  server::ServerConfig sc;
  sc.name = "super";
  sc.reverse_shadow = false;
  system.add_server(sc);
  system.add_client("ws");
  system.connect("ws", "super", sim::LinkConfig::cypress_9600());
  system.settle();

  auto& editor = system.editor("ws");
  auto& client = system.client("ws");
  const std::string content = make_file(10'000, 7);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(editor.create("/home/user/data.f", content).ok());
    client::ShadowClient::SubmitOptions opts;
    opts.files = {"/home/user/data.f"};
    opts.command_file = "sort data.f\n";
    auto token = client.submit(opts);
    ASSERT_TRUE(token.ok());
    system.settle();
    ASSERT_TRUE(client.job_done(token.value()));
  }
  EXPECT_EQ(system.server("super").stats().output_delta_hits, 0u);
  EXPECT_EQ(client.stats().output_delta_applied, 0u);
}

TEST(OutputCompressionTest, Lz77ShrinksCompressibleOutput) {
  // Compare bytes for the same job with and without output compression.
  auto run_with_codec = [](compress::Codec codec) {
    ShadowSystem system;
    server::ServerConfig sc;
    sc.name = "super";
    sc.output_codec = codec;
    system.add_server(sc);
    system.add_client("ws");
    sim::Link& link =
        system.connect("ws", "super", sim::LinkConfig::cypress_9600());
    system.settle();
    auto& editor = system.editor("ws");
    // gen output is text with much repetition in structure; `cat`ing a
    // constant file is even more compressible: use a run-heavy file.
    std::string content;
    for (int i = 0; i < 500; ++i) content += "aaaaaaaaaaaaaaaaaaaaaaaa\n";
    EXPECT_TRUE(editor.create("/home/user/data.f", content).ok());
    client::ShadowClient::SubmitOptions opts;
    opts.files = {"/home/user/data.f"};
    opts.command_file = "cat data.f\n";
    auto token = system.client("ws").submit(opts);
    EXPECT_TRUE(token.ok());
    system.settle();
    EXPECT_TRUE(system.client("ws").job_done(token.value()));
    (void)link;
    // Compare the output leg only; the input upload is identical in both
    // configurations (client-side codec is a separate knob).
    return system.server("super").stats().output_bytes;
  };
  const u64 stored = run_with_codec(compress::Codec::kStored);
  const u64 lz = run_with_codec(compress::Codec::kLz77);
  EXPECT_LT(lz, stored / 4);
}

}  // namespace
}  // namespace shadow::core
