#include "core/chaos.hpp"

#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "core/workload.hpp"
#include "naming/resolver.hpp"
#include "net/loopback.hpp"
#include "server/shadow_server.hpp"
#include "util/rng.hpp"
#include "vfs/cluster.hpp"

namespace shadow::core {

net::FaultPlan random_fault_plan(u64 seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xC0FFEE);
  net::FaultPlan plan;
  plan.seed = rng.next();
  if (rng.chance(0.5)) plan.drop_p = rng.uniform() * 0.20;
  if (rng.chance(0.5)) plan.duplicate_p = rng.uniform() * 0.20;
  if (rng.chance(0.5)) plan.reorder_p = rng.uniform() * 0.20;
  if (rng.chance(0.5)) plan.corrupt_p = rng.uniform() * 0.15;
  if (rng.chance(0.5)) plan.truncate_p = rng.uniform() * 0.15;
  if (rng.chance(0.5)) plan.delay_p = rng.uniform() * 0.20;
  plan.delay_messages = rng.between(1, 4);
  return plan;
}

ChaosOutcome run_chaos_trial(const ChaosOptions& options) {
  ChaosOutcome out;

  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");

  server::ServerConfig sc;
  sc.name = "super";
  sc.reliable_session = options.reliable_session;
  server::ShadowServer server(sc);

  auto pair = net::make_loopback_pair("ws", "super");
  net::FaultTransport to_server(pair.a.get(), options.client_to_server);
  net::FaultTransport to_client(pair.b.get(), options.server_to_client);

  client::ShadowEnvironment env;
  env.reliable_session = options.reliable_session;
  env.algorithm = options.algorithm;
  env.flow = options.flow;
  if (options.force_cdc) {
    env.cdc = true;
    env.cdc_min_bytes = 1;
    env.cdc_min_binary_bytes = 1;
  }
  client::ShadowClient client("ws", env, &cluster, "net-chaos");
  client::ShadowEditor editor(&client, &cluster);

  server.attach(&to_client);
  client.connect("super", &to_server);

  // Drive the poll-based world until nothing moves: poll both directions;
  // when idle, release held fault messages; when still idle, run one
  // retransmit round. Idle across several consecutive rounds = quiesced.
  auto quiesce = [&]() -> bool {
    std::size_t idle_rounds = 0;
    for (std::size_t round = 0; round < options.quiesce_budget; ++round) {
      if (to_server.poll() + to_client.poll() != 0) {
        idle_rounds = 0;
        continue;
      }
      to_server.flush();
      to_client.flush();
      if (to_server.poll() + to_client.poll() != 0) {
        idle_rounds = 0;
        continue;
      }
      if (client.tick() + server.tick() != 0) {
        idle_rounds = 0;
        continue;
      }
      if (++idle_rounds >= 3) return true;
    }
    return false;
  };

  const std::string path = "/home/user/data";
  std::string content = make_file(options.file_bytes, options.seed);
  Status st = editor.create(path, content);
  if (!st.ok()) {
    out.detail = "create failed: " + st.to_string();
    return out;
  }
  (void)quiesce();

  Rng edit_rng(options.seed ^ 0xED17u);
  for (int i = 0; i < options.edits; ++i) {
    content = modify_percent(content, options.edit_percent, edit_rng.next());
    st = editor.create(path, content);
    if (!st.ok()) {
      out.detail = "edit failed: " + st.to_string();
      return out;
    }
    // A little interleaved traffic — edits racing in-flight pulls are the
    // interesting case — but no full quiesce between sessions.
    (void)to_server.poll();
    (void)to_client.poll();
  }
  out.final_content = content;
  const bool settled = quiesce();

  client::ShadowClient::SubmitOptions job;
  job.files = {path};
  job.command_file = "sort data\n";
  job.output_path = "/home/user/job.out";
  job.error_path = "/home/user/job.err";
  auto token = client.submit(job);
  if (!token.ok()) {
    out.detail = "submit failed: " + token.error().to_string();
    return out;
  }
  bool job_done = false;
  for (int attempt = 0; attempt < 8 && !job_done; ++attempt) {
    (void)quiesce();
    job_done = client.job_done(token.value());
  }

  auto produced = cluster.read_file("ws", "/home/user/job.out");
  if (produced.ok()) out.job_output = produced.value();

  naming::NameResolver resolver("net-chaos", &cluster);
  auto id = resolver.resolve("ws", path);
  if (id.ok()) {
    auto entry = server.file_cache().get(server.domains().cache_key(id.value()));
    if (entry.ok()) {
      out.server_cached = entry.value()->content;
      out.server_entry_digest = !entry.value()->has_bytes();
      out.server_entry_crc = entry.value()->crc;
      out.server_described_bytes = entry.value()->represented_bytes();
    }
  }

  if (!job_done) {
    out.detail = "job output never arrived";
  } else if (!settled) {
    out.detail = "edit traffic did not quiesce within budget";
  } else {
    out.converged = true;
  }

  out.server = server.stats();
  out.cdc_sent = client.stats().cdc_sent;
  out.client_resyncs = client.stats().session_resyncs;
  out.to_server_faults = to_server.fault_stats();
  out.to_client_faults = to_client.fault_stats();
  if (const auto* channel = client.session_channel("super")) {
    out.client_session = channel->stats();
  }
  out.server_session = server.session_stats();
  return out;
}

}  // namespace shadow::core
