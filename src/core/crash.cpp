#include "core/crash.hpp"

#include <map>
#include <memory>

#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "core/workload.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "persist/fault_fs.hpp"
#include "persist/wal.hpp"
#include "server/shadow_server.hpp"
#include "util/rng.hpp"
#include "vfs/cluster.hpp"

namespace shadow::core {

namespace {

/// One editing client: its own host, its own hot file, its own edit
/// stream. Writer 0 is the classic "ws" of the single-writer harness —
/// same name, same path, same Rng seed — so pre-group-commit schedules
/// keep their exact write-point numbering.
struct Writer {
  std::string host;
  std::string path;
  std::unique_ptr<client::ShadowClient> client;
  std::unique_ptr<client::ShadowEditor> editor;
  net::LoopbackPair pair;
  std::string content;
  Rng rng;

  Writer(u64 seed_value) : rng(seed_value) {}
};

}  // namespace

CrashOutcome run_crash_trial(const CrashOptions& options, u64 crash_at_write) {
  CrashOutcome out;
  const int writer_count = options.writers < 1 ? 1 : options.writers;

  vfs::Cluster cluster;
  std::vector<std::unique_ptr<Writer>> writers;
  for (int w = 0; w < writer_count; ++w) {
    auto writer = std::make_unique<Writer>(
        w == 0 ? (options.seed ^ 0xC7A5Bu)
               : (options.seed ^ (0xC7A5Bu + static_cast<u64>(w) * 0x9E37u)));
    writer->host = w == 0 ? "ws" : "ws" + std::to_string(w);
    writer->path = w == 0 ? "/home/user/f" : "/home/user/g" + std::to_string(w);
    (void)cluster.add_host(writer->host).mkdir_p("/home/user");
    writers.push_back(std::move(writer));
  }

  persist::MemDir disk;
  persist::StorageFaultPlan fault_plan;
  fault_plan.crash_at_write = crash_at_write;
  fault_plan.torn_keep = options.torn_keep;
  fault_plan.lie_about_sync_after = options.lying_fsync_after;
  fault_plan.syncs_are_write_points = options.count_syncs_as_write_points;
  persist::FaultFs faults(&disk, fault_plan);
  persist::DurableStore store1(&faults, options.compact_every);

  persist::GroupCommitConfig gc;
  gc.max_batch_records = options.commit_max_batch_records;
  store1.set_group_commit(gc);

  server::ServerConfig sc;
  sc.name = "super";
  sc.max_job_retries = options.max_job_retries;
  auto server1 =
      std::make_unique<server::ShadowServer>(sc, nullptr, &store1);
  (void)server1->recover_from_storage();  // empty disk: no-op

  client::ShadowEnvironment env;
  env.retention_limit = 64;  // keep every version the checks below read
  for (auto& w : writers) {
    w->client = std::make_unique<client::ShadowClient>(w->host, env, &cluster,
                                                       "crash-domain");
    w->editor = std::make_unique<client::ShadowEditor>(w->client.get(),
                                                       &cluster);
    w->pair = net::make_loopback_pair(w->host, "super");
    server1->attach(w->pair.b.get());
    w->client->connect("super", w->pair.a.get());
    net::pump(w->pair);
  }

  // Deliver everything in flight. The harness — not an event loop —
  // ends each pass with the server's flush, so deferred acks release at
  // explicit, reproducible points: flush, pump the released acks out,
  // repeat until the exchange quiesces (the clients' answers to released
  // acks stage more records, hence the fixed extra rounds).
  auto settle = [&](server::ShadowServer& server) {
    for (auto& w : writers) net::pump(w->pair);
    for (int round = 0; round < 5; ++round) {
      (void)server.pump_persist();
      for (auto& w : writers) net::pump(w->pair);
    }
  };

  // ---- Phase 1: the workload, dying at the chosen write point --------
  for (auto& w : writers) {
    w->content = make_file(options.file_bytes,
                           w.get() == writers.front().get()
                               ? options.seed
                               : options.seed * 131 + w->rng.next() % 997);
    Status created = w->editor->create(w->path, w->content);
    if (!created.ok()) {
      out.detail = "create failed: " + created.to_string();
      return out;
    }
    net::pump(w->pair);
  }
  settle(*server1);

  Writer& w0 = *writers.front();
  struct SubmittedJob {
    u64 token = 0;
    std::string output_path;
  };
  std::vector<std::string> data_paths;
  std::vector<SubmittedJob> submitted;

  for (int i = 0; i < options.edits; ++i) {
    for (std::size_t w = 0; w < writers.size(); ++w) {
      Writer& writer = *writers[w];
      writer.content = modify_percent(writer.content, options.edit_percent,
                                      writer.rng.next());
      Status st = writer.editor->create(writer.path, writer.content);
      if (!st.ok()) {
        out.detail = "edit failed: " + st.to_string();
        return out;
      }
      net::pump(writer.pair);
    }
    settle(*server1);
    if (options.submit_every > 0 && (i + 1) % options.submit_every == 0) {
      // Immutable input file: never edited again, so the job's output is
      // the same whether it runs before the crash, after, or both.
      const std::string dpath = "/home/user/d" + std::to_string(i);
      Status st = w0.editor->create(
          dpath, make_file(options.file_bytes / 2, options.seed * 31 + i));
      if (!st.ok()) {
        out.detail = "data create failed: " + st.to_string();
        return out;
      }
      net::pump(w0.pair);
      client::ShadowClient::SubmitOptions job;
      job.files = {dpath};
      job.command_file = "sort d" + std::to_string(i) + "\n";
      job.output_path = "/home/user/out" + std::to_string(i);
      job.error_path = "/home/user/err" + std::to_string(i);
      auto token = w0.client->submit(job);
      if (!token.ok()) {
        out.detail = "submit failed: " + token.error().to_string();
        return out;
      }
      data_paths.push_back(dpath);
      submitted.push_back({token.value(), job.output_path});
      net::pump(w0.pair);
      settle(*server1);
    }
  }
  settle(*server1);

  out.write_points = faults.writes_seen();
  out.crashed_at = faults.dead() ? crash_at_write : 0;

  // What did the server PROMISE before the lights went out?
  std::vector<std::map<std::string, u64>> acked_per_writer;
  for (auto& w : writers) {
    const auto acked = w->client->acked_versions("super");
    acked_per_writer.emplace_back(acked.begin(), acked.end());
  }
  std::vector<u64> acked_job_ids;
  for (const auto& job : submitted) {
    const auto it = w0.client->jobs().find(job.token);
    if (it != w0.client->jobs().end() && it->second.job_id != 0) {
      acked_job_ids.push_back(it->second.job_id);
    }
  }

  // ---- The power cut -------------------------------------------------
  disk.crash(options.keep_unsynced_fraction, options.flip_bit_in_kept_tail,
             options.seed + crash_at_write);
  server1.reset();  // the old process is gone
  if (options.wipe_disk_before_restart) {
    for (const auto& name : disk.list()) (void)disk.remove(name);
  }

  // Journal damage report, read the way the recovering store will.
  if (disk.exists(persist::DurableStore::kJournalName)) {
    auto raw = disk.read(persist::DurableStore::kJournalName);
    if (raw.ok()) {
      const auto scan = persist::scan_journal(raw.value());
      out.discarded_tail_bytes = scan.total_bytes - scan.valid_bytes;
    }
  }
  out.snapshot_present = disk.exists(persist::DurableStore::kSnapshotName);

  // ---- Phase 2: recover a fresh server from whatever survived --------
  persist::DurableStore store2(&disk, options.compact_every);
  store2.set_group_commit(gc);
  server::ShadowServer server2(sc, nullptr, &store2);
  Status recovered = server2.recover_from_storage();
  out.clean_recovery = recovered.ok();
  if (!recovered.ok()) {
    out.detail = "recovery failed: " + recovered.to_string();
    return out;
  }
  out.recovered_records = server2.stats().recovered_records;
  out.requeued_jobs = server2.stats().requeued_jobs;
  out.retry_capped_jobs = server2.stats().retry_capped_jobs;

  // Invariant A: acked state survives byte-identically — for EVERY
  // writer, whichever batch its records rode in. A lying fsync (or a
  // deliberately wiped disk) voids the promise, so those trials only
  // assert convergence.
  const bool durability_holds =
      options.lying_fsync_after == 0 && !options.wipe_disk_before_restart;
  auto fail = [&](const std::string& why) {
    out.acked_survived = false;
    if (out.detail.empty()) out.detail = why;
  };
  if (durability_holds) {
    for (std::size_t w = 0; w < writers.size(); ++w) {
      Writer& writer = *writers[w];
      const auto& acked = acked_per_writer[w];
      std::vector<std::string> tracked;
      if (w == 0) tracked = data_paths;
      tracked.push_back(writer.path);
      for (const auto& path : tracked) {
        auto id = writer.client->resolve_name(path);
        if (!id.ok()) continue;
        const auto it = acked.find(id.value().key());
        if (it == acked.end()) continue;  // never acked: no promise to keep
        ++out.acked_versions_checked;
        const std::string key = server2.domains().cache_key(id.value());
        auto entry = server2.file_cache().get(key);
        if (!entry.ok()) {
          fail("acked file lost: " + writer.host + ":" + path + " v" +
               std::to_string(it->second));
          continue;
        }
        if (entry.value()->version < it->second) {
          fail("acked version regressed: " + path + " has v" +
               std::to_string(entry.value()->version) + " < acked v" +
               std::to_string(it->second));
          continue;
        }
        auto ours = writer.client->versions()
                        .chain(id.value().key())
                        .get(entry.value()->version);
        if (ours.ok() && ours.value().content != entry.value()->content) {
          fail("recovered content differs from client version for " + path);
        }
      }
    }
    for (const u64 job_id : acked_job_ids) {
      ++out.acked_jobs_checked;
      if (!server2.jobs().find(job_id).ok()) {
        fail("acked job lost: id " + std::to_string(job_id));
      }
    }
  }

  // ---- Phase 3: reconnect, resync, converge --------------------------
  const u64 full_before = w0.client->stats().full_sent;
  const u64 delta_before = w0.client->stats().delta_sent;

  for (auto& w : writers) {
    w->pair = net::make_loopback_pair(w->host, "super");
    server2.attach(w->pair.b.get());
    w->client->connect("super", w->pair.a.get());
    net::pump(w->pair);
    // Re-announce every file and resend unacknowledged submits — the
    // client-side half of crash recovery.
    w->client->resync("super");
    net::pump(w->pair);
  }
  settle(server2);

  for (auto& w : writers) {
    w->content =
        modify_percent(w->content, options.edit_percent, w->rng.next());
    Status st = w->editor->create(w->path, w->content);
    if (!st.ok()) {
      out.detail = "post-restart edit failed: " + st.to_string();
      return out;
    }
    net::pump(w->pair);
  }
  out.final_content = w0.content;
  settle(server2);

  bool all_done = true;
  for (int attempt = 0; attempt < 8; ++attempt) {
    settle(server2);
    all_done = true;
    for (const auto& job : submitted) {
      if (!w0.client->job_done(job.token)) all_done = false;
    }
    if (all_done) break;
  }

  out.post_restart_full = w0.client->stats().full_sent - full_before;
  out.post_restart_delta = w0.client->stats().delta_sent - delta_before;

  bool all_cached = true;
  for (auto& w : writers) {
    out.writer_final.push_back(w->content);
    std::string cached;
    auto id = w->client->resolve_name(w->path);
    if (id.ok()) {
      auto entry =
          server2.file_cache().get(server2.domains().cache_key(id.value()));
      if (entry.ok()) cached = entry.value()->content;
    }
    if (cached != w->content) all_cached = false;
    out.writer_cached.push_back(std::move(cached));
  }
  out.server_cached = out.writer_cached.front();
  for (const auto& job : submitted) {
    auto produced = cluster.read_file("ws", job.output_path);
    out.job_outputs.push_back(produced.ok() ? produced.value() : "");
  }

  if (!all_done) {
    if (out.detail.empty()) out.detail = "job outputs never arrived";
  } else if (!all_cached) {
    if (out.detail.empty()) out.detail = "server cache did not converge";
  } else {
    out.converged = true;
  }
  return out;
}

}  // namespace shadow::core
