// Durability-cost ablation: what does crash consistency charge per
// operation? Journal appends (the per-acknowledgment cost, over both the
// in-memory storage model and the real filesystem with genuine fsyncs),
// group commit vs sync-per-record acknowledgment throughput at 1/32/1024
// simulated writers (the headline: one fsync amortized over a batch),
// raw journal scanning, the snapshot writer (save_state) on a populated
// server, and full server recovery (snapshot restore + journal replay +
// orphan requeue) as a function of session length.
// google-benchmark binary; exported to BENCH_persist.json by
// bench/bench_to_json.sh.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "core/workload.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "persist/wal.hpp"
#include "server/journal_records.hpp"
#include "server/shadow_server.hpp"
#include "util/logging.hpp"
#include "vfs/cluster.hpp"

namespace {

using namespace shadow;

// A representative cached-shadow record: a ~2 KB payload, the dominant
// record type in an editing session.
Bytes sample_body() {
  const std::string content = core::make_file(2'000, 9);
  const naming::GlobalFileId id{"bench-domain", "ws", "/home/user/f", 11};
  return server::journal::body_of(
             server::journal::ShadowCached{
                 {id, "bench-domain/11", 7, 0}, content, "ws"})
      .bytes;
}

void BM_JournalAppendMem(benchmark::State& state) {
  persist::MemDir dir;
  persist::DurableStore store(&dir, /*compact_every=*/1u << 30);
  const Bytes body = sample_body();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.append(persist::RecordType::kShadowCached, body).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(body.size()));
}

void BM_JournalAppendFs(benchmark::State& state) {
  // The real cost of the durability promise: every append fsyncs. Run in
  // a temp directory; expect this to be wildly slower than MemDir — that
  // gap IS the measurement.
  const auto root =
      std::filesystem::temp_directory_path() / "shadow_bench_persist";
  std::filesystem::remove_all(root);
  persist::FsDir dir(root.string());
  persist::DurableStore store(&dir, /*compact_every=*/1u << 30);
  const Bytes body = sample_body();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.append(persist::RecordType::kShadowCached, body).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(body.size()));
  std::filesystem::remove_all(root);
}

// ---- group commit vs sync-per-record ----
//
// Each iteration models one shard-loop pass at N concurrent writers: N
// records arrive, then the server acknowledges all of them. Sync-per-
// record pays N fsyncs; group commit stages the N records and pays one
// fsync per sealed batch (the byte cap can seal mid-pass at 1024
// writers — that is the real policy, not a benchmark artifact).
// items_per_second IS acks/sec.

void BM_SyncPerRecordAcksFs(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  const auto root =
      std::filesystem::temp_directory_path() / "shadow_bench_gc_sync";
  std::filesystem::remove_all(root);
  persist::FsDir dir(root.string());
  persist::DurableStore store(&dir, /*compact_every=*/1u << 30);
  const Bytes body = sample_body();
  for (auto _ : state) {
    for (int w = 0; w < writers; ++w) {
      benchmark::DoNotOptimize(
          store.append(persist::RecordType::kShadowCached, body).ok());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * writers);
  std::filesystem::remove_all(root);
}

void BM_GroupCommitAcksFs(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  const auto root =
      std::filesystem::temp_directory_path() / "shadow_bench_gc_group";
  std::filesystem::remove_all(root);
  persist::FsDir dir(root.string());
  persist::DurableStore store(&dir, /*compact_every=*/1u << 30);
  const Bytes body = sample_body();
  int64_t acked = 0;
  auto on_durable = [&acked](const Status& st) {
    if (st.ok()) ++acked;
  };
  for (auto _ : state) {
    for (int w = 0; w < writers; ++w) {
      benchmark::DoNotOptimize(
          store
              .append_deferred(persist::RecordType::kShadowCached, body,
                               on_durable)
              .ok());
    }
    benchmark::DoNotOptimize(store.flush().ok());
  }
  state.SetItemsProcessed(acked);
  state.counters["fsyncs_per_pass"] = benchmark::Counter(
      static_cast<double>(store.stats().group_flushes) /
      static_cast<double>(state.iterations()));
  std::filesystem::remove_all(root);
}

void BM_ReplayScan(benchmark::State& state) {
  // Raw journal scan throughput at recovery time.
  const int records = static_cast<int>(state.range(0));
  BufWriter w;
  w.put_raw(persist::journal_header());
  const Bytes body = sample_body();
  for (int i = 0; i < records; ++i) {
    w.put_raw(persist::frame_record(persist::RecordType::kShadowCached, body));
  }
  const Bytes journal = w.take();
  for (auto _ : state) {
    const auto scan = persist::scan_journal(journal);
    benchmark::DoNotOptimize(scan.records.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(journal.size()));
  state.counters["journal_bytes"] =
      benchmark::Counter(static_cast<double>(journal.size()));
}

/// Populate a MemDir with the durable droppings of a real editing
/// session: `edits` saves of 4 KB files round-robin over kSessionFiles,
/// a `wc` job after every kSessionFiles saves, and one compaction half way
/// through — so the disk holds a snapshot plus the journal written since.
constexpr int kSessionFiles = 8;

void populate_disk(persist::MemDir& disk, int edits) {
  persist::DurableStore store(&disk, /*compact_every=*/1u << 30);
  vfs::Cluster cluster;
  (void)cluster.add_host("ws").mkdir_p("/home/user");
  server::ServerConfig sc;
  sc.name = "super";
  server::ShadowServer server(sc, nullptr, &store);
  (void)server.recover_from_storage();
  client::ShadowEnvironment env;
  client::ShadowClient client("ws", env, &cluster, "bench-domain");
  client::ShadowEditor editor(&client, &cluster);
  auto pair = net::make_loopback_pair("ws", "super");
  server.attach(pair.b.get());
  client.connect("super", pair.a.get());
  net::pump(pair);
  auto settle = [&] {
    net::pump(pair);
    (void)server.pump_persist();  // where the shard loop's pass would end
    net::pump(pair);
  };
  std::vector<std::string> contents;
  for (int f = 0; f < kSessionFiles; ++f) {
    contents.push_back(core::make_file(4'000, 17 + f));
    (void)editor.create("/home/user/f" + std::to_string(f), contents.back());
    settle();
  }
  for (int i = 0; i < edits; ++i) {
    const int f = i % kSessionFiles;
    const std::string path = "/home/user/f" + std::to_string(f);
    contents[f] = core::modify_percent(contents[f], 5.0, 1000 + i);
    (void)editor.create(path, contents[f]);
    settle();
    if (f == kSessionFiles - 1) {
      client::ShadowClient::SubmitOptions job;
      job.files = {path};
      job.command_file = "wc f" + std::to_string(f) + "\n";
      (void)client.submit(job);
      settle();
    }
    if (i == edits / 2) (void)store.compact(server.save_state());
  }
}

void BM_SaveState(benchmark::State& state) {
  // The snapshot writer alone: the work compaction does inline between
  // batches, on the state a session of range(0) saves left behind.
  persist::MemDir disk;
  populate_disk(disk, static_cast<int>(state.range(0)));
  persist::DurableStore store(&disk, /*compact_every=*/1u << 30);
  server::ServerConfig sc;
  sc.name = "super";
  server::ShadowServer server(sc, nullptr, &store);
  (void)server.recover_from_storage();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const Bytes snapshot = server.save_state();
    bytes = snapshot.size();
    benchmark::DoNotOptimize(snapshot.data());
  }
  state.counters["snapshot_bytes"] =
      benchmark::Counter(static_cast<double>(bytes));
}

void BM_ServerRecovery(benchmark::State& state) {
  // End-to-end recovery: construct a fresh server over the survived disk
  // (a snapshot plus the journal written after it) and replay it back to
  // serving state. Recovery itself compacts (it folds the replay into a
  // snapshot and truncates the journal), so the disk is restored between
  // iterations — every iteration replays the same snapshot and journal.
  persist::MemDir disk;
  populate_disk(disk, static_cast<int>(state.range(0)));
  const Bytes journal_image =
      disk.read(persist::DurableStore::kJournalName).value_or(Bytes{});
  const Bytes snapshot_image =
      disk.read(persist::DurableStore::kSnapshotName).value_or(Bytes{});
  u64 recovered = 0;
  for (auto _ : state) {
    persist::DurableStore store(&disk, /*compact_every=*/1u << 30);
    server::ServerConfig sc;
    sc.name = "super";
    server::ShadowServer server(sc, nullptr, &store);
    benchmark::DoNotOptimize(server.recover_from_storage().ok());
    recovered = server.stats().recovered_records;
    state.PauseTiming();
    (void)disk.write_atomic(persist::DurableStore::kJournalName,
                            journal_image);
    (void)disk.write_atomic(persist::DurableStore::kSnapshotName,
                            snapshot_image);
    state.ResumeTiming();
  }
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(recovered));
  state.counters["snapshot_bytes"] =
      benchmark::Counter(static_cast<double>(snapshot_image.size()));
}

BENCHMARK(BM_JournalAppendMem);
BENCHMARK(BM_JournalAppendFs);
BENCHMARK(BM_SyncPerRecordAcksFs)->Arg(1)->Arg(32)->Arg(1024);
BENCHMARK(BM_GroupCommitAcksFs)->Arg(1)->Arg(32)->Arg(1024);
BENCHMARK(BM_ReplayScan)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK(BM_SaveState)->Arg(16)->Arg(128)->Arg(512);
BENCHMARK(BM_ServerRecovery)->Arg(16)->Arg(128)->Arg(512);

}  // namespace

int main(int argc, char** argv) {
  shadow::Logger::instance().set_level(shadow::LogLevel::kError);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
