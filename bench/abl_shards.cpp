// Sharding ablation: acks/sec on the Update hot path as a function of
// shard count, under a standing backlog of waiting jobs — the workload
// the thread-per-core refactor exists for. Each editor's updates land on
// its pinned shard, so the per-message scans (the needed-by-job check and
// the scheduler pass, both O(jobs x refs)) run over 1/Nth of the backlog.
//
// Two throughput numbers per configuration:
//   items_per_second  — REAL acks/sec, measured inline on one thread.
//     Gains here come purely from partitioned state: shorter scans,
//     smaller tables. This is what a single core actually sustains.
//   model_tpc_acks_per_sec — thread-per-core projection, a MODEL and not
//     a measurement: every op's cost is attributed to its shard, and the
//     projected rate is acks divided by the BUSIEST shard's time — the
//     standard critical-path model for N independent loops (valid because
//     routed connections share nothing).
//   model_critical_path_speedup — total attributed time / busiest shard's
//     time.
//
// google-benchmark binary; exported to BENCH_shard.json by
// bench/bench_to_json.sh (which also stamps the host core count).
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "compress/compress.hpp"
#include "core/workload.hpp"
#include "diff/delta.hpp"
#include "net/loopback.hpp"
#include "proto/messages.hpp"
#include "server/sharded_server.hpp"
#include "util/logging.hpp"

namespace {

using namespace shadow;
using Clock = std::chrono::steady_clock;

constexpr const char* kDomain = "bench-net";
constexpr std::size_t kFilesPerEditor = 2;
constexpr std::size_t kJobsPerEditor = 4;

struct Editor {
  std::string name;
  net::LoopbackPair pair;
  std::size_t shard = 0;
  u64 acks = 0;
  std::vector<Bytes> update_wires;  // pre-encoded, cycled round-robin
  std::size_t next_wire = 0;
};

naming::GlobalFileId file_id(const std::string& host, u64 inode) {
  naming::GlobalFileId id;
  id.domain = kDomain;
  id.host = host;
  id.path = "/work/f" + std::to_string(inode);
  id.inode = inode;
  return id;
}

Bytes update_wire(const naming::GlobalFileId& id, const std::string& content) {
  proto::Update update;
  update.file = id;
  update.base_version = 0;
  update.new_version = 3;
  update.payload = proto::pack_payload(diff::Delta::make_full(content),
                                       compress::Codec::kStored);
  return proto::encode_message(update);
}

void BM_ShardedAcks(benchmark::State& state) {
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  const std::size_t editors = static_cast<std::size_t>(state.range(1));

  server::ServerConfig config;
  config.name = "super";
  server::ShardedServer sharded(config, shards);

  std::vector<std::unique_ptr<Editor>> fleet;
  fleet.reserve(editors);
  for (std::size_t e = 0; e < editors; ++e) {
    auto editor = std::make_unique<Editor>();
    editor->name = "ws" + std::to_string(e);
    editor->pair = net::make_loopback_pair(editor->name, "super");
    Editor* raw = editor.get();
    editor->pair.a->set_receiver([raw](Bytes wire) {
      auto decoded = proto::decode_message(wire);
      if (!decoded.ok()) return;
      if (const auto* ack = std::get_if<proto::UpdateAck>(&decoded.value())) {
        if (ack->ok) ++raw->acks;
      }
    });
    sharded.attach(editor->pair.b.get());
    proto::Hello hello;
    hello.client_name = editor->name;
    hello.domain = kDomain;
    (void)editor->pair.a->send(proto::encode_message(hello));
    net::pump(editor->pair);
    editor->shard = *sharded.shard_of_client(editor->name);

    // Standing backlog: jobs blocked on a version that never arrives, so
    // every later update pays the full needed-by-job + scheduler scans.
    for (std::size_t j = 0; j < kJobsPerEditor; ++j) {
      proto::SubmitJob submit;
      submit.client_job_token = j + 1;
      submit.command_file = "run model\n";
      for (std::size_t f = 0; f < kFilesPerEditor; ++f) {
        proto::JobFileRef ref;
        ref.file = file_id(editor->name, f + 1);
        ref.local_name = "f" + std::to_string(f);
        ref.version = 1'000'000;  // never satisfied: stays kWaitingFiles
        submit.files.push_back(ref);
      }
      (void)editor->pair.a->send(proto::encode_message(submit));
      net::pump(editor->pair);
    }

    for (std::size_t f = 0; f < kFilesPerEditor; ++f) {
      editor->update_wires.push_back(update_wire(
          file_id(editor->name, f + 1),
          core::make_file(2'000, static_cast<u64>(e * 31 + f))));
    }
    editor->acks = 0;  // setup traffic doesn't count
    fleet.push_back(std::move(editor));
  }

  std::vector<double> shard_seconds(shards, 0.0);
  std::size_t turn = 0;
  for (auto _ : state) {
    Editor& editor = *fleet[turn % editors];
    ++turn;
    const Bytes& wire =
        editor.update_wires[editor.next_wire++ % editor.update_wires.size()];
    const auto begin = Clock::now();
    (void)editor.pair.a->send(wire);
    net::pump(editor.pair);
    shard_seconds[editor.shard] +=
        std::chrono::duration<double>(Clock::now() - begin).count();
  }

  u64 acks = 0;
  for (const auto& editor : fleet) acks += editor->acks;
  if (acks != static_cast<u64>(state.iterations())) {
    state.SkipWithError("ack count != iterations");
    return;
  }
  double total = 0.0;
  double busiest = 0.0;
  for (double s : shard_seconds) {
    total += s;
    busiest = std::max(busiest, s);
  }
  state.SetItemsProcessed(static_cast<int64_t>(acks));
  if (busiest > 0.0) {
    state.counters["model_tpc_acks_per_sec"] =
        benchmark::Counter(static_cast<double>(acks) / busiest);
    state.counters["model_critical_path_speedup"] =
        benchmark::Counter(total / busiest);
  }
  state.counters["shards"] = benchmark::Counter(static_cast<double>(shards));
  state.counters["editors"] = benchmark::Counter(static_cast<double>(editors));
  state.counters["standing_jobs"] =
      benchmark::Counter(static_cast<double>(editors * kJobsPerEditor));
}

BENCHMARK(BM_ShardedAcks)
    ->ArgsProduct({{1, 2, 4, 8}, {32, 256}})
    ->ArgNames({"shards", "editors"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  shadow::Logger::instance().set_level(shadow::LogLevel::kError);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
