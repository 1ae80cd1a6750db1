#include "scenario/runner.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <memory>

#include "core/system.hpp"
#include "core/workload.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "server/shard_router.hpp"
#include "telemetry/percentile.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace shadow::scenario {

namespace {

/// SplitMix64-style mix for per-client seeds: decorrelates classes and
/// clients while staying a pure function of (scenario seed, class, index).
u64 mix_seed(u64 seed, u64 class_index, u64 client_index) {
  u64 z = seed + 0x9E3779B97F4A7C15ULL * (class_index + 1) +
          0xBF58476D1CE4E5B9ULL * (client_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr char kDataPath[] = "/home/user/data";

/// Mutable per-client state shared between the scheduled workload events
/// and the output callback. Lives in a deque so pointers stay stable.
struct ClientCtx {
  std::string name;
  std::size_t class_index = 0;
  u64 content_len = 0;  // current data-file size (baseline accounting)
  std::map<u64, sim::SimTime> submit_at;  // token -> submit time
};

struct ClassTotals {
  u64 edits = 0;
  u64 submitted = 0;
  u64 completed = 0;
};

}  // namespace

ScenarioRunner::ScenarioRunner(Scenario scenario)
    : scenario_(std::move(scenario)) {}

Result<ScenarioReport> ScenarioRunner::run() {
  const Scenario& sc = scenario_;
  const ServerShape& shape = sc.server;

  // Zero the process-global registry so back-to-back runs (selftest,
  // abl_scale sweeps) each measure only themselves.
  auto& registry = telemetry::Registry::global();
  registry.reset_values();
  auto& latency_hist = registry.histogram("scenario.submit_latency_usec");

  // Resolve every class's link profile up front; a lossy profile anywhere
  // forces the reliable session layer on (both ends must agree).
  std::vector<LinkProfile> class_links(sc.hosts.size());
  bool any_faulty = false;
  for (std::size_t ci = 0; ci < sc.hosts.size(); ++ci) {
    if (!resolve_link(sc, sc.hosts[ci].link, &class_links[ci])) {
      return Error{ErrorCode::kInvalidArgument,
                   "host class '" + sc.hosts[ci].name +
                       "' names unknown link '" + sc.hosts[ci].link + "'"};
    }
    any_faulty = any_faulty || class_links[ci].faulty();
  }

  // Reliable-session retransmit timers sized for THIS population, not the
  // channel's LAN-class defaults: a full transfer on a 56k modem takes
  // seconds to deliver, and a 200ms timer would resend the whole unacked
  // window several times before the first ack could possibly arrive —
  // amplifying offered load by orders of magnitude exactly when the link
  // is slowest. Floor the timer at the worst-case frame transmission time
  // plus a round trip across all classes.
  u64 rto_initial = 0;
  if (any_faulty) {
    for (std::size_t ci = 0; ci < sc.hosts.size(); ++ci) {
      const HostClass& cls = sc.hosts[ci];
      const sim::LinkConfig& link = class_links[ci].link;
      const double frame_bytes =
          static_cast<double>(cls.file_size) * (1.0 + cls.file_spread) +
          static_cast<double>(link.per_message_overhead);
      const double transmit_us = frame_bytes * 8.0 * link.congestion_factor /
                                 link.bits_per_second * 1e6;
      const u64 ack_us = static_cast<u64>(transmit_us) +
                         2 * link.latency + class_links[ci].jitter;
      rto_initial = std::max(rto_initial, ack_us + ack_us / 4);
    }
    rto_initial = std::max<u64>(rto_initial, 200'000);
  }

  // Declared before the system: the servers it owns hold raw pointers to
  // these stores and touch them from their destructors, so the stores
  // must be destroyed last.
  std::vector<std::unique_ptr<persist::MemDir>> shard_dirs;
  std::vector<std::unique_ptr<persist::DurableStore>> shard_stores;

  core::ShadowSystem system;

  // Shards: N independent ShadowServers in ONE simulator (no threads —
  // the thread-per-core layout without the threads, keeping the run
  // deterministic), clients pinned by the same ShardRouter hash the real
  // sharded server uses.
  server::ShardRouter router(shape.shards);
  std::vector<std::string> shard_names;
  std::vector<server::ShadowServer*> shard_servers;
  for (std::size_t i = 0; i < shape.shards; ++i) {
    server::ServerConfig config;
    config.name = shape.shards == 1 ? shape.name
                                    : shape.name + "-s" + std::to_string(i);
    config.cache_budget = shape.cache_budget;
    config.eviction = shape.eviction;
    config.pull_policy = shape.pull;
    config.max_outstanding_pulls = shape.max_pulls;
    config.cpu_ops_per_second = shape.cpu_ops_per_second;
    config.max_concurrent_jobs = shape.executor_slots;
    config.overload.max_active_jobs = shape.max_active_jobs;
    config.overload.retry_after_usec = shape.retry_after;
    config.reverse_shadow = shape.reverse_shadow;
    config.reliable_session = any_faulty;
    config.retransmit_initial_usec = rto_initial;
    config.retransmit_cap_usec = 4 * rto_initial;
    config.shard_id = i;
    config.shard_count = shape.shards;
    if (shape.shards > 1) {
      config.telemetry_prefix = "shard" + std::to_string(i) + ".";
    }

    persist::DurableStore* store = nullptr;
    if (shape.journal) {
      shard_dirs.push_back(std::make_unique<persist::MemDir>());
      shard_stores.push_back(std::make_unique<persist::DurableStore>(
          shard_dirs.back().get(), /*compact_every=*/4096));
      store = shard_stores.back().get();
    }
    shard_servers.push_back(&system.add_server(config, store));
    shard_names.push_back(config.name);
  }

  // Build the population.
  std::deque<ClientCtx> contexts;
  std::vector<ClassTotals> class_totals(sc.hosts.size());
  std::vector<std::vector<sim::Link*>> class_link_refs(sc.hosts.size());
  std::vector<telemetry::Histogram*> class_hists;
  for (const auto& cls : sc.hosts) {
    class_hists.push_back(
        &registry.histogram("scenario.latency." + cls.name));
  }

  // F-policy baseline: the whole data file crosses the wire at every
  // submit, and every output comes back at full size. Accumulated by the
  // submit lambdas / output callbacks below.
  u64 baseline_bytes = 0;
  u64* baseline = &baseline_bytes;

  for (std::size_t ci = 0; ci < sc.hosts.size(); ++ci) {
    const HostClass& cls = sc.hosts[ci];
    const LinkProfile& profile = class_links[ci];
    for (u64 j = 0; j < cls.quantity; ++j) {
      const std::string name = cls.name + "-" + std::to_string(j);

      client::ShadowEnvironment env;
      env.background_updates = cls.background_updates;
      env.flow = cls.request_driven ? client::FlowMode::kRequestDriven
                                    : client::FlowMode::kDemandDriven;
      env.reliable_session = any_faulty;
      env.retransmit_initial_usec = rto_initial;
      env.retransmit_cap_usec = 4 * rto_initial;
      auto& cl = system.add_client(name, env);

      const std::size_t shard =
          router.shard_of_client(system.domain_id(), name);
      const std::string& server_name = shard_names[shard];
      sim::Link* link = nullptr;
      if (profile.faulty()) {
        net::FaultPlan plan;
        plan.seed = mix_seed(sc.seed ^ 0xFA17ULL, ci, j);
        plan.drop_p = profile.loss;
        plan.delay_p = profile.jitter_p;
        plan.delay_micros = profile.jitter;
        link = &system.connect_faulty(name, server_name, profile.link,
                                      plan);
      } else {
        link = &system.connect(name, server_name, profile.link);
      }
      class_link_refs[ci].push_back(link);

      contexts.push_back(ClientCtx{name, ci, 0, {}});
      ClientCtx* ctx = &contexts.back();
      ClassTotals* totals = &class_totals[ci];
      telemetry::Histogram* cls_hist = class_hists[ci];

      auto* simp = &system.simulator();
      auto* sysp = &system;
      cl.on_job_output([=, &latency_hist](const client::JobView& view) {
        auto it = ctx->submit_at.find(view.token);
        if (it == ctx->submit_at.end()) return;
        const sim::SimTime lat = simp->now() - it->second;
        ctx->submit_at.erase(it);
        latency_hist.observe(lat);
        cls_hist->observe(lat);
        ++totals->completed;
        // The locally written output is always the full reconstruction,
        // even when the wire carried a reverse-shadow delta.
        auto output =
            sysp->cluster().read_file(ctx->name, view.output_path);
        if (output.ok()) *baseline += output.value().size();
      });

      // ---- deterministic open-loop workload schedule ----------------
      Rng rng(mix_seed(sc.seed, ci, j));

      // File size: mean +/- spread, uniform.
      u64 size = cls.file_size;
      if (cls.file_spread > 0) {
        const double factor =
            1.0 + cls.file_spread * (2.0 * rng.uniform() - 1.0);
        size = std::max<u64>(1, static_cast<u64>(
                                    static_cast<double>(size) * factor));
      }
      const u64 file_seed = rng.next();

      const bool binary = cls.binary;
      const sim::SimTime create_at =
          cls.start + rng.below(std::max<u64>(cls.burst, 1));
      simp->schedule_at(create_at, [=] {
        const std::string content =
            binary ? core::make_binary_file(static_cast<std::size_t>(size),
                                            file_seed)
                   : core::make_file(static_cast<std::size_t>(size),
                                     file_seed);
        ctx->content_len = content.size();
        (void)sysp->editor(ctx->name).create(kDataPath, content);
      });

      // Cycle times, precomputed with the client's own rng so the whole
      // schedule is fixed before the simulation starts.
      u64 max_cycles = cls.cycles;
      if (max_cycles == 0) {
        max_cycles = cls.workload == Workload::kFlashCrowd
                         ? 1                       // one storm submit
                         : ~u64{0};                // until the end of time
      }
      sim::SimTime t = 0;
      switch (cls.workload) {
        case Workload::kFlashCrowd:
          // Everyone piles in during [start + burst, start + 2*burst).
          t = cls.start + cls.burst + rng.below(std::max<u64>(cls.burst, 1));
          break;
        case Workload::kHeavyEditor:
        case Workload::kCasual:
          t = create_at + std::max<u64>(
                              1, static_cast<u64>(
                                     static_cast<double>(cls.think) *
                                     (0.75 + 0.5 * rng.uniform())));
          break;
      }
      for (u64 k = 0; k < max_cycles && t < sc.duration; ++k) {
        const u64 edit_seed = rng.next();
        const bool do_submit = rng.chance(cls.submit_p);
        const double edit_percent = cls.edit_percent;
        const u64 job_ops = cls.job_ops;
        simp->schedule_at(t, [=] {
          auto& editor = sysp->editor(ctx->name);
          (void)editor.edit(kDataPath, [=](const std::string& old) {
            std::string next =
                binary ? core::overwrite_percent(old, edit_percent,
                                                 edit_seed)
                       : core::modify_percent(old, edit_percent, edit_seed);
            ctx->content_len = next.size();
            return next;
          });
          ++totals->edits;
          if (!do_submit) return;
          client::ShadowClient::SubmitOptions job;
          job.files = {kDataPath};
          job.command_file = "burn " + std::to_string(job_ops) + "\n";
          auto token = sysp->client(ctx->name).submit(job);
          if (!token.ok()) return;
          ctx->submit_at[token.value()] = simp->now();
          ++totals->submitted;
          *baseline += ctx->content_len;
        });
        // Next cycle: think time with +/-25% spread.
        t += std::max<u64>(1, static_cast<u64>(
                                  static_cast<double>(cls.think) *
                                  (0.75 + 0.5 * rng.uniform())));
      }
    }
  }

  system.simulator().run_until(sc.duration);

  // ---- harvest ---------------------------------------------------------
  ScenarioReport report;
  report.name = sc.name;
  report.seed = sc.seed;
  report.population = sc.population();
  report.duration_s = sim::to_seconds(sc.duration);
  report.shards = shape.shards;

  server::ServerStats server_sum;
  for (auto* server : shard_servers) {
    server->sync_telemetry();
    server_sum += server->stats();
  }

  for (std::size_t ci = 0; ci < sc.hosts.size(); ++ci) {
    const ClassTotals& totals = class_totals[ci];
    ClassReport cr;
    cr.name = sc.hosts[ci].name;
    cr.clients = sc.hosts[ci].quantity;
    cr.edits = totals.edits;
    cr.submitted = totals.submitted;
    cr.completed = totals.completed;
    for (const auto* link : class_link_refs[ci]) {
      cr.payload_bytes += link->total_payload_bytes();
    }
    const auto qs = telemetry::summarize_quantiles(*class_hists[ci]);
    cr.p50_ms = qs.p50 / 1e3;
    cr.p99_ms = qs.p99 / 1e3;
    report.classes.push_back(cr);
    report.edits += totals.edits;
    report.submitted += totals.submitted;
    report.completed += totals.completed;
  }

  for (const auto& ctx : contexts) {
    const auto& cs = system.client(ctx.name).stats();
    report.busy_replies += cs.server_busy;
    report.busy_retries += cs.busy_retries;
  }

  const auto qs = telemetry::summarize_quantiles(latency_hist);
  report.p50_ms = qs.p50 / 1e3;
  report.p90_ms = qs.p90 / 1e3;
  report.p99_ms = qs.p99 / 1e3;

  const double dur = report.duration_s > 0 ? report.duration_s : 1.0;
  report.acks_per_sec =
      static_cast<double>(server_sum.updates_received +
                          server_sum.jobs_submitted +
                          server_sum.outputs_sent) /
      dur;
  report.jobs_per_sec = static_cast<double>(report.completed) / dur;

  report.payload_bytes = system.total_payload_bytes();
  report.wire_bytes = system.total_wire_bytes();
  report.baseline_bytes = baseline_bytes;
  if (report.baseline_bytes > report.payload_bytes) {
    report.saved_bytes = report.baseline_bytes - report.payload_bytes;
    report.saved_ratio = static_cast<double>(report.saved_bytes) /
                         static_cast<double>(report.baseline_bytes);
  }

  report.busy_rejects = server_sum.busy_rejects;
  const u64 offered = server_sum.busy_rejects + server_sum.jobs_submitted;
  if (offered > 0) {
    report.shed_rate =
        static_cast<double>(server_sum.busy_rejects) /
        static_cast<double>(offered);
  }

  report.cache_hits = registry.counter("cache.hits").value();
  report.cache_misses = registry.counter("cache.misses").value();
  report.cache_evictions = registry.counter("cache.evictions").value();
  const u64 lookups = report.cache_hits + report.cache_misses;
  if (lookups > 0) {
    report.cache_hit_rate = static_cast<double>(report.cache_hits) /
                            static_cast<double>(lookups);
  }

  report.full_transfers = server_sum.full_transfers;
  report.delta_transfers = server_sum.delta_transfers;
  report.cdc_transfers = server_sum.cdc_transfers;
  report.updates_received = server_sum.updates_received;
  report.outputs_sent = server_sum.outputs_sent;

  return report;
}

// ---- renderers ---------------------------------------------------------

namespace {
void appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}
}  // namespace

std::string to_json(const ScenarioReport& r) {
  std::string out;
  out += "{\n";
  appendf(&out, "  \"scenario\": \"%s\",\n", r.name.c_str());
  appendf(&out, "  \"seed\": %" PRIu64 ",\n", r.seed);
  appendf(&out, "  \"population\": %" PRIu64 ",\n", r.population);
  appendf(&out, "  \"duration_s\": %.3f,\n", r.duration_s);
  appendf(&out, "  \"shards\": %zu,\n", r.shards);
  appendf(&out,
          "  \"clients\": {\"edits\": %" PRIu64 ", \"submitted\": %" PRIu64
          ", \"completed\": %" PRIu64 ", \"busy_replies\": %" PRIu64
          ", \"busy_retries\": %" PRIu64 "},\n",
          r.edits, r.submitted, r.completed, r.busy_replies,
          r.busy_retries);
  appendf(&out,
          "  \"latency_ms\": {\"p50\": %.3f, \"p90\": %.3f, \"p99\": "
          "%.3f},\n",
          r.p50_ms, r.p90_ms, r.p99_ms);
  appendf(&out,
          "  \"throughput\": {\"acks_per_sec\": %.3f, \"jobs_per_sec\": "
          "%.3f},\n",
          r.acks_per_sec, r.jobs_per_sec);
  appendf(&out,
          "  \"bytes\": {\"payload\": %" PRIu64 ", \"wire\": %" PRIu64
          ", \"baseline\": %" PRIu64 ", \"saved\": %" PRIu64
          ", \"saved_ratio\": %.4f},\n",
          r.payload_bytes, r.wire_bytes, r.baseline_bytes, r.saved_bytes,
          r.saved_ratio);
  appendf(&out,
          "  \"overload\": {\"busy_rejects\": %" PRIu64
          ", \"shed_rate\": %.4f},\n",
          r.busy_rejects, r.shed_rate);
  appendf(&out,
          "  \"cache\": {\"hits\": %" PRIu64 ", \"misses\": %" PRIu64
          ", \"evictions\": %" PRIu64 ", \"hit_rate\": %.4f},\n",
          r.cache_hits, r.cache_misses, r.cache_evictions,
          r.cache_hit_rate);
  appendf(&out,
          "  \"transfers\": {\"full\": %" PRIu64 ", \"delta\": %" PRIu64
          ", \"cdc\": %" PRIu64 ", \"updates_received\": %" PRIu64
          ", \"outputs_sent\": %" PRIu64 "},\n",
          r.full_transfers, r.delta_transfers, r.cdc_transfers,
          r.updates_received, r.outputs_sent);
  out += "  \"classes\": [";
  for (std::size_t i = 0; i < r.classes.size(); ++i) {
    const ClassReport& c = r.classes[i];
    if (i > 0) out += ",";
    out += "\n";
    appendf(&out,
            "    {\"name\": \"%s\", \"clients\": %" PRIu64
            ", \"edits\": %" PRIu64 ", \"submitted\": %" PRIu64
            ", \"completed\": %" PRIu64 ", \"payload_bytes\": %" PRIu64
            ", \"p50_ms\": %.3f, \"p99_ms\": %.3f}",
            c.name.c_str(), c.clients, c.edits, c.submitted, c.completed,
            c.payload_bytes, c.p50_ms, c.p99_ms);
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string to_text(const ScenarioReport& r) {
  std::string out;
  appendf(&out, "scenario %s  (seed %" PRIu64 ")\n", r.name.c_str(),
          r.seed);
  appendf(&out,
          "  population %" PRIu64 " clients, %zu shard%s, %.1f simulated "
          "seconds\n",
          r.population, r.shards, r.shards == 1 ? "" : "s", r.duration_s);
  appendf(&out,
          "  activity   %" PRIu64 " edits, %" PRIu64 " submits, %" PRIu64
          " completed\n",
          r.edits, r.submitted, r.completed);
  appendf(&out,
          "  latency    p50 %.1f ms   p90 %.1f ms   p99 %.1f ms\n",
          r.p50_ms, r.p90_ms, r.p99_ms);
  appendf(&out,
          "  throughput %.1f acks/s, %.1f jobs/s\n", r.acks_per_sec,
          r.jobs_per_sec);
  appendf(&out,
          "  bytes      %" PRIu64 " payload (baseline %" PRIu64
          ", saved %" PRIu64 " = %.1f%%)\n",
          r.payload_bytes, r.baseline_bytes, r.saved_bytes,
          r.saved_ratio * 100.0);
  appendf(&out,
          "  overload   %" PRIu64 " shed (%.2f%% of offered)\n",
          r.busy_rejects, r.shed_rate * 100.0);
  appendf(&out,
          "  cache      %" PRIu64 " hits / %" PRIu64 " misses (%.1f%%), "
          "%" PRIu64 " evictions\n",
          r.cache_hits, r.cache_misses, r.cache_hit_rate * 100.0,
          r.cache_evictions);
  appendf(&out,
          "  transfers  %" PRIu64 " full, %" PRIu64 " delta, %" PRIu64
          " cdc\n",
          r.full_transfers, r.delta_transfers, r.cdc_transfers);
  for (const auto& c : r.classes) {
    appendf(&out,
            "  class %-14s %5" PRIu64 " clients  %6" PRIu64
            " submits  %6" PRIu64 " done  %10" PRIu64
            " B  p50 %.1f ms  p99 %.1f ms\n",
            c.name.c_str(), c.clients, c.submitted, c.completed,
            c.payload_bytes, c.p50_ms, c.p99_ms);
  }
  return out;
}

}  // namespace shadow::scenario
