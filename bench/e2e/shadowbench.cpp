// shadowbench — end-to-end benchmark of the shadow editing service.
//
//   shadowbench --workload NAME --seed N --seconds S --trace 0|1
//               --bin-dir DIR --work-dir DIR --spec FILE [--corrupt-expected]
//
// Live workloads (edit_text, edit_binary, edit_submit) start a fresh
// `shadowd --port 0 --journal DIR` per set-up and drive four real
// ShadowClient/ShadowEditor instances over TCP; the population workload
// runs `shadowsim --json` on FILE. With --trace 0 the run prints every
// end-to-end metric; with --trace 1 it prints the per-layer metrics of a
// separate traced window and writes the spans to WORK-DIR/trace-NAME.json.
// The last line of stdout is the result object
//   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
// and the exit code is 0 only when every output checked out.
// bench/e2e/README.md documents the workloads and metrics.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "proc.hpp"
#include "replay.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"

using namespace shadowbench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; the smoke test holds the two together.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"wire_bytes_per_op", "B"},
    {"server_rss_mb", "MiB"},
};

constexpr Metric kPerLayer[] = {
    {"client.save_us.p50", "us"},
    {"client.encode_us.p50", "us"},
    {"client.encode_us.p90", "us"},
    {"client.submit_us.p50", "us"},
    {"client.output_us.p50", "us"},
    {"net.client_poll_self_us_per_op", "us"},
    {"server.residual_ms.p50", "ms"},
    {"server.cpu_us_per_op", "us"},
    {"server.pulls_deferred_per_save", "ratio"},
    {"server.delta_share", "ratio"},
    {"cdc.match_ratio", "ratio"},
    {"cdc.literal_bytes_per_save", "B"},
    {"diff.lines_compared_per_save", "count"},
    {"persist.fsyncs_per_save", "ratio"},
    {"persist.append_bytes_per_save", "B"},
    {"cache.hit_rate", "ratio"},
    {"server.digest_resident_bytes", "B"},
    {"server.cache_bytes", "B"},
    {"job.history", "count"},
    {"server.active_jobs", "count"},
    {"overload.busy_rejects", "count"},
    {"proto.decode_us.p50", "us"},
    {"compress.decompress_us.p50", "us"},
    {"delta.apply_us.p50", "us"},
    {"util.crc32_us_per_mib", "us"},
    {"cache.put_us.p50", "us"},
    {"persist.write_us.p50", "us"},
    {"persist.fsync_us.p50", "us"},
    {"persist.fsync_us.p90", "us"},
    {"job.exec_us.p50", "us"},
    {"scenario.cache_evictions", "count"},
    {"scenario.cache_hit_rate", "ratio"},
    {"scenario.full_share", "ratio"},
    {"scenario.shed_rate", "ratio"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.cpu_s", "s"},
    {"trace.overhead_pct", "%"},
};

/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 5;
constexpr int kSimSetups = 5;
/// Simulated length of a population set-up: the spec's 30 s burst, in
/// which every client uploads its file.
constexpr char kSimSetupDuration[] = "duration: 30s";

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir, work_dir, spec;
  std::string trace_path;  // where a traced run writes its spans
  bool corrupt = false;
};

struct Outcome {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, double> values;
  std::map<std::string, double> validity;
};

// ---- statistics --------------------------------------------------------

/// Linear interpolation between order statistics; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Samples strictly beyond the q-quantile: a percentile is reported only
/// with at least ten.
double beyond(std::size_t n, double q) {
  return static_cast<double>(n) -
         std::ceil(q * static_cast<double>(n));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- telemetry snapshots -------------------------------------------------

double counter(const shadow::telemetry::Snapshot& s, const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}
double gauge(const shadow::telemetry::Snapshot& s, const std::string& name) {
  for (const auto& g : s.gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}
double delta(const shadow::telemetry::Snapshot& before,
             const shadow::telemetry::Snapshot& after, const std::string& name) {
  return counter(after, name) - counter(before, name);
}

// ---- workloads -------------------------------------------------------------

bool live_shape(const std::string& workload, LiveShape* shape) {
  if (workload == "edit_text") {
    *shape = LiveShape{64, 16 * 1024, false, 2.0, 300.0, false};
  } else if (workload == "edit_binary") {
    *shape = LiveShape{16, 512 * 1024, true, 1.0, 0.0, false};
  } else if (workload == "edit_submit") {
    *shape = LiveShape{16, 16 * 1024, false, 2.0, 150.0, true};
  } else if (workload == "population") {
    // Live traffic shaped like the population's heavy editors, for the
    // client, daemon and replay columns of its traced run.
    *shape = LiveShape{16, 80 * 1024, false, 3.0, 0.0, true};
  } else {
    return false;
  }
  return true;
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "shadowbench: %s\n", why.c_str());
  std::exit(2);
}

void add_live_validity(const LiveShape& shape, const WindowResult& w,
                       u64 mismatches, const LiveRun& run, Outcome* out) {
  const double lag_p99 = quantile(w.lag_ms, 0.99);
  out->validity["lag_p99_ms"] = lag_p99;
  // An open loop that fell behind its schedule measured a lower rate.
  out->validity["open_loop_on_time"] = shape.open_rate <= 0 || lag_p99 <= 1.0;
  out->validity["samples_beyond_p99"] = beyond(w.latency_ms.size(), 0.99);
  out->validity["outputs_verified"] = mismatches == 0;
  out->validity["edit_pool_sufficed"] = !run.pool_exhausted();
  out->correct = mismatches == 0 && !run.pool_exhausted();
}

Outcome run_live(const Options& o, const LiveShape& shape) {
  Outcome out;
  LiveRun run(shape, o.seed, {o.seconds}, o.bin_dir + "/shadowd", o.work_dir,
              false);
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    auto s = run.setup();
    if (!s.ok()) die("set-up failed: " + s.error().to_string());
    setups.push_back(s.value());
  }
  const WindowResult w = run.window(false, nullptr);
  u64 attempted = 0, failed = 0;
  const u64 mismatches = run.verify(o.corrupt, &attempted, &failed);
  run.stop_daemon();

  out.attempted = w.attempted + attempted;
  out.failed = w.failed + failed;
  const double completed = static_cast<double>(w.latency_ms.size());
  out.values = {
      {"setup_s", median(setups)},
      {"latency_p50_ms", quantile(w.latency_ms, 0.50)},
      {"latency_p99_ms", quantile(w.latency_ms, 0.99)},
      {"ops_per_s", completed / w.seconds},
      {"wire_bytes_per_op", ratio(static_cast<double>(w.wire_bytes), completed)},
      {"server_rss_mb", median(w.server_rss_mib)},
  };
  add_live_validity(shape, w, mismatches, run, &out);
  return out;
}

/// Per-layer columns of a traced live run: untraced window `a`, traced
/// window `b`, then verification and the layer replay.
void live_layers(const Options& o, const LiveShape& shape, Outcome* out) {
  LiveRun run(shape, o.seed, {o.seconds / 2, o.seconds / 2},
              o.bin_dir + "/shadowd", o.work_dir, true);
  if (auto s = run.setup(); !s.ok()) die("set-up failed: " + s.error().to_string());
  const WindowResult a = run.window(false, nullptr);
  TraceCounters tc;
  const WindowResult b = run.window(true, &tc);
  u64 attempted = 0, failed = 0;
  const u64 mismatches = run.verify(o.corrupt, &attempted, &failed);
  run.stop_daemon();
  const std::vector<CapturedUpdate> captured = run.captured();
  const ReplayTimings replay =
      replay_layers(captured, o.work_dir + "/replay-journal");

  out->attempted += a.attempted + b.attempted + attempted;
  out->failed += a.failed + b.failed + failed;
  add_live_validity(shape, b, mismatches, run, out);
  out->validity["replay_failures"] = static_cast<double>(replay.failures);
  out->validity["replayed_updates"] = static_cast<double>(captured.size());

  Tracer& tracer = run.tracer();
  if (tracer.write_json(o.trace_path)) {
    std::fprintf(stderr, "shadowbench: spans written to %s\n", o.trace_path.c_str());
  }

  // Residual: an operation's wait not covered by its own client spans —
  // the daemon, the loopback link and the generator's bookkeeping.
  std::map<int, double> child_us;
  const auto& spans = tracer.spans();
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end_ns != 0) child_us[s.parent] += s.dur_us();
  }
  const std::string op_span = shape.submit ? "e2e.job" : "e2e.save";
  std::vector<double> residual_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0 || tracer.names()[s.name] != op_span) continue;
    residual_ms.push_back((s.dur_us() - child_us[static_cast<int>(i)]) / 1e3);
  }

  const auto& d0 = tc.daemon_before;
  const auto& d1 = tc.daemon_after;
  const auto& c0 = tc.client_before;
  const auto& c1 = tc.client_after;
  const double ops = static_cast<double>(b.latency_ms.size());
  const double saves = static_cast<double>(b.attempted);
  const auto encode = tracer.durations_us("client.recv.PullRequest");
  const double matched = delta(c0, c1, "cdc.chunks_matched");
  const double missed = delta(c0, c1, "cdc.chunks_missed");
  auto& v = out->values;
  v["client.save_us.p50"] = median(tracer.durations_us("client.save"));
  v["client.encode_us.p50"] = quantile(encode, 0.50);
  v["client.encode_us.p90"] = quantile(encode, 0.90);
  v["client.submit_us.p50"] = median(tracer.durations_us("client.submit"));
  v["client.output_us.p50"] = median(tracer.durations_us("client.recv.JobOutput"));
  v["net.client_poll_self_us_per_op"] = ratio(tc.poll_self_us, ops);
  v["server.residual_ms.p50"] = median(residual_ms);
  v["server.cpu_us_per_op"] = ratio(tc.daemon_cpu_s * 1e6, ops);
  v["server.pulls_deferred_per_save"] =
      ratio(delta(d0, d1, "server.pulls_deferred"), saves);
  v["server.delta_share"] = ratio(delta(d0, d1, "server.delta_transfers"),
                                  delta(d0, d1, "server.updates_received"));
  v["cdc.match_ratio"] = ratio(matched, matched + missed);
  v["cdc.literal_bytes_per_save"] = ratio(delta(c0, c1, "cdc.literal_bytes"), saves);
  v["diff.lines_compared_per_save"] =
      ratio(delta(c0, c1, "diff.lines_compared"), saves);
  v["persist.fsyncs_per_save"] = ratio(delta(d0, d1, "persist.fsyncs"), saves);
  v["persist.append_bytes_per_save"] =
      ratio(delta(d0, d1, "persist.append_bytes"), saves);
  v["cache.hit_rate"] =
      ratio(delta(d0, d1, "cache.hits"), delta(d0, d1, "cache.lookups"));
  v["server.digest_resident_bytes"] = gauge(d1, "server.digest_resident_bytes");
  v["server.cache_bytes"] = gauge(d1, "server.cache_bytes");
  v["job.history"] = counter(d1, "job.submits");
  v["server.active_jobs"] = gauge(d1, "server.active_jobs");
  v["overload.busy_rejects"] = counter(d1, "overload.busy_rejects");
  v["proto.decode_us.p50"] = median(replay.decode_us);
  v["compress.decompress_us.p50"] = median(replay.decompress_us);
  v["delta.apply_us.p50"] = median(replay.apply_us);
  v["util.crc32_us_per_mib"] = replay.crc32_us_per_mib;
  v["cache.put_us.p50"] = median(replay.put_us);
  v["persist.write_us.p50"] = median(replay.write_us);
  v["persist.fsync_us.p50"] = median(replay.fsync_us);
  v["persist.fsync_us.p90"] = quantile(replay.fsync_us, 0.90);
  v["job.exec_us.p50"] = median(run.exec_us());
  v["loadgen.lag_p99_ms"] = quantile(b.lag_ms, 0.99);
  v["loadgen.cpu_s"] = tc.loadgen_cpu_s;
  v["trace.overhead_pct"] =
      (ratio(quantile(b.latency_ms, 0.5), quantile(a.latency_ms, 0.5)) - 1.0) *
      100.0;
  for (const char* name : {"scenario.cache_evictions", "scenario.cache_hit_rate",
                           "scenario.full_share", "scenario.shed_rate"}) {
    v.emplace(name, 0.0);  // the simulator's columns; set by the population run
  }
}

// ---- population ------------------------------------------------------------

/// The number after `"key": ` inside the object introduced by `"object":`
/// of a shadowsim --json report (its layout is fixed by scenario/runner.cpp).
double report_number(const std::string& json, const std::string& object,
                     const std::string& key) {
  std::size_t at = json.find("\"" + object + "\":");
  if (at == std::string::npos) return std::nan("");
  at = json.find("\"" + key + "\":", at);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

struct SimRun {
  std::string report;
  double wall_s = 0, rss_mib = 0;
};

SimRun simulate(const Options& o, const std::string& spec) {
  auto r = run_captured({o.bin_dir + "/shadowsim", spec, "--json", "--seed",
                         std::to_string(o.seed)});
  if (!r.ok()) die("shadowsim: " + r.error().to_string());
  if (!r.value().exit.clean()) die("shadowsim failed on " + spec);
  return SimRun{r.value().out, r.value().wall_s, r.value().exit.peak_rss_mib};
}

/// Accounting identities every report must satisfy.
bool report_consistent(const std::string& j) {
  const double full = report_number(j, "transfers", "full");
  const double delta_n = report_number(j, "transfers", "delta");
  const double cdc = report_number(j, "transfers", "cdc");
  const double updates = report_number(j, "transfers", "updates_received");
  const double payload = report_number(j, "bytes", "payload");
  const double wire = report_number(j, "bytes", "wire");
  const double baseline = report_number(j, "bytes", "baseline");
  const double saved = report_number(j, "bytes", "saved");
  const double submitted = report_number(j, "clients", "submitted");
  const double completed = report_number(j, "clients", "completed");
  return full + delta_n + cdc == updates && payload <= wire &&
         saved == std::max(0.0, baseline - payload) && completed > 0 &&
         completed <= submitted;
}

Outcome run_population(const Options& o) {
  Outcome out;
  // Set-up is the same spec cut to its first 30 simulated seconds: process
  // start, building every simulated client, and their initial uploads.
  std::ifstream in(o.spec);
  if (!in) die("cannot read " + o.spec);
  std::stringstream text;
  text << in.rdbuf();
  std::string setup_spec = text.str();
  const auto at = setup_spec.find("duration:");
  if (at == std::string::npos) die(o.spec + " has no duration");
  setup_spec.replace(at, setup_spec.find('\n', at) - at, kSimSetupDuration);
  const std::string setup_path = o.work_dir + "/setup.scn";
  std::ofstream(setup_path) << setup_spec;

  std::vector<double> setups;
  for (int k = 0; k < kSimSetups; ++k) setups.push_back(simulate(o, setup_path).wall_s);
  std::filesystem::remove(setup_path);

  std::vector<SimRun> sims;
  const double t0 = static_cast<double>(now_ns()) / 1e9;
  do {
    sims.push_back(simulate(o, o.spec));
  } while (static_cast<double>(now_ns()) / 1e9 - t0 + sims.back().wall_s <=
           o.seconds);

  std::vector<double> walls, rss;
  bool identical = true;
  for (const SimRun& s : sims) {
    walls.push_back(s.wall_s);
    rss.push_back(s.rss_mib);
    identical = identical && s.report == sims.front().report;
  }
  const std::string& j = sims.front().report;
  const double completed = report_number(j, "clients", "completed");
  out.attempted = static_cast<u64>(report_number(j, "clients", "submitted"));
  out.failed = static_cast<u64>(report_number(j, "overload", "busy_rejects"));
  out.values = {
      {"setup_s", median(setups)},
      {"latency_p50_ms", report_number(j, "latency_ms", "p50")},
      {"latency_p99_ms", report_number(j, "latency_ms", "p99")},
      // Every repetition computes the same simulation, so the host can
      // only add time: the fastest one is the cost of the simulation.
      {"ops_per_s", ratio(completed, *std::min_element(walls.begin(), walls.end()))},
      {"wire_bytes_per_op", ratio(report_number(j, "bytes", "wire"), completed)},
      {"server_rss_mb", median(rss)},
  };
  out.validity["simulations"] = static_cast<double>(sims.size());
  out.validity["repeats_identical"] = identical;
  out.validity["report_consistent"] = report_consistent(j);
  out.validity["samples_beyond_p99"] =
      beyond(static_cast<std::size_t>(completed), 0.99);
  out.correct = identical && report_consistent(j);
  return out;
}

Outcome trace_population(const Options& o) {
  Outcome out;
  LiveShape shape;
  live_shape("population", &shape);
  live_layers(o, shape, &out);
  const std::string j = simulate(o, o.spec).report;
  const double full = report_number(j, "transfers", "full");
  out.values["scenario.cache_evictions"] = report_number(j, "cache", "evictions");
  out.values["scenario.cache_hit_rate"] = report_number(j, "cache", "hit_rate");
  out.values["scenario.full_share"] =
      ratio(full, report_number(j, "transfers", "updates_received"));
  out.values["scenario.shed_rate"] = report_number(j, "overload", "shed_rate");
  out.validity["report_consistent"] = report_consistent(j);
  out.correct = out.correct && report_consistent(j);
  return out;
}

// ---- output ------------------------------------------------------------------

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Human-readable table, the run record (validity flags for `run.py
/// compare`), then the result object as the last line.
void print(const Options& o, const Outcome& out) {
  const Metric* begin = o.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const Metric* end = o.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::string metrics;
  for (const Metric* m = begin; m != end; ++m) {
    const auto it = out.values.find(m->name);
    if (it == out.values.end() || !std::isfinite(it->second)) {
      die(std::string("metric not measured: ") + m->name);
    }
    std::printf("  %-34s %16.6g %s\n", m->name, it->second, m->unit);
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(m->name).append("\": {\"value\": ");
    metrics.append(number(it->second)).append(", \"unit\": \"");
    metrics.append(m->unit).append("\"}");
  }
  std::string validity;
  for (const auto& [name, value] : out.validity) {
    if (!validity.empty()) validity += ", ";
    validity.append("\"").append(name).append("\": ").append(number(value));
  }
  std::printf("record: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"build_type\": \"%s\", \"validity\": {%s}}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              number(o.seconds).c_str(), o.trace ? 1 : 0,
              SHADOWBENCH_BUILD_TYPE, validity.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<u64>(1, out.attempted)),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--bin-dir") {
      o.bin_dir = value();
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--spec") {
      o.spec = value();
    } else if (arg == "--corrupt-expected") {
      o.corrupt = true;
    } else {
      die("unknown argument " + arg);
    }
  }
  if (o.workload.empty() || o.bin_dir.empty() || o.work_dir.empty() ||
      !(o.seconds > 0)) {
    die("usage: shadowbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--bin-dir DIR --work-dir DIR --spec FILE [--corrupt-expected]");
  }
  if (o.workload == "population" && o.spec.empty()) die("population needs --spec");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::strcmp(SHADOWBENCH_BUILD_TYPE, "Release") != 0) {
    die(std::string("refusing to measure a ") + SHADOWBENCH_BUILD_TYPE + " build");
  }
  shadow::Logger::instance().set_level(shadow::LogLevel::kError);
  Options o = parse(argc, argv);
  LiveShape shape;
  if (!live_shape(o.workload, &shape)) die("unknown workload " + o.workload);

  // Journals and set-up specs of this run live in a private directory.
  o.trace_path = o.work_dir + "/trace-" + o.workload + ".json";
  o.work_dir += "/run-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  if (ec) die("cannot create " + o.work_dir);

  std::fprintf(stderr, "shadowbench: %s seed %llu, %g s, trace %d\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.seconds, o.trace ? 1 : 0);
  Outcome out;
  if (o.workload == "population") {
    out = o.trace ? trace_population(o) : run_population(o);
  } else if (o.trace) {
    live_layers(o, shape, &out);
  } else {
    out = run_live(o, shape);
  }
  std::filesystem::remove_all(o.work_dir, ec);
  print(o, out);
  return out.correct ? 0 : 1;
}
