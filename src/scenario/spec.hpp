// Declarative population-scale scenario specs (ROADMAP: "thousands of
// simulated clients"; format modeled on the Shadow simulator's host/
// network YAML config — see SNIPPETS.md and docs/SCENARIOS.md).
//
// A spec is a small indentation-structured text document ("YAML subset":
// two-space-indented `key: value` maps, '#' comments, no external
// dependencies):
//
//   general:
//     duration: 60s
//     seed: 42
//   server:
//     shards: 4
//     journal: on
//     max_active_jobs: 256
//   links:
//     flaky-wan:
//       base: modern-wan
//       loss: 0.001
//       jitter: 30ms
//   hosts:
//     crowd:
//       quantity: 2000
//       link: modem-56k
//       workload: flash_crowd
//       file_size: 20KB
//       edit_percent: 5
//
// Parsing is total: any malformed line yields a one-line error with its
// line number (the shadowsim CLI maps it to exit code 2) and never a
// partial scenario.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cache/shadow_cache.hpp"
#include "server/load_monitor.hpp"
#include "server/shadow_server.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "util/result.hpp"

namespace shadow::scenario {

/// A named line: a sim::Link shape plus the fault knobs (loss/jitter) the
/// FaultTransport decorator injects. Presets (sim::link_presets()) are
/// fault-free; a spec's `links:` section derives profiles from them or
/// from raw bandwidth/latency numbers.
struct LinkProfile {
  sim::LinkConfig link;
  double loss = 0.0;          // per-message drop probability [0, 1)
  double jitter_p = 0.0;      // probability a message is delayed
  sim::SimTime jitter = 0;    // extra delay when jittered, microseconds

  bool faulty() const { return loss > 0.0 || (jitter_p > 0.0 && jitter > 0); }
};

/// What a population of clients does all day.
enum class Workload : u8 {
  kFlashCrowd = 0,   // everyone submits inside one short window
  kHeavyEditor = 1,  // continuous edit-submit cycles, short think time
  kCasual = 2,       // sparse sessions, long think, edits often unsubmitted
};

const char* workload_name(Workload w);

/// One host class: `quantity` identical clients sharing a link profile
/// and a workload shape (Shadow's `hosts.<name>.quantity` idiom).
struct HostClass {
  std::string name;
  u64 quantity = 1;
  std::string link = "cypress-9600";  // preset or `links:` profile name
  Workload workload = Workload::kCasual;
  u64 file_size = 20'000;      // mean data-file bytes
  double file_spread = 0.0;    // uniform +/- fraction of file_size
  double edit_percent = 5.0;   // % of the file touched per session
  /// Binary population: data files are high-entropy bytes and edits are
  /// in-place region overwrites, so sessions exercise the CDC codec
  /// crossover instead of line diffs (examples/big_binaries.scn).
  bool binary = false;
  sim::SimTime start = 0;      // when the class wakes up
  sim::SimTime burst = 5 * sim::kMicrosPerSecond;   // arrival spread window
  sim::SimTime think = 30 * sim::kMicrosPerSecond;  // mean time between cycles
  u64 cycles = 0;              // edit-submit cycles per client; 0 = until end
  double submit_p = 1.0;       // chance an edit session ends in a submit
  u64 job_ops = 20'000;        // abstract executor ops each job burns
  bool request_driven = false; // push updates unprompted (§5.2 ablation)
  bool background_updates = true;  // notify at edit end vs at submit
};

/// Server shape: shards, journal, overload budget — the knobs the
/// scaling PRs added, exposed to the spec.
struct ServerShape {
  std::string name = "super";
  std::size_t shards = 1;
  bool journal = false;        // journal each shard to a MemDir WAL
  u64 cache_budget = 0;        // bytes; 0 = unlimited
  cache::EvictionPolicy eviction = cache::EvictionPolicy::kLru;
  server::PullPolicy pull = server::PullPolicy::kEager;
  /// Concurrent outstanding PullRequests per shard. The library default
  /// (4) suits one modest server; a population-scale shard needs room or
  /// every first-time transfer serializes behind the flow-control cap.
  std::size_t max_pulls = 64;
  std::size_t executor_slots = 4;
  double cpu_ops_per_second = 1e6;
  std::size_t max_active_jobs = 0;   // overload budget; 0 = unlimited
  u64 retry_after = 500'000;         // usec hint sent with ServerBusy
  bool reverse_shadow = false;
};

struct Scenario {
  std::string name = "scenario";
  sim::SimTime duration = 60 * sim::kMicrosPerSecond;
  u64 seed = 1;
  ServerShape server;
  std::map<std::string, LinkProfile> links;  // custom profiles by name
  std::vector<HostClass> hosts;              // in spec order

  /// Total simulated clients.
  u64 population() const {
    u64 n = 0;
    for (const auto& h : hosts) n += h.quantity;
    return n;
  }
};

/// Parse a spec document. Errors are one-line, "line N: message".
Result<Scenario> parse_scenario(const std::string& text);

/// Serialize back to spec text (canonical form; parse(to_text(s)) == s —
/// the round-trip property scenario_test pins).
std::string to_text(const Scenario& scenario);

/// Resolve a host class's link name against the scenario's `links:`
/// profiles first, then the sim presets. False when unknown.
bool resolve_link(const Scenario& scenario, const std::string& name,
                  LinkProfile* out);

}  // namespace shadow::scenario
