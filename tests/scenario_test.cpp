// The population-scale scenario harness (src/scenario/): spec parsing
// round-trips through its canonical text, malformed specs die with one
// line + exit code 2, and a run is a pure function of (spec, seed) —
// byte-identical --json output across runs, including a sharded-server
// population.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "scenario/cli.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/logging.hpp"

namespace shadow::scenario {
namespace {

constexpr char kFullSpec[] = R"(# every section and key
general:
  name: everything
  duration: 30s
  seed: 99
server:
  name: big
  shards: 4
  journal: on
  cache_budget: 16MB
  eviction: fifo
  pull: lazy
  max_pulls: 32
  executor_slots: 8
  cpu_ops_per_second: 5e7
  max_active_jobs: 64
  retry_after: 250ms
  reverse_shadow: on
links:
  flaky:
    base: modem-56k
    loss: 0.01
    jitter: 30ms
    jitter_p: 0.05
  custom:
    bandwidth: 128k
    latency: 80ms
    overhead: 40
    congestion: 1.5
hosts:
  crowd:
    quantity: 100
    link: flaky
    workload: flash_crowd
    file_size: 20KB
    file_spread: 0.25
    edit_percent: 5
    start: 2s
    burst: 8s
    job_ops: 40000
    binary: on
  editors:
    quantity: 10
    link: custom
    workload: heavy_editor
    think: 20s
    cycles: 3
    submit_p: 0.9
    request_driven: on
    background_updates: off
)";

TEST(ScenarioSpec, ParsesEveryKey) {
  auto parsed = parse_scenario(kFullSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Scenario& s = parsed.value();
  EXPECT_EQ(s.name, "everything");
  EXPECT_EQ(s.duration, 30u * sim::kMicrosPerSecond);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_EQ(s.server.shards, 4u);
  EXPECT_TRUE(s.server.journal);
  EXPECT_EQ(s.server.cache_budget, 16'000'000u);
  EXPECT_EQ(s.server.eviction, cache::EvictionPolicy::kFifo);
  EXPECT_EQ(s.server.pull, server::PullPolicy::kLazyOnSubmit);
  EXPECT_EQ(s.server.max_pulls, 32u);
  EXPECT_EQ(s.server.executor_slots, 8u);
  EXPECT_DOUBLE_EQ(s.server.cpu_ops_per_second, 5e7);
  EXPECT_EQ(s.server.max_active_jobs, 64u);
  EXPECT_EQ(s.server.retry_after, 250'000u);
  EXPECT_TRUE(s.server.reverse_shadow);
  ASSERT_EQ(s.links.size(), 2u);
  const LinkProfile& flaky = s.links.at("flaky");
  EXPECT_DOUBLE_EQ(flaky.loss, 0.01);
  EXPECT_EQ(flaky.jitter, 30'000u);
  EXPECT_TRUE(flaky.faulty());
  const LinkProfile& custom = s.links.at("custom");
  EXPECT_DOUBLE_EQ(custom.link.bits_per_second, 128'000.0);
  EXPECT_EQ(custom.link.latency, 80'000u);
  EXPECT_EQ(custom.link.per_message_overhead, 40u);
  EXPECT_FALSE(custom.faulty());
  ASSERT_EQ(s.hosts.size(), 2u);
  EXPECT_EQ(s.hosts[0].quantity, 100u);
  EXPECT_EQ(s.hosts[0].workload, Workload::kFlashCrowd);
  EXPECT_EQ(s.hosts[0].start, 2'000'000u);
  EXPECT_TRUE(s.hosts[0].binary);
  EXPECT_FALSE(s.hosts[1].binary);
  EXPECT_EQ(s.hosts[1].cycles, 3u);
  EXPECT_TRUE(s.hosts[1].request_driven);
  EXPECT_FALSE(s.hosts[1].background_updates);
  EXPECT_EQ(s.population(), 110u);
}

TEST(ScenarioSpec, CanonicalRoundTrip) {
  auto parsed = parse_scenario(kFullSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const std::string canonical = to_text(parsed.value());
  auto reparsed = parse_scenario(canonical);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(to_text(reparsed.value()), canonical);
}

TEST(ScenarioSpec, DefaultsRoundTrip) {
  Scenario s;
  s.hosts.push_back(HostClass{});
  s.hosts.back().name = "plain";
  const std::string canonical = to_text(s);
  auto reparsed = parse_scenario(canonical);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(to_text(reparsed.value()), canonical);
}

TEST(ScenarioSpec, PresetsResolve) {
  Scenario s;
  s.hosts.push_back(HostClass{});
  s.hosts.back().link = "modem-56k";
  LinkProfile p;
  ASSERT_TRUE(resolve_link(s, "modem-56k", &p));
  EXPECT_DOUBLE_EQ(p.link.bits_per_second, 56'000.0);
  EXPECT_FALSE(p.faulty());
  ASSERT_TRUE(resolve_link(s, "modern-wan", &p));
  EXPECT_GT(p.link.bits_per_second, 1e6);
  EXPECT_FALSE(resolve_link(s, "no-such-link", &p));
}

struct BadSpec {
  const char* text;
  const char* want;  // substring of the one-line error
};

TEST(ScenarioSpec, MalformedSpecsFailWithLineNumbers) {
  const std::vector<BadSpec> cases = {
      {"general:\n\tduration: 5s\nhosts:\n  a:\n", "line 2: tabs"},
      {"general:\n   duration: 5s\n", "line 2: indentation"},
      {"bogus:\n", "line 1: unknown section"},
      {"  key: value\n", "line 1: key before any section"},
      {"general:\n  duration: soon\nhosts:\n  a:\n", "line 2: bad duration"},
      {"general:\n  duration: 0s\nhosts:\n  a:\n", "line 2: bad duration"},
      {"general:\n  cadence: 5s\n", "line 2: unknown general key"},
      {"server:\n  shards: 0\n", "line 2: shards must be"},
      {"server:\n  shards: 65\n", "line 2: shards must be"},
      {"server:\n  eviction: random\n", "line 2: eviction must be"},
      {"links:\n  l: preset\n", "must be a section"},
      {"links:\n  l:\n    base: nope\n", "line 3: unknown base preset"},
      {"links:\n  l:\n    loss: 1.5\n", "line 3: loss must be"},
      {"links:\n  l:\n  l:\n", "line 3: duplicate link profile"},
      {"hosts:\n  h:\n    quantity: 0\n", "line 3: quantity must be"},
      {"hosts:\n  h:\n    workload: lazy\n", "line 3: workload must be"},
      {"hosts:\n  h:\n    submit_p: 2\n", "line 3: submit_p must be"},
      {"hosts:\n  h:\n  h:\n", "line 3: duplicate host class"},
      {"general:\n  duration: 5s\n", "no host classes"},
      {"hosts:\n  h:\n    link: mars\n", "unknown link 'mars'"},
      {"general:\nnoise\n", "line 2: expected 'key: value'"},
  };
  for (const auto& c : cases) {
    auto parsed = parse_scenario(c.text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << c.text;
    const std::string& msg = parsed.error().message;
    EXPECT_NE(msg.find(c.want), std::string::npos)
        << "error '" << msg << "' lacks '" << c.want << "'";
    EXPECT_EQ(msg.find('\n'), std::string::npos)
        << "error is not one line: " << msg;
  }
}

// ---- CLI exit codes ---------------------------------------------------

int run_cli(std::vector<std::string> args, std::string* err_text = nullptr) {
  std::vector<char*> argv;
  std::string prog = "shadowsim";
  argv.push_back(prog.data());
  for (auto& a : args) argv.push_back(a.data());
  std::FILE* out = std::tmpfile();
  std::FILE* err = std::tmpfile();
  const int rc = run_shadowsim(static_cast<int>(argv.size()), argv.data(),
                               out, err);
  if (err_text != nullptr) {
    std::rewind(err);
    err_text->clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), err)) > 0) {
      err_text->append(buf, n);
    }
  }
  std::fclose(out);
  std::fclose(err);
  return rc;
}

std::string write_temp_spec(const std::string& text) {
  const std::string path =
      testing::TempDir() + "/scenario_test_" +
      std::to_string(reinterpret_cast<uintptr_t>(&text)) + ".scn";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return path;
}

TEST(ScenarioCli, NoArgsIsUsageError) { EXPECT_EQ(run_cli({}), 2); }

TEST(ScenarioCli, MissingFileIsExit2) {
  std::string err;
  EXPECT_EQ(run_cli({"/no/such/file.scn"}, &err), 2);
  EXPECT_NE(err.find("cannot read"), std::string::npos);
}

TEST(ScenarioCli, MalformedSpecIsOneLineExit2) {
  const std::string path = write_temp_spec("general:\n  duration: soon\n");
  std::string err;
  EXPECT_EQ(run_cli({path}, &err), 2);
  EXPECT_NE(err.find("line 2"), std::string::npos);
  // One line: exactly one trailing newline.
  EXPECT_EQ(err.find('\n'), err.size() - 1);
  std::remove(path.c_str());
}

TEST(ScenarioCli, UnknownOptionIsExit2) {
  std::string err;
  EXPECT_EQ(run_cli({"--frobnicate"}, &err), 2);
  EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST(ScenarioCli, BuiltinSelftestPasses) {
  shadow::Logger::instance().set_level(shadow::LogLevel::kError);
  EXPECT_EQ(run_cli({"--selftest"}), 0);
}

// ---- determinism ------------------------------------------------------

/// A small but representative population: two shards, group commit, a
/// lossy link, all three workloads.
constexpr char kDeterminismSpec[] = R"(general:
  name: determinism
  duration: 15s
  seed: 5
server:
  shards: 2
  journal: on
  max_active_jobs: 12
links:
  flaky:
    base: modem-56k
    loss: 0.005
hosts:
  crowd:
    quantity: 8
    link: modem-56k
    workload: flash_crowd
    file_size: 6KB
    burst: 3s
  editors:
    quantity: 4
    link: flaky
    workload: heavy_editor
    think: 3s
    file_size: 8KB
  idlers:
    quantity: 4
    link: modern-wan
    workload: casual
    think: 6s
    submit_p: 0.5
)";

TEST(ScenarioRun, SameSeedIsByteIdentical) {
  shadow::Logger::instance().set_level(shadow::LogLevel::kError);
  auto parsed = parse_scenario(kDeterminismSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;

  auto first = ScenarioRunner(parsed.value()).run();
  ASSERT_TRUE(first.ok()) << first.error().message;
  auto second = ScenarioRunner(parsed.value()).run();
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(to_json(first.value()), to_json(second.value()));
  EXPECT_EQ(to_text(first.value()), to_text(second.value()));

  // The run did real work.
  EXPECT_EQ(first.value().population, 16u);
  EXPECT_GT(first.value().submitted, 0u);
  EXPECT_GT(first.value().completed, 0u);
  EXPECT_GT(first.value().payload_bytes, 0u);
}

TEST(ScenarioRun, DifferentSeedsDiverge) {
  shadow::Logger::instance().set_level(shadow::LogLevel::kError);
  auto parsed = parse_scenario(kDeterminismSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;

  Scenario other = parsed.value();
  other.seed = 6;
  auto a = ScenarioRunner(parsed.value()).run();
  auto b = ScenarioRunner(other).run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(to_json(a.value()), to_json(b.value()));
}

TEST(ScenarioRun, BinaryPopulationRidesTheCdcCodecDeterministically) {
  shadow::Logger::instance().set_level(shadow::LogLevel::kError);
  constexpr char kSpec[] = R"(
general:
  duration: 25s
  seed: 11
hosts:
  blobs:
    quantity: 6
    link: modern-wan
    workload: heavy_editor
    file_size: 96KB
    edit_percent: 2
    binary: on
    think: 4s
    burst: 2s
)";
  auto parsed = parse_scenario(kSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  auto first = ScenarioRunner(parsed.value()).run();
  ASSERT_TRUE(first.ok()) << first.error().message;
  auto second = ScenarioRunner(parsed.value()).run();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(to_json(first.value()), to_json(second.value()));

  // Big binary files cross over to the CDC codec; jobs still complete,
  // proving the server can stage digest-tracked files into sandboxes.
  EXPECT_GT(first.value().cdc_transfers, 0u);
  EXPECT_GT(first.value().completed, 0u);
  EXPECT_GT(first.value().edits, 0u);
}

TEST(ScenarioRun, ClassReportsCoverEveryClass) {
  shadow::Logger::instance().set_level(shadow::LogLevel::kError);
  auto parsed = parse_scenario(kDeterminismSpec);
  ASSERT_TRUE(parsed.ok());
  auto report = ScenarioRunner(parsed.value()).run();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().classes.size(), 3u);
  EXPECT_EQ(report.value().classes[0].name, "crowd");
  EXPECT_EQ(report.value().classes[0].clients, 8u);
  EXPECT_EQ(report.value().classes[1].name, "editors");
  EXPECT_EQ(report.value().classes[2].name, "idlers");
}

}  // namespace
}  // namespace shadow::scenario
