#include "scenario/cli.hpp"

#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace shadow::scenario {

namespace {

constexpr char kUsage[] =
    "usage: shadowsim SPEC [--json] [--seed N]\n"
    "       shadowsim --check SPEC\n"
    "       shadowsim --selftest [SPEC]\n"
    "\n"
    "Run a declarative population-scale scenario (docs/SCENARIOS.md) as\n"
    "one deterministic simulation and print the harvested report.\n"
    "\n"
    "  --json      machine-readable report (byte-identical for the same\n"
    "              spec and seed)\n"
    "  --seed N    override the spec's seed\n"
    "  --check     parse and canonically round-trip the spec without\n"
    "              running it (CI lint for the examples/ library)\n"
    "  --selftest  run the built-in (or given) scenario twice and verify\n"
    "              the two reports are byte-identical\n";

/// Small mixed population exercised by --selftest and CI: two shards, a
/// lossy link, every workload kind — broad coverage, seconds to run.
constexpr char kSelftestSpec[] =
    "general:\n"
    "  name: selftest\n"
    "  duration: 20s\n"
    "  seed: 7\n"
    "server:\n"
    "  shards: 2\n"
    "  journal: on\n"
    "  max_active_jobs: 16\n"
    "links:\n"
    "  flaky:\n"
    "    base: modem-56k\n"
    "    loss: 0.002\n"
    "hosts:\n"
    "  crowd:\n"
    "    quantity: 12\n"
    "    link: modem-56k\n"
    "    workload: flash_crowd\n"
    "    file_size: 8KB\n"
    "  editors:\n"
    "    quantity: 6\n"
    "    link: flaky\n"
    "    workload: heavy_editor\n"
    "    think: 4s\n"
    "    file_size: 12KB\n"
    "  lurkers:\n"
    "    quantity: 6\n"
    "    link: modern-wan\n"
    "    workload: casual\n"
    "    think: 8s\n"
    "    submit_p: 0.5\n";

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int run_once(const Scenario& scenario, bool json, std::FILE* out,
             std::FILE* err, std::string* json_copy) {
  ScenarioRunner runner(scenario);
  auto report = runner.run();
  if (!report.ok()) {
    std::fprintf(err, "shadowsim: %s\n", report.error().message.c_str());
    return 1;
  }
  const std::string rendered =
      json ? to_json(report.value()) : to_text(report.value());
  if (json_copy != nullptr) {
    *json_copy = to_json(report.value());
  } else {
    std::fputs(rendered.c_str(), out);
  }
  return 0;
}

int selftest(const Scenario& scenario, std::FILE* out, std::FILE* err) {
  // Round-trip the spec through its canonical text first.
  const std::string canonical = to_text(scenario);
  auto reparsed = parse_scenario(canonical);
  if (!reparsed.ok() || to_text(reparsed.value()) != canonical) {
    std::fprintf(err, "shadowsim: selftest FAILED: spec round-trip\n");
    return 1;
  }

  std::string first, second;
  if (run_once(scenario, true, out, err, &first) != 0) return 1;
  if (run_once(scenario, true, out, err, &second) != 0) return 1;
  if (first != second) {
    std::fprintf(err,
                 "shadowsim: selftest FAILED: two runs of the same spec "
                 "and seed differ\n");
    return 1;
  }
  std::fprintf(out,
               "shadowsim: selftest OK: %" PRIu64
               " clients, byte-identical reports\n",
               scenario.population());
  return 0;
}

}  // namespace

int run_shadowsim(int argc, char** argv, std::FILE* out, std::FILE* err) {
  std::string spec_path;
  bool json = false;
  bool self = false;
  bool check = false;
  bool have_seed = false;
  u64 seed = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, out);
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--selftest") {
      self = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--seed") {
      if (i + 1 >= argc) {
        std::fprintf(err, "shadowsim: --seed needs a value\n");
        return 2;
      }
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(err, "shadowsim: bad seed '%s'\n", argv[i]);
        return 2;
      }
      have_seed = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(err, "shadowsim: unknown option '%s'\n", arg.c_str());
      return 2;
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      std::fprintf(err, "shadowsim: more than one SPEC given\n");
      return 2;
    }
  }

  std::string text;
  if (!spec_path.empty()) {
    if (!read_file(spec_path, &text)) {
      std::fprintf(err, "shadowsim: cannot read '%s'\n", spec_path.c_str());
      return 2;
    }
  } else if (self) {
    text = kSelftestSpec;
  } else {
    std::fputs(kUsage, err);
    return 2;
  }

  auto parsed = parse_scenario(text);
  if (!parsed.ok()) {
    std::fprintf(err, "shadowsim: %s%s%s\n",
                 spec_path.empty() ? "" : spec_path.c_str(),
                 spec_path.empty() ? "" : ": ",
                 parsed.error().message.c_str());
    return 2;
  }
  Scenario scenario = std::move(parsed).take();
  if (have_seed) scenario.seed = seed;

  if (check) {
    const std::string canonical = to_text(scenario);
    auto reparsed = parse_scenario(canonical);
    if (!reparsed.ok() || to_text(reparsed.value()) != canonical) {
      std::fprintf(err, "shadowsim: %s: canonical round-trip failed\n",
                   spec_path.empty() ? "<builtin>" : spec_path.c_str());
      return 1;
    }
    std::fprintf(out, "shadowsim: %s: OK (%" PRIu64 " clients, %zu classes)\n",
                 spec_path.empty() ? "<builtin>" : spec_path.c_str(),
                 scenario.population(), scenario.hosts.size());
    return 0;
  }
  if (self) return selftest(scenario, out, err);
  return run_once(scenario, json, out, err, nullptr);
}

}  // namespace shadow::scenario
