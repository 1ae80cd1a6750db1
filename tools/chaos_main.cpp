// chaos — command-line reproducer for the seeded chaos property suite.
//
//   chaos --seed N [--algo hm|myers|block-move] [--flow demand|request]
//         [--raw] [--trials K] [--edits N] [--bytes N] [--verbose]
//
// Runs the same edit→submit→retrieve trial as tests/chaos_test.cpp: first
// fault-free (the conformance oracle), then under the fault schedules
// derived from the seed, and diffs the results. Exit 0 when the chaotic
// run converges byte-identical to the oracle; 1 otherwise. With --trials K
// it sweeps seeds N..N+K-1 and reports the first divergence.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/chaos.hpp"
#include "util/logging.hpp"

using namespace shadow;

namespace {

void print_stats(const char* label, const core::ChaosOutcome& outcome) {
  std::printf(
      "  %-8s converged=%d full=%llu delta=%llu repulls=%llu "
      "resyncs=%llu/%llu faults=%llu/%llu retransmits=%llu/%llu\n",
      label, outcome.converged ? 1 : 0,
      static_cast<unsigned long long>(outcome.server.full_transfers),
      static_cast<unsigned long long>(outcome.server.delta_transfers),
      static_cast<unsigned long long>(outcome.server.full_repulls),
      static_cast<unsigned long long>(outcome.client_resyncs),
      static_cast<unsigned long long>(outcome.server.session_resyncs),
      static_cast<unsigned long long>(outcome.to_server_faults.injected()),
      static_cast<unsigned long long>(outcome.to_client_faults.injected()),
      static_cast<unsigned long long>(outcome.client_session.retransmits),
      static_cast<unsigned long long>(outcome.server_session.retransmits));
}

/// One seed: oracle vs chaotic run. Returns true on conformance.
bool run_seed(core::ChaosOptions options, bool scripted) {
  std::printf("seed %llu (%s, %s, %s)\n",
              static_cast<unsigned long long>(options.seed),
              diff::algorithm_name(options.algorithm),
              client::flow_mode_name(options.flow),
              options.reliable_session ? "reliable" : "raw");

  core::ChaosOptions clean = options;
  clean.client_to_server = net::FaultPlan{};
  clean.server_to_client = net::FaultPlan{};
  const auto oracle = core::run_chaos_trial(clean);
  print_stats("oracle", oracle);
  if (!oracle.converged) {
    std::printf("  FAIL: fault-free run did not converge: %s\n",
                oracle.detail.c_str());
    return false;
  }

  if (!scripted) {
    options.client_to_server = core::random_fault_plan(options.seed * 2 + 1);
    options.server_to_client = core::random_fault_plan(options.seed * 2 + 2);
  }
  const auto chaotic = core::run_chaos_trial(options);
  print_stats("chaotic", chaotic);
  if (!chaotic.converged) {
    std::printf("  FAIL: chaotic run did not converge: %s\n",
                chaotic.detail.c_str());
    return false;
  }

  bool ok = true;
  auto compare = [&](const char* what, const std::string& got,
                     const std::string& want) {
    if (got == want) return;
    ok = false;
    std::printf("  FAIL: %s diverged (%zu bytes vs oracle's %zu)\n", what,
                got.size(), want.size());
  };
  compare("final content", chaotic.final_content, oracle.final_content);
  compare("server cache", chaotic.server_cached, oracle.server_cached);
  compare("job output", chaotic.job_output, oracle.job_output);
  if (ok) std::printf("  PASS: byte-identical to the fault-free run\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  core::ChaosOptions options;
  u64 trials = 1;
  bool scripted_corrupt = false;
  Logger::instance().set_level(LogLevel::kError);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      if (const char* v = next()) options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--algo") {
      const char* v = next();
      if (v != nullptr) {
        auto algo = diff::algorithm_from_name(v);
        if (!algo.ok()) {
          std::fprintf(stderr, "unknown algorithm: %s\n", v);
          return 2;
        }
        options.algorithm = algo.value();
      }
    } else if (arg == "--flow") {
      const char* v = next();
      if (v != nullptr && std::strcmp(v, "request") == 0) {
        options.flow = client::FlowMode::kRequestDriven;
      } else if (v != nullptr && std::strcmp(v, "demand") == 0) {
        options.flow = client::FlowMode::kDemandDriven;
      } else {
        std::fprintf(stderr, "unknown flow mode: %s\n", v ? v : "(none)");
        return 2;
      }
    } else if (arg == "--raw") {
      options.reliable_session = false;
    } else if (arg == "--corrupt-at") {
      // Surgical schedule: corrupt exactly one client→server message's
      // payload (as ChaosDesync.CorruptedDeltaPayloadFallsBackToFullTransfer
      // does), instead of the seed-derived random plans.
      if (const char* v = next()) {
        scripted_corrupt = true;
        options.client_to_server.corrupt_payload_only = true;
        options.client_to_server.script = {
            {std::strtoull(v, nullptr, 10), net::FaultKind::kCorrupt}};
      }
    } else if (arg == "--trials") {
      if (const char* v = next()) trials = std::strtoull(v, nullptr, 10);
    } else if (arg == "--edits") {
      if (const char* v = next()) options.edits = std::atoi(v);
    } else if (arg == "--bytes") {
      if (const char* v = next()) {
        options.file_bytes = std::strtoull(v, nullptr, 10);
      }
    } else if (arg == "--verbose") {
      Logger::instance().set_level(LogLevel::kDebug);
    } else if (arg == "--help") {
      std::printf(
          "usage: chaos --seed N [--algo hm|myers|block-move] "
          "[--flow demand|request] [--raw] [--corrupt-at N] [--trials K] "
          "[--edits N] [--bytes N] [--verbose]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  u64 failures = 0;
  for (u64 t = 0; t < trials; ++t) {
    core::ChaosOptions trial = options;
    trial.seed = options.seed + t;
    if (!run_seed(trial, scripted_corrupt)) ++failures;
  }
  if (trials > 1) {
    std::printf("%llu/%llu seeds conform\n",
                static_cast<unsigned long long>(trials - failures),
                static_cast<unsigned long long>(trials));
  }
  return failures == 0 ? 0 : 1;
}
