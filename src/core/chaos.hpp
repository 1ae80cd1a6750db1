// Chaos harness: one edit→submit→retrieve workload run over a fault-
// injected link (net::FaultTransport on both directions), with a
// conformance oracle — the same seed under a transparent plan must produce
// byte-identical results. This is the executable form of the paper's
// robustness claim (§5.1): a flaky long-haul link degrades shadow transfers
// to full-file copies, never to wrong content.
//
// Shared between tests/chaos_test.cpp (the 50-seed property suite) and
// tools/chaos_main.cpp (the command-line reproducer for failing seeds).
#pragma once

#include <string>

#include "client/shadow_env.hpp"
#include "diff/delta.hpp"
#include "net/fault_transport.hpp"
#include "proto/session.hpp"
#include "server/shadow_server.hpp"
#include "util/types.hpp"

namespace shadow::core {

struct ChaosOptions {
  u64 seed = 1;
  diff::Algorithm algorithm = diff::Algorithm::kHuntMcIlroy;
  /// Run both ends over proto::ReliableChannel. Required for convergence
  /// under lossy plans; raw mode is only useful with surgical plans that
  /// keep the message envelope intact (e.g. corrupt_payload_only).
  bool reliable_session = true;
  /// Who drives transfers (the paper's demand-driven design by default).
  client::FlowMode flow = client::FlowMode::kDemandDriven;
  net::FaultPlan client_to_server;  // perturbs client→server messages
  net::FaultPlan server_to_client;  // perturbs server→client messages
  int edits = 6;
  std::size_t file_bytes = 4'000;
  double edit_percent = 5.0;
  /// Force every update onto the CDC chunk codec (crossover thresholds
  /// dropped to 1 byte). The server then tracks the file as digests only;
  /// the byte-identity oracle for such runs is job_output, since
  /// server_cached is empty for a digest entry by design.
  bool force_cdc = false;
  /// Poll/tick rounds before a quiesce attempt gives up.
  std::size_t quiesce_budget = 4'000;
};

struct ChaosOutcome {
  /// The workload ran to completion: traffic quiesced and the job's output
  /// arrived. False means messages were lost beyond recovery.
  bool converged = false;
  std::string detail;  // failure description when !converged

  std::string final_content;  // the client's last edit (expected content)
  std::string server_cached;  // server cache content at the end
  std::string job_output;     // retrieved job output file

  /// Server cache entry fingerprint for the workload file. With CDC the
  /// entry is digest-only (server_cached empty by design); byte identity
  /// is then proven by entry_crc == crc32(final_content) and
  /// described_bytes == final_content.size().
  bool server_entry_digest = false;
  u32 server_entry_crc = 0;
  u64 server_described_bytes = 0;

  server::ServerStats server;  // the server's counters at the end
  u64 cdc_sent = 0;         // client-side: updates shipped as chunk deltas
  u64 client_resyncs = 0;

  net::FaultStats to_server_faults;  // client→server direction
  net::FaultStats to_client_faults;  // server→client direction
  proto::ReliableChannel::Stats client_session;
  proto::ReliableChannel::Stats server_session;
};

/// Derive a random-but-reproducible fault plan from a seed: each fault
/// class is enabled with 50% probability at a modest rate, so schedules
/// range from clean to nasty but stay convergent (no disconnects).
net::FaultPlan random_fault_plan(u64 seed);

/// Run one trial. Deterministic in `options`.
ChaosOutcome run_chaos_trial(const ChaosOptions& options);

}  // namespace shadow::core
