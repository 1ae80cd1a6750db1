// Crash-point injection harness: one mixed edit+submit workload run over a
// fault-injected storage directory (persist::FaultFs over a MemDir), with
// the server journaling every durable mutation before it acknowledges.
// The storage is killed at an exact write point, the disk keeps only what
// a real power cut would keep, and a fresh server recovers from it. The
// matrix in tests/crash_matrix_test.cpp sweeps EVERY write point of the
// workload and asserts:
//
//   * recovery is always clean (a damaged tail is truncated, not fatal);
//   * every version/job the server acknowledged before the crash is still
//     there afterwards — byte-identical content, never an approximation;
//   * after reconnect + resync the system converges to the same final
//     state as a run that never crashed (the crash_at_write = 0 oracle).
//
// Shared between the test suite and tools/wal_main.cpp's --selftest.
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace shadow::core {

struct CrashOptions {
  u64 seed = 1;
  int edits = 8;
  /// Every Nth edit round also creates an immutable data file and submits
  /// a sort job over it (immutable inputs keep job outputs deterministic
  /// across crash points).
  int submit_every = 3;
  std::size_t file_bytes = 1'500;
  double edit_percent = 6.0;
  /// Journal appends between compactions — small, so the matrix crosses
  /// several snapshot+truncate cycles and their crash windows.
  u64 compact_every = 6;
  u64 max_job_retries = 3;

  // --- how the storage dies ------------------------------------------
  /// Bytes of the dying append that still reach the disk (torn write).
  std::size_t torn_keep = 0;
  /// From this write index on, fsync lies (says OK, syncs nothing).
  /// Acked-durability cannot hold under a lying disk, so the matrix
  /// downgrades to convergence-only assertions. 0 = honest disk.
  u64 lying_fsync_after = 0;
  /// Fraction of unsynced bytes the power cut leaves behind (0 = strict).
  double keep_unsynced_fraction = 0.0;
  /// Flip one seeded bit in the kept unsynced tail (damaged-tail case).
  bool flip_bit_in_kept_tail = false;
  /// Restart from an empty disk instead of the crashed one — the
  /// no-durability baseline (everything degrades to full transfers).
  bool wipe_disk_before_restart = false;

  // --- group commit (docs/DURABILITY.md) ------------------------------
  /// Concurrent editing clients. Writer 0 keeps the classic "ws" name and
  /// owns the submit workload; writers 1.. edit their own files, so a
  /// batch holds records whose acks belong to DIFFERENT connections and a
  /// mid-batch crash strands some of every writer's promises.
  int writers = 1;
  /// Seal cap handed to the server's store. 1 fsyncs every record inline
  /// (the sync-per-record reference); larger caps batch whatever one
  /// settle round stages. The trial drives every flush point explicitly
  /// (never the wall clock), so the write-point schedule stays
  /// deterministic in (options, crash_at).
  u64 commit_max_batch_records = 128;
  /// Count sync() calls as crash points too (FaultFs), so a sweep can kill
  /// the storage BETWEEN a batch's appends and its fsync, or at the fsync
  /// itself — the group-commit crash windows that do not exist per-record.
  bool count_syncs_as_write_points = false;
};

struct CrashOutcome {
  /// Post-restart workload completed: every job's output arrived and the
  /// final edit reached the server.
  bool converged = false;
  /// recover_from_storage() returned OK (it must, whatever the damage).
  bool clean_recovery = false;
  /// Every acked version/job survived the crash with identical bytes.
  /// Trivially true when the trial skipped the check (lying fsync).
  bool acked_survived = true;
  std::string detail;  // first failed expectation, for the reproducer

  u64 write_points = 0;  // storage writes the whole workload performed
  u64 crashed_at = 0;    // write index this trial died at (0 = none)

  // Pre-crash acked state, for reporting.
  u64 acked_versions_checked = 0;
  u64 acked_jobs_checked = 0;

  // Recovery shape.
  u64 recovered_records = 0;
  u64 requeued_jobs = 0;
  u64 retry_capped_jobs = 0;
  u64 discarded_tail_bytes = 0;  // torn journal bytes truncated
  bool snapshot_present = false;

  // Post-restart transfer economics (the durability payoff: a recovered
  // cache lets the next edit ship a delta instead of the full file).
  u64 post_restart_full = 0;
  u64 post_restart_delta = 0;

  // Final state, compared against the no-crash oracle.
  std::string final_content;  // writer 0's last edit of its hot file
  std::string server_cached;  // server cache content for that file
  std::vector<std::string> job_outputs;  // one per submitted job, in order

  // Per-writer final/cached content (index 0 mirrors the scalars above).
  std::vector<std::string> writer_final;
  std::vector<std::string> writer_cached;
};

/// Run one trial, killing the storage at `crash_at_write` (1-based; 0 =
/// never — the oracle run, which still restarts the server so both sides
/// of the comparison walk the same code path). Deterministic in
/// (options, crash_at_write).
CrashOutcome run_crash_trial(const CrashOptions& options, u64 crash_at_write);

}  // namespace shadow::core
