// The server's durability engine: an append-only CRC-framed journal plus
// an atomically replaced snapshot, over any StorageDir. The contract the
// crash matrix enforces:
//
//   * append_deferred() is the one write path: it writes the record
//     immediately but defers the durability promise. The commit callback
//     fires (with OK) only after a later flush() has fsynced the whole
//     batch, or (with the error) when that fsync fails — in which case
//     EVERY callback in the batch fails together, never a partial
//     release — and from then on every append fails fast (fail-stop);
//   * compact() writes the snapshot atomically BEFORE truncating the
//     journal, so a crash between the two leaves snapshot + stale journal,
//     which replays idempotently;
//   * recover() reads whatever the crash left: a missing or corrupt
//     snapshot degrades to empty state, and a torn or bit-flipped journal
//     tail is truncated, never trusted — damage is recovered from, not
//     reported as an error.
//
// Group commit (docs/DURABILITY.md): records from many connections
// accumulate in one open batch; flush() fsyncs it once and releases its
// callbacks together in append order. The owner flushes once per
// event-loop pass; the batch also seals itself at either cap, so
// max_batch_records == 1 is the sync-per-record reference, its callback
// resolved before append_deferred() returns. append() is that path
// followed by flush(), for callers that want one fsync per record.
//
// Threading: owner-thread-only; the store has no thread of its own.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "persist/storage.hpp"
#include "persist/wal.hpp"

namespace shadow::persist {

struct RecoveredState {
  /// Unwrapped snapshot payload; empty when no usable snapshot exists.
  Bytes snapshot;
  /// Intact journal records appended after that snapshot, in order.
  std::vector<JournalRecord> records;
  bool snapshot_present = false;  // a snapshot file existed
  bool snapshot_corrupt = false;  // ...but failed its CRC (state dropped)
  bool journal_torn = false;      // trailing journal damage was discarded
  u64 discarded_bytes = 0;        // journal bytes beyond the valid prefix
  std::string detail;             // human-readable damage description
};

struct DurableStoreStats {
  u64 appends = 0;
  u64 append_bytes = 0;
  u64 compactions = 0;
  u64 recoveries = 0;
  u64 group_records = 0;         // records accepted into the deferred path
  u64 group_flushes = 0;         // batches released (one fsync each)
  u64 group_flush_failures = 0;  // batches whose fsync failed (all acks fail)
};

/// When the deferred-append path seals a batch on its own (the store never
/// sleeps: otherwise it flushes when its owner says so).
struct GroupCommitConfig {
  /// Seal the open batch once it holds this many records (1 = fsync per
  /// record)...
  u64 max_batch_records = 128;
  /// ...or this many framed bytes, whichever comes first.
  u64 max_batch_bytes = 1u << 20;
};

class DurableStore {
 public:
  /// Runs when a deferred record's batch is resolved: OK after the fsync
  /// covering it returned, the sync error if the batch was lost.
  using CommitFn = std::function<void(const Status&)>;

  /// `dir` must outlive the store. `compact_every` is the number of
  /// journal appends after which compaction_due() turns true.
  explicit DurableStore(StorageDir* dir, u64 compact_every = 64);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// append_deferred() with no callback, then flush(): OK only once the
  /// record (and the batch it joined) is fsynced. On any failure the
  /// record must be considered NOT durable (do not acknowledge).
  Status append(RecordType type, const Bytes& body);

  /// Set the seal caps. Call before the first append_deferred().
  void set_group_commit(GroupCommitConfig config);

  /// Group-commit append: frame + CRC + write the record now, fsync
  /// later. `on_durable` fires exactly once — from the flush() that
  /// covers it (inline when the record fills a cap), or inline with the
  /// error when the store has already failed. The returned Status reports
  /// only the WRITE; durability itself is the callback's verdict.
  Status append_deferred(RecordType type, const Bytes& body,
                         CommitFn on_durable);

  /// Seal and sync the open batch, releasing every callback in append
  /// order with the fsync's status. No-op when nothing is staged.
  Status flush();

  /// Discard pending callbacks WITHOUT invoking them. For owner teardown
  /// when the callback targets (connections, the server) are already
  /// gone; the records themselves stay written and replay on recovery if
  /// their fsync happened.
  void drop_pending();

  /// Records written but not yet resolved.
  u64 pending_records() const { return staged_acks_.size(); }
  /// First flush/append failure on the deferred path; every later
  /// deferred append fails fast with it. OK while healthy.
  Status group_error() const { return group_error_; }

  /// Read snapshot + journal as left by the last run (or crash). Errors
  /// are reserved for the storage itself failing to read; damaged
  /// contents come back as a degraded-but-clean RecoveredState.
  Result<RecoveredState> recover();

  /// Snapshot-then-truncate. `state` is the application snapshot blob.
  /// This first flushes the open batch, so no callback can straddle the
  /// journal truncation.
  Status compact(const Bytes& state);

  bool compaction_due() const {
    return appends_since_compact_ >= compact_every_;
  }
  u64 compact_every() const { return compact_every_; }
  const DurableStoreStats& stats() const { return stats_; }

  static constexpr const char* kJournalName = "journal.wal";
  static constexpr const char* kSnapshotName = "snapshot.bin";

 private:
  /// Open/extend the journal with one already-framed record (writing the
  /// header first when the file is empty) and do the per-append
  /// bookkeeping. Does NOT sync.
  Status write_framed(const Bytes& framed);
  /// Storage failed: release every staged callback with `st` (the
  /// no-partial-release rule extends to records behind the batch).
  void fail_all_pending(const Status& st);

  StorageDir* dir_;
  u64 compact_every_;
  u64 appends_since_compact_ = 0;
  std::unique_ptr<StorageFile> journal_;
  DurableStoreStats stats_;

  // ---- group commit ----
  GroupCommitConfig group_;
  Status group_error_;
  std::vector<CommitFn> staged_acks_;  // open batch, append order
  u64 staged_bytes_ = 0;
};

}  // namespace shadow::persist
