#include "persist/durable_store.hpp"

#include <chrono>

#include "telemetry/registry.hpp"
#include "util/logging.hpp"

namespace shadow::persist {

namespace {
// Durability telemetry summed over every DurableStore (per-store numbers
// stay in DurableStoreStats). persist.fsyncs counts successful sync()
// returns; persist.append_failures counts append_deferred() calls whose
// write was refused (the record is NOT durable and must not be acked).
//
// Group-commit accounting keeps one identity the telemetry suite asserts:
//   group_records == group_flushed_records + group_failed_records
//                    + pending_records()     (at any quiesce point)
// and group_flushes <= group_records (a flush covers at least one record).
struct PersistMetrics {
  telemetry::Counter& appends;
  telemetry::Counter& append_bytes;
  telemetry::Counter& append_failures;
  telemetry::Counter& fsyncs;
  telemetry::Counter& compactions;
  telemetry::Counter& recoveries;
  telemetry::Counter& replayed_records;
  telemetry::Counter& torn_tails;
  telemetry::Counter& corrupt_snapshots;
  telemetry::Counter& group_records;
  telemetry::Counter& group_flushed_records;
  telemetry::Counter& group_failed_records;
  telemetry::Counter& group_flushes;
  telemetry::Counter& group_flush_failures;
  telemetry::Histogram& record_bytes;
  telemetry::Histogram& group_batch_records;
  telemetry::Histogram& group_batch_bytes;
  telemetry::Histogram& group_flush_micros;

  static PersistMetrics& get() {
    auto& r = telemetry::Registry::global();
    static PersistMetrics m{r.counter("persist.appends"),
                            r.counter("persist.append_bytes"),
                            r.counter("persist.append_failures"),
                            r.counter("persist.fsyncs"),
                            r.counter("persist.compactions"),
                            r.counter("persist.recoveries"),
                            r.counter("persist.replayed_records"),
                            r.counter("persist.torn_tails"),
                            r.counter("persist.corrupt_snapshots"),
                            r.counter("persist.group_records"),
                            r.counter("persist.group_flushed_records"),
                            r.counter("persist.group_failed_records"),
                            r.counter("persist.group_flushes"),
                            r.counter("persist.group_flush_failures"),
                            r.histogram("persist.record_bytes"),
                            r.histogram("persist.group_batch_records"),
                            r.histogram("persist.group_batch_bytes"),
                            r.histogram("persist.group_flush_micros")};
    return m;
  }
};

u64 steady_micros() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

DurableStore::DurableStore(StorageDir* dir, u64 compact_every)
    : dir_(dir), compact_every_(compact_every == 0 ? 1 : compact_every) {}

void DurableStore::set_group_commit(GroupCommitConfig config) {
  if (config.max_batch_records == 0) config.max_batch_records = 1;
  if (config.max_batch_bytes == 0) config.max_batch_bytes = 1;
  group_ = config;
}

Status DurableStore::write_framed(const Bytes& framed) {
  PersistMetrics& metrics = PersistMetrics::get();
  if (journal_ == nullptr) {
    SHADOW_ASSIGN_OR_RETURN(file, dir_->open_append(kJournalName));
    journal_ = std::move(file);
  }
  // A fresh (or just-truncated-to-nothing) journal gets its header in the
  // same append as the first record: one write point, no headerless file.
  std::size_t written = framed.size();
  if (journal_->size() == 0) {
    BufWriter w;
    w.put_raw(journal_header());
    w.put_raw(framed);
    const Bytes with_header = w.take();
    written = with_header.size();
    SHADOW_TRY(journal_->append(with_header));
  } else {
    SHADOW_TRY(journal_->append(framed));
  }
  ++stats_.appends;
  stats_.append_bytes += written;
  metrics.appends.add();
  metrics.append_bytes.add(written);
  metrics.record_bytes.observe(written);
  ++appends_since_compact_;
  return Status();
}

Status DurableStore::append(RecordType type, const Bytes& body) {
  SHADOW_TRY(append_deferred(type, body, nullptr));
  return flush();
}

Status DurableStore::append_deferred(RecordType type, const Bytes& body,
                                     CommitFn on_durable) {
  PersistMetrics& metrics = PersistMetrics::get();
  if (!group_error_.ok()) {
    // The storage already lost a batch; fail fast instead of queueing
    // records behind a broken disk.
    metrics.append_failures.add();
    Status st = group_error_;
    if (on_durable) on_durable(st);
    return st;
  }
  const Bytes framed = frame_record(type, body);
  Status st = write_framed(framed);
  if (!st.ok()) {
    // The write itself was refused: this record never joined the batch,
    // and the batch behind it is now doomed too — fail everything.
    metrics.append_failures.add();
    group_error_ = st;
    if (on_durable) on_durable(st);
    fail_all_pending(st);
    return st;
  }
  ++stats_.group_records;
  metrics.group_records.add();
  staged_bytes_ += framed.size();
  staged_acks_.push_back(std::move(on_durable));
  if (staged_acks_.size() >= group_.max_batch_records ||
      staged_bytes_ >= group_.max_batch_bytes) {
    return flush();
  }
  return Status();
}

void DurableStore::fail_all_pending(const Status& st) {
  auto staged = std::move(staged_acks_);
  staged_acks_.clear();
  staged_bytes_ = 0;
  if (staged.empty()) return;
  PersistMetrics::get().group_failed_records.add(staged.size());
  for (auto& ack : staged) {
    if (ack) ack(st);
  }
}

Status DurableStore::flush() {
  if (staged_acks_.empty()) return Status();
  PersistMetrics& metrics = PersistMetrics::get();
  const u64 t0 = steady_micros();
  const Status st = journal_->sync();
  auto acks = std::move(staged_acks_);
  staged_acks_.clear();
  ++stats_.group_flushes;
  metrics.group_flushes.add();
  metrics.group_batch_records.observe(acks.size());
  metrics.group_batch_bytes.observe(staged_bytes_);
  metrics.group_flush_micros.observe(steady_micros() - t0);
  staged_bytes_ = 0;
  if (st.ok()) {
    metrics.fsyncs.add();
    metrics.group_flushed_records.add(acks.size());
  } else {
    // The fsync failed: NONE of the batch is durable. Every callback
    // gets the error — releasing any subset as OK would ack mutations a
    // recovering server may not have.
    ++stats_.group_flush_failures;
    metrics.group_flush_failures.add();
    metrics.group_failed_records.add(acks.size());
    group_error_ = st;
    SHADOW_WARN() << "persist: group flush failed, " << acks.size()
                  << " pending acks refused: " << st.to_string();
  }
  for (auto& ack : acks) {
    if (ack) ack(st);
  }
  return st;
}

void DurableStore::drop_pending() {
  staged_acks_.clear();
  staged_bytes_ = 0;
}

Result<RecoveredState> DurableStore::recover() {
  RecoveredState out;
  ++stats_.recoveries;
  PersistMetrics& metrics = PersistMetrics::get();
  metrics.recoveries.add();

  if (dir_->exists(kSnapshotName)) {
    out.snapshot_present = true;
    SHADOW_ASSIGN_OR_RETURN(raw, dir_->read(kSnapshotName));
    auto unwrapped = unwrap_snapshot(raw);
    if (unwrapped.ok()) {
      out.snapshot = std::move(unwrapped).take();
    } else {
      // Atomic replacement means this "cannot happen" — but disks flip
      // bits, so a damaged snapshot degrades to journal-only recovery
      // instead of refusing to start.
      out.snapshot_corrupt = true;
      metrics.corrupt_snapshots.add();
      out.detail = "snapshot discarded: " + unwrapped.error().to_string();
      SHADOW_WARN() << "persist: " << out.detail;
    }
  }

  if (dir_->exists(kJournalName)) {
    SHADOW_ASSIGN_OR_RETURN(raw, dir_->read(kJournalName));
    JournalScan scan = scan_journal(raw);
    out.records = std::move(scan.records);
    out.journal_torn = scan.torn;
    out.discarded_bytes = scan.total_bytes - scan.valid_bytes;
    metrics.replayed_records.add(out.records.size());
    if (scan.torn) {
      metrics.torn_tails.add();
      if (!out.detail.empty()) out.detail += "; ";
      out.detail += "journal tail discarded (" +
                    std::to_string(out.discarded_bytes) +
                    " bytes): " + scan.tail_detail;
      SHADOW_WARN() << "persist: " << out.detail;
    }
  }
  return out;
}

Status DurableStore::compact(const Bytes& state) {
  // No callback may straddle the truncation.
  SHADOW_TRY(flush());
  if (!group_error_.ok()) return group_error_;
  // Order is the whole game: make the snapshot durable FIRST. A crash
  // after the snapshot but before the truncate leaves old journal records
  // alongside the new snapshot; replaying them is idempotent. The reverse
  // order would have a crash window that loses every journaled mutation.
  SHADOW_TRY(dir_->write_atomic(kSnapshotName, wrap_snapshot(state)));
  journal_.reset();  // the handle is stale once the file is replaced
  SHADOW_TRY(dir_->write_atomic(kJournalName, journal_header()));
  appends_since_compact_ = 0;
  ++stats_.compactions;
  PersistMetrics::get().compactions.add();
  return Status();
}

}  // namespace shadow::persist
