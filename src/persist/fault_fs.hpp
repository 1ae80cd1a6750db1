// Fault injection for storage (the disk-side sibling of
// net::FaultTransport). FaultFs decorates any StorageDir and perturbs its
// MUTATING operations according to a plan: the process can "die" at
// exactly the Nth write (optionally leaving a torn prefix of that write on
// the disk), and fsync can silently lie from a chosen point on. Reads pass
// through untouched while the storage is alive — the crash-matrix harness
// recovers through the UNDECORATED inner directory, the way a restarted
// process reads the real disk.
//
// Write-point numbering is 1-based and counts append(), write_atomic()
// and remove() calls in order, which makes schedules exact: "crash at
// write 7" is the same operation in every run of a deterministic workload.
// With syncs_are_write_points, sync() calls join the same numbering, so a
// group-commit matrix can kill the process BETWEEN a batch's appends and
// its fsync, or at the fsync itself — a dying sync leaves every
// appended-but-unsynced byte in the page cache for MemDir::crash() to
// adjudicate.
//
// Thread safety: all state is guarded by one mutex, so a FaultFs may be
// shared between threads; the crash-trial determinism argument lives in
// core/crash.cpp.
#pragma once

#include <memory>
#include <mutex>

#include "persist/storage.hpp"

namespace shadow::persist {

struct StorageFaultPlan {
  /// Die at this mutating operation (1-based). 0 = never. The dying
  /// append applies only `torn_keep` bytes; a dying write_atomic or
  /// remove applies nothing (the rename never happened); a dying sync
  /// (syncs_are_write_points) syncs nothing. Every later operation fails
  /// with kIoError.
  u64 crash_at_write = 0;
  /// Bytes of the dying append that still reach the inner directory.
  std::size_t torn_keep = 0;
  /// From this mutating-op index on (1-based), sync() returns OK without
  /// syncing — the lost-fsync lie. 0 = never lie.
  u64 lie_about_sync_after = 0;
  /// Count sync() calls as write points too (default false keeps every
  /// pre-group-commit schedule numbering intact).
  bool syncs_are_write_points = false;
};

struct StorageFaultStats {
  u64 writes_seen = 0;   // mutating ops observed (incl. the dying one)
  u64 torn_bytes = 0;    // bytes of the dying write that reached the disk
  u64 lied_syncs = 0;    // syncs swallowed by the lie window
  u64 refused_ops = 0;   // operations failed because the storage is dead
};

class FaultFs final : public StorageDir {
 public:
  FaultFs(StorageDir* inner, StorageFaultPlan plan)
      : inner_(inner), plan_(plan) {}

  Result<std::unique_ptr<StorageFile>> open_append(
      const std::string& name) override;
  Result<Bytes> read(const std::string& name) override;
  bool exists(const std::string& name) const override;
  Status write_atomic(const std::string& name, const Bytes& data) override;
  Status remove(const std::string& name) override;
  std::vector<std::string> list() const override;

  bool dead() const {
    std::lock_guard<std::mutex> lk(mu_);
    return dead_;
  }
  u64 writes_seen() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_.writes_seen;
  }
  StorageFaultStats fault_stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

  // Used by the append handles (public to avoid friendship).
  Status guarded_append(StorageFile* file, const Bytes& data);
  Status guarded_sync(StorageFile* file);

 private:
  /// Count one mutating op; returns true when this op is the dying one.
  /// Caller holds mu_.
  bool count_write();
  Status dead_error() const;

  StorageDir* inner_;
  StorageFaultPlan plan_;
  mutable std::mutex mu_;  // guards stats_ and dead_
  StorageFaultStats stats_;
  bool dead_ = false;
};

}  // namespace shadow::persist
