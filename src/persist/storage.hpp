// Storage abstraction for the durability subsystem: a small append/read/
// fsync/atomic-rename surface over a flat directory of files — just enough
// for a write-ahead journal and an atomically replaced snapshot, and small
// enough that a fault-injecting decorator (fault_fs.hpp) can model every
// way a disk lies: a crash mid-write, a torn tail, an fsync that never
// reached the platter.
//
// Two backends: MemDir keeps the synced/unsynced distinction explicitly so
// tests can "crash" the disk and see exactly what a real kernel would have
// kept, and FsDir talks to the real filesystem for the daemon and tools.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/result.hpp"
#include "util/types.hpp"

namespace shadow::persist {

/// An open append-mode file handle. Appended bytes are durable only after
/// a successful sync() — exactly the contract a POSIX fd gives you.
class StorageFile {
 public:
  virtual ~StorageFile() = default;
  virtual Status append(const Bytes& data) = 0;
  virtual Status sync() = 0;
  /// Logical size: every byte appended so far (synced or not).
  virtual u64 size() const = 0;
};

/// A flat directory of named files. Names must not contain '/'.
class StorageDir {
 public:
  virtual ~StorageDir() = default;
  virtual Result<std::unique_ptr<StorageFile>> open_append(
      const std::string& name) = 0;
  /// Whole-file read; kNotFound when absent.
  virtual Result<Bytes> read(const std::string& name) = 0;
  virtual bool exists(const std::string& name) const = 0;
  /// Replace `name` with `data` atomically (temp write + fsync + rename):
  /// after a crash the file holds either the old or the new content in
  /// full, never a mixture.
  virtual Status write_atomic(const std::string& name, const Bytes& data) = 0;
  virtual Status remove(const std::string& name) = 0;
  virtual std::vector<std::string> list() const = 0;
};

/// In-memory backend with explicit durability semantics. Appends land in a
/// per-file `pending` buffer; sync() moves pending into `synced`;
/// write_atomic() is durable on return (the rename is a metadata op the
/// journal's crash model treats as atomic). crash() is the power cut:
/// synced bytes always survive, and the caller chooses how kindly the
/// page cache treated the unsynced tail.
///
/// Every operation takes an internal mutex, so a MemDir may be shared
/// between threads (a test inspecting it while a shard loop writes) the
/// way a real disk is.
class MemDir final : public StorageDir {
 public:
  MemDir() = default;

  Result<std::unique_ptr<StorageFile>> open_append(
      const std::string& name) override;
  Result<Bytes> read(const std::string& name) override;
  bool exists(const std::string& name) const override;
  Status write_atomic(const std::string& name, const Bytes& data) override;
  Status remove(const std::string& name) override;
  std::vector<std::string> list() const override;

  /// Power cut. Each file keeps its synced bytes plus the first
  /// `keep_unsynced_fraction` of its pending bytes (0 = strict disk: only
  /// fsynced data survives; 1 = lenient: everything written survives).
  /// With `flip_bit_in_kept_tail`, one seeded bit among the surviving
  /// UNSYNCED bytes is flipped — the classic damaged-tail scenario a
  /// journal replay must truncate, never trust.
  void crash(double keep_unsynced_fraction = 0.0,
             bool flip_bit_in_kept_tail = false, u64 seed = 1);

  /// Unsynced bytes across all files (diagnostics).
  u64 pending_bytes() const;

  // Internal surface used by the append handles (public so the handle
  // class does not need friendship).
  Status append_to(const std::string& name, const Bytes& data);
  Status sync_file(const std::string& name);
  u64 size_of(const std::string& name) const;

 private:
  struct MemFile {
    Bytes synced;
    Bytes pending;
  };
  mutable std::mutex mu_;
  std::map<std::string, MemFile> files_;
};

/// Real-filesystem backend rooted at a directory (created if absent).
class FsDir final : public StorageDir {
 public:
  explicit FsDir(std::string root);

  Result<std::unique_ptr<StorageFile>> open_append(
      const std::string& name) override;
  Result<Bytes> read(const std::string& name) override;
  bool exists(const std::string& name) const override;
  Status write_atomic(const std::string& name, const Bytes& data) override;
  Status remove(const std::string& name) override;
  std::vector<std::string> list() const override;

  const std::string& root() const { return root_; }

 private:
  std::string path_of(const std::string& name) const;
  std::string root_;
};

/// True when `name` is usable as a storage file name (non-empty, no path
/// separators, no traversal).
bool valid_storage_name(const std::string& name);

}  // namespace shadow::persist
