#include "persist/fault_fs.hpp"

#include <algorithm>

namespace shadow::persist {

namespace {

class FaultStorageFile final : public StorageFile {
 public:
  FaultStorageFile(FaultFs* fs, std::unique_ptr<StorageFile> inner)
      : fs_(fs), inner_(std::move(inner)) {}

  Status append(const Bytes& data) override {
    return fs_->guarded_append(inner_.get(), data);
  }
  Status sync() override { return fs_->guarded_sync(inner_.get()); }
  u64 size() const override { return inner_->size(); }

 private:
  FaultFs* fs_;
  std::unique_ptr<StorageFile> inner_;
};

}  // namespace

Status FaultFs::dead_error() const {
  return Error{ErrorCode::kIoError, "storage crashed (fault injection)"};
}

bool FaultFs::count_write() {
  ++stats_.writes_seen;
  return plan_.crash_at_write != 0 &&
         stats_.writes_seen == plan_.crash_at_write;
}

Result<std::unique_ptr<StorageFile>> FaultFs::open_append(
    const std::string& name) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (dead_) {
      ++stats_.refused_ops;
      return dead_error().error();
    }
  }
  SHADOW_ASSIGN_OR_RETURN(inner, inner_->open_append(name));
  return std::unique_ptr<StorageFile>(
      new FaultStorageFile(this, std::move(inner)));
}

Status FaultFs::guarded_append(StorageFile* file, const Bytes& data) {
  // mu_ is held across the inner call too, so write-point numbering
  // stays a total order whichever thread appends or syncs.
  std::lock_guard<std::mutex> lk(mu_);
  if (dead_) {
    ++stats_.refused_ops;
    return dead_error();
  }
  if (count_write()) {
    // The process dies mid-write: only a prefix of this append reaches
    // the disk, and nothing after it ever will.
    dead_ = true;
    const std::size_t keep = std::min(plan_.torn_keep, data.size());
    if (keep > 0) {
      (void)file->append(Bytes(data.begin(),
                               data.begin() + static_cast<long>(keep)));
      stats_.torn_bytes += keep;
    }
    return dead_error();
  }
  return file->append(data);
}

Status FaultFs::guarded_sync(StorageFile* file) {
  std::lock_guard<std::mutex> lk(mu_);
  if (dead_) {
    ++stats_.refused_ops;
    return dead_error();
  }
  if (plan_.syncs_are_write_points && count_write()) {
    // Dying at the fsync: every byte appended since the last successful
    // sync stays in the page cache — the batch the caller was about to
    // acknowledge never became durable.
    dead_ = true;
    return dead_error();
  }
  if (plan_.lie_about_sync_after != 0 &&
      stats_.writes_seen >= plan_.lie_about_sync_after) {
    ++stats_.lied_syncs;
    return Status();  // "durable", says the disk
  }
  return file->sync();
}

Result<Bytes> FaultFs::read(const std::string& name) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (dead_) {
      ++stats_.refused_ops;
      return dead_error().error();
    }
  }
  return inner_->read(name);
}

bool FaultFs::exists(const std::string& name) const {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (dead_) return false;
  }
  return inner_->exists(name);
}

Status FaultFs::write_atomic(const std::string& name, const Bytes& data) {
  std::lock_guard<std::mutex> lk(mu_);
  if (dead_) {
    ++stats_.refused_ops;
    return dead_error();
  }
  if (count_write()) {
    // Dying inside write_atomic: the temp file may be torn but the rename
    // never happened, so the visible file keeps its old content.
    dead_ = true;
    return dead_error();
  }
  return inner_->write_atomic(name, data);
}

Status FaultFs::remove(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  if (dead_) {
    ++stats_.refused_ops;
    return dead_error();
  }
  if (count_write()) {
    dead_ = true;
    return dead_error();
  }
  return inner_->remove(name);
}

std::vector<std::string> FaultFs::list() const {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (dead_) return {};
  }
  return inner_->list();
}

}  // namespace shadow::persist
