#include "replay.hpp"

#include <filesystem>
#include <memory>

#include "cache/shadow_cache.hpp"
#include "cdc/signature.hpp"
#include "compress/compress.hpp"
#include "diff/delta.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "proc.hpp"
#include "proto/messages.hpp"
#include "util/crc32.hpp"

namespace shadowbench {

namespace {

using shadow::Bytes;
using shadow::Result;
using shadow::Status;
using shadow::persist::StorageDir;
using shadow::persist::StorageFile;

double us_since(shadow::i64 t0) { return static_cast<double>(now_ns() - t0) / 1e3; }

/// StorageFile decorator that times append() (framing lands in the stdio
/// buffer) apart from sync() (flush + fsync).
class TimingFile final : public StorageFile {
 public:
  TimingFile(std::unique_ptr<StorageFile> inner, ReplayTimings* out)
      : inner_(std::move(inner)), out_(out) {}
  Status append(const Bytes& data) override {
    const shadow::i64 t0 = now_ns();
    Status st = inner_->append(data);
    out_->write_us.push_back(us_since(t0));
    return st;
  }
  Status sync() override {
    const shadow::i64 t0 = now_ns();
    Status st = inner_->sync();
    out_->fsync_us.push_back(us_since(t0));
    return st;
  }
  shadow::u64 size() const override { return inner_->size(); }

 private:
  std::unique_ptr<StorageFile> inner_;
  ReplayTimings* out_;
};

class TimingDir final : public StorageDir {
 public:
  TimingDir(StorageDir* inner, ReplayTimings* out) : inner_(inner), out_(out) {}
  Result<std::unique_ptr<StorageFile>> open_append(
      const std::string& name) override {
    auto file = inner_->open_append(name);
    if (!file.ok()) return file.error();
    return std::unique_ptr<StorageFile>(
        new TimingFile(std::move(file).take(), out_));
  }
  Result<Bytes> read(const std::string& name) override { return inner_->read(name); }
  bool exists(const std::string& name) const override { return inner_->exists(name); }
  Status write_atomic(const std::string& name, const Bytes& data) override {
    return inner_->write_atomic(name, data);
  }
  Status remove(const std::string& name) override { return inner_->remove(name); }
  std::vector<std::string> list() const override { return inner_->list(); }

 private:
  StorageDir* inner_;
  ReplayTimings* out_;
};

}  // namespace

ReplayTimings replay_layers(const std::vector<CapturedUpdate>& updates,
                            const std::string& journal_dir) {
  ReplayTimings t;
  std::error_code ec;
  std::filesystem::remove_all(journal_dir, ec);
  shadow::persist::FsDir fs(journal_dir);
  TimingDir timing(&fs, &t);
  shadow::persist::DurableStore store(&timing);
  shadow::cache::ShadowCache cache;
  double crc_us = 0.0, crc_bytes = 0.0;

  for (const CapturedUpdate& captured : updates) {
    shadow::i64 t0 = now_ns();
    auto decoded = shadow::proto::decode_message(captured.frame);
    t.decode_us.push_back(us_since(t0));
    const auto* update =
        decoded.ok() ? std::get_if<shadow::proto::Update>(&decoded.value())
                     : nullptr;
    if (update == nullptr) {
      ++t.failures;
      continue;
    }

    t0 = now_ns();
    auto raw = shadow::compress::decompress(update->payload);
    t.decompress_us.push_back(us_since(t0));
    if (!raw.ok()) {
      ++t.failures;
      continue;
    }

    // The daemon's two ack paths: a CDC delta advances a digest-only
    // signature; every other delta is applied to the cached base bytes.
    shadow::BufReader peek(raw.value());
    auto format_probe = shadow::diff::Delta::decode(peek);
    if (!format_probe.ok()) {
      ++t.failures;
      continue;
    }
    const bool cdc =
        format_probe.value().format == shadow::diff::Delta::Format::kCdc;
    shadow::cdc::Signature base_sig;
    if (cdc) {
      base_sig.params = format_probe.value().cdc.params;
      if (!captured.base.empty()) {
        base_sig = shadow::cdc::signature_of(captured.base, base_sig.params);
      }
    }

    std::string content;
    shadow::cdc::Signature advanced;
    t0 = now_ns();
    shadow::BufReader reader(raw.value());
    auto delta = shadow::diff::Delta::decode(reader);
    bool applied = delta.ok();
    if (applied && cdc) {
      auto sig = delta.value().cdc.signature_after(base_sig);
      applied = sig.ok();
      if (applied) advanced = std::move(sig).take();
    } else if (applied) {
      auto out = delta.value().apply(captured.base);
      applied = out.ok();
      if (applied) content = std::move(out).take();
    }
    t.apply_us.push_back(us_since(t0));
    if (!applied) {
      ++t.failures;
      continue;
    }
    if (cdc) {
      // Untimed: the bytes the CRC layer is charged for.
      auto out = delta.value().apply(captured.base);
      if (out.ok()) content = std::move(out).take();
    }

    t0 = now_ns();
    const shadow::u32 crc = shadow::crc32(
        reinterpret_cast<const shadow::u8*>(content.data()), content.size());
    crc_us += us_since(t0);
    crc_bytes += static_cast<double>(content.size());

    const std::string key = update->file.key();
    shadow::BufWriter body;
    body.put_string(key);
    body.put_varint(update->new_version);
    body.put_u32(crc);
    t0 = now_ns();
    if (cdc) {
      advanced.encode(body);
      (void)cache.put_digest(key, update->new_version, std::move(advanced), crc);
    } else {
      body.put_string(content);
      (void)cache.put(key, update->new_version, std::move(content), crc);
    }
    t.put_us.push_back(us_since(t0));

    if (!store
             .append(cdc ? shadow::persist::RecordType::kShadowDigest
                         : shadow::persist::RecordType::kShadowCached,
                     body.take())
             .ok()) {
      ++t.failures;
    }
  }
  if (crc_bytes > 0) t.crc32_us_per_mib = crc_us / (crc_bytes / (1 << 20));
  std::filesystem::remove_all(journal_dir, ec);
  return t;
}

}  // namespace shadowbench
