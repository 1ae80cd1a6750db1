#include "cache/shadow_cache.hpp"

#include <algorithm>

#include "telemetry/registry.hpp"

namespace shadow::cache {

namespace {
// Process-wide cache telemetry, summed over every ShadowCache instance
// (per-instance numbers stay in CacheStats). The invariant suite checks
// cache.lookups == cache.hits + cache.misses.
struct CacheMetrics {
  telemetry::Counter& lookups;
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  telemetry::Counter& puts;
  telemetry::Counter& put_bytes;
  telemetry::Counter& evictions;
  telemetry::Counter& rejected;
  telemetry::Counter& digest_puts;
  telemetry::Histogram& entry_bytes;

  static CacheMetrics& get() {
    auto& r = telemetry::Registry::global();
    static CacheMetrics m{r.counter("cache.lookups"),
                          r.counter("cache.hits"),
                          r.counter("cache.misses"),
                          r.counter("cache.puts"),
                          r.counter("cache.put_bytes"),
                          r.counter("cache.evictions"),
                          r.counter("cache.rejected"),
                          r.counter("cache.digest_puts"),
                          r.histogram("cache.entry_bytes")};
    return m;
  }
};
}  // namespace

const char* eviction_policy_name(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru: return "lru";
    case EvictionPolicy::kFifo: return "fifo";
    case EvictionPolicy::kLargestFirst: return "largest-first";
  }
  return "?";
}

ShadowCache::ShadowCache(u64 byte_budget, EvictionPolicy policy)
    : byte_budget_(byte_budget), policy_(policy) {}

std::unordered_map<std::string, CacheEntry>::iterator
ShadowCache::pick_victim() {
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (victim == entries_.end()) {
      victim = it;
      continue;
    }
    switch (policy_) {
      case EvictionPolicy::kLru:
        if (it->second.last_access < victim->second.last_access) victim = it;
        break;
      case EvictionPolicy::kFifo:
        if (it->second.inserted_at < victim->second.inserted_at) victim = it;
        break;
      case EvictionPolicy::kLargestFirst:
        // Ranked by what eviction actually frees: a digest entry for a
        // huge file charges only its signature, so it ranks small.
        if (it->second.charge() > victim->second.charge()) {
          victim = it;
        }
        break;
    }
  }
  return victim;
}

void ShadowCache::make_room(std::size_t incoming_size) {
  if (byte_budget_ == 0) return;
  while (!entries_.empty() && bytes_used_ + incoming_size > byte_budget_) {
    auto victim = pick_victim();
    bytes_used_ -= victim->second.charge();
    entries_.erase(victim);
    ++stats_.evictions;
    CacheMetrics::get().evictions.add();
  }
}

Status ShadowCache::put(const std::string& key, u64 version,
                        std::string content, u32 crc) {
  ++stats_.puts;
  CacheMetrics& metrics = CacheMetrics::get();
  metrics.puts.add();
  metrics.put_bytes.add(content.size());
  metrics.entry_bytes.observe(content.size());
  ++tick_;
  if (byte_budget_ != 0 && content.size() > byte_budget_) {
    // The file alone exceeds the whole budget: refuse (best-effort).
    erase(key);
    ++stats_.rejected;
    metrics.rejected.add();
    return Error{ErrorCode::kResourceExhausted,
                 "content larger than cache budget"};
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_used_ -= it->second.charge();
    make_room(content.size());
    it->second.kind = EntryKind::kContent;
    it->second.signature = cdc::Signature{};
    it->second.content = std::move(content);
    it->second.version = version;
    it->second.crc = crc;
    it->second.last_access = tick_;
    bytes_used_ += it->second.charge();
    return Status();
  }
  make_room(content.size());
  CacheEntry entry;
  entry.key = key;
  entry.version = version;
  entry.crc = crc;
  entry.last_access = tick_;
  entry.inserted_at = tick_;
  entry.content = std::move(content);
  bytes_used_ += entry.charge();
  entries_.emplace(key, std::move(entry));
  return Status();
}

Status ShadowCache::put_digest(const std::string& key, u64 version,
                               cdc::Signature signature, u32 crc) {
  ++stats_.puts;
  CacheMetrics& metrics = CacheMetrics::get();
  metrics.puts.add();
  metrics.digest_puts.add();
  const std::size_t charge =
      sizeof(cdc::ChunkerParams) +
      signature.chunks.size() * sizeof(cdc::ChunkDigest);
  metrics.put_bytes.add(charge);
  metrics.entry_bytes.observe(charge);
  ++tick_;
  if (byte_budget_ != 0 && charge > byte_budget_) {
    erase(key);
    ++stats_.rejected;
    metrics.rejected.add();
    return Error{ErrorCode::kResourceExhausted,
                 "signature larger than cache budget"};
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_used_ -= it->second.charge();
    make_room(charge);
    it->second.kind = EntryKind::kDigest;
    it->second.content.clear();
    it->second.content.shrink_to_fit();
    it->second.signature = std::move(signature);
    it->second.version = version;
    it->second.crc = crc;
    it->second.last_access = tick_;
    bytes_used_ += it->second.charge();
    return Status();
  }
  make_room(charge);
  CacheEntry entry;
  entry.key = key;
  entry.kind = EntryKind::kDigest;
  entry.signature = std::move(signature);
  entry.version = version;
  entry.crc = crc;
  entry.last_access = tick_;
  entry.inserted_at = tick_;
  bytes_used_ += entry.charge();
  entries_.emplace(key, std::move(entry));
  return Status();
}

Result<const CacheEntry*> ShadowCache::get(const std::string& key) {
  ++tick_;
  CacheMetrics& metrics = CacheMetrics::get();
  metrics.lookups.add();
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    metrics.misses.add();
    return Error{ErrorCode::kCacheMiss, "not cached: " + key};
  }
  ++stats_.hits;
  metrics.hits.add();
  it->second.last_access = tick_;
  return &it->second;
}

std::optional<u64> ShadowCache::version_of(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.version;
}

const CacheEntry* ShadowCache::peek(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

ShadowCache::DigestStats ShadowCache::digest_stats() const {
  DigestStats stats;
  for (const auto& [key, entry] : entries_) {
    if (entry.kind != EntryKind::kDigest) continue;
    ++stats.entries;
    stats.resident_bytes += entry.charge();
    stats.represented_bytes += entry.represented_bytes();
  }
  return stats;
}

void ShadowCache::erase(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  bytes_used_ -= it->second.charge();
  entries_.erase(it);
}

bool ShadowCache::evict_one() {
  auto victim = pick_victim();
  if (victim == entries_.end()) return false;
  bytes_used_ -= victim->second.charge();
  entries_.erase(victim);
  ++stats_.evictions;
  CacheMetrics::get().evictions.add();
  return true;
}

void ShadowCache::clear() {
  entries_.clear();
  bytes_used_ = 0;
}

std::vector<const CacheEntry*> ShadowCache::eviction_order() const {
  std::vector<const CacheEntry*> order;
  order.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) order.push_back(&entry);
  // The policy's key, first victim first; the cache key breaks ties so
  // the order (and a snapshot written in it) is deterministic.
  auto rank = [this](const CacheEntry* e) -> u64 {
    switch (policy_) {
      case EvictionPolicy::kLru: return e->last_access;
      case EvictionPolicy::kFifo: return e->inserted_at;
      case EvictionPolicy::kLargestFirst: return ~u64{e->charge()};
    }
    return 0;
  };
  std::sort(order.begin(), order.end(),
            [&rank](const CacheEntry* a, const CacheEntry* b) {
              const u64 ra = rank(a);
              const u64 rb = rank(b);
              return ra != rb ? ra < rb : a->key < b->key;
            });
  return order;
}

void ShadowCache::set_byte_budget(u64 budget) {
  byte_budget_ = budget;
  make_room(0);
}

}  // namespace shadow::cache
