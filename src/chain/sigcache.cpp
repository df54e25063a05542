#include "chain/sigcache.hpp"

#include <mutex>
#include <random>

#include "crypto/sha256.hpp"
#include "telemetry/metrics.hpp"
#include "util/serial.hpp"

namespace bcwan::chain {

VerifyCache::VerifyCache(std::size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {
  std::random_device rd;
  for (std::size_t i = 0; i < salt_.size(); i += 4) {
    const std::uint32_t word = rd();
    salt_[i] = static_cast<std::uint8_t>(word);
    salt_[i + 1] = static_cast<std::uint8_t>(word >> 8);
    salt_[i + 2] = static_cast<std::uint8_t>(word >> 16);
    salt_[i + 3] = static_cast<std::uint8_t>(word >> 24);
  }
}

Hash256 VerifyCache::key(std::initializer_list<util::ByteView> parts) const {
  util::Writer w;
  w.bytes(util::ByteView(salt_.data(), salt_.size()));
  for (const util::ByteView part : parts) w.var_bytes(part);
  return crypto::sha256(w.data());
}

bool VerifyCache::contains(const Hash256& k) const {
  if (!enabled()) return false;
  bool found;
  {
    std::shared_lock lock(mutex_);
    found = entries_.find(k) != entries_.end();
  }
  (found ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return found;
}

void VerifyCache::insert(const Hash256& k) {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  if (entries_.size() >= max_entries_) {
    // Evict a batch in hash order — effectively random keys, and amortized
    // so the hot path never evicts one-by-one under the write lock.
    std::size_t to_drop = max_entries_ / 16 + 1;
    for (auto it = entries_.begin(); it != entries_.end() && to_drop > 0;
         --to_drop) {
      it = entries_.erase(it);
    }
  }
  entries_.insert(k);
}

void VerifyCache::erase(const std::vector<Hash256>& keys) {
  if (keys.empty()) return;
  std::unique_lock lock(mutex_);
  for (const Hash256& k : keys) entries_.erase(k);
}

void VerifyCache::clear() {
  std::unique_lock lock(mutex_);
  entries_.clear();
  hits_.store(0);
  misses_.store(0);
}

std::size_t VerifyCache::size() const {
  std::shared_lock lock(mutex_);
  return entries_.size();
}

namespace {

// Bridges a process-lifetime cache's hit/miss counters into gauges at export
// time; the contains() hot path stays untouched. Registered once per cache
// from the accessor below (the caches are leaked statics, so the captured
// reference never dangles).
void register_cache_collector(const char* name, const VerifyCache& cache) {
  if (!telemetry::compiled_in()) return;
  telemetry::registry().add_collector([name, &cache] {
    auto& reg = telemetry::registry();
    const double hits = static_cast<double>(cache.hits());
    const double misses = static_cast<double>(cache.misses());
    reg.gauge("bcwan_chain_cache_hits", "cache", name,
              "Lookup hits per verification cache")
        .set(hits);
    reg.gauge("bcwan_chain_cache_misses", "cache", name,
              "Lookup misses per verification cache")
        .set(misses);
    reg.gauge("bcwan_chain_cache_hit_rate", "cache", name,
              "hits / (hits + misses) per verification cache")
        .set(hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
    reg.gauge("bcwan_chain_cache_entries", "cache", name,
              "Resident entries per verification cache")
        .set(static_cast<double>(cache.size()));
  });
}

}  // namespace

VerifyCache& sig_cache() {
  static VerifyCache cache(1 << 18);
  static const bool telemetry_registered =
      (register_cache_collector("sig", cache), true);
  (void)telemetry_registered;
  return cache;
}

VerifyCache& script_exec_cache() {
  static VerifyCache cache(1 << 17);
  static const bool telemetry_registered =
      (register_cache_collector("script_exec", cache), true);
  (void)telemetry_registered;
  return cache;
}

Hash256 script_exec_key(const Hash256& txid) {
  return script_exec_cache().key(
      {util::ByteView(txid.data(), txid.size())});
}

}  // namespace bcwan::chain
