// Salted, bounded verification caches (Bitcoin sigcache style).
//
// Two process-wide caches sit on the validation hot path:
//
//   * the *signature* cache remembers individual ECDSA checks made while
//     connecting blocks, keyed on H(salt ‖ sighash-digest ‖ pubkey ‖ sig),
//     so a block that failed elsewhere or a competing branch does not
//     verify them again (mempool admission only reads it: the
//     script-execution cache already remembers what it admits);
//   * the *script-execution* cache remembers whole transactions whose input
//     scripts all verified, keyed on H(salt ‖ txid) — block connection skips
//     script execution entirely for transactions the mempool already
//     validated. Script validity depends only on the transaction body and
//     the coins it spends, both of which the txid commits to (an outpoint
//     names the creating transaction), so the txid is a sound key. Mempool
//     admission inserts; a block that connects consumes its hits and inserts
//     nothing (as Bitcoin Core's does), so the cache holds at most what the
//     mempool admitted and has not yet seen confirmed.
//
// Only *successful* checks are stored: an entry's presence means "known
// valid", so a poisoned or colliding entry can never turn an invalid spend
// valid without breaking SHA-256. The salt is drawn once per process from
// std::random_device, which keeps an attacker from precomputing keys that
// collide across daemons. Both caches are bounded (random-batch eviction on
// overflow) and guarded by a shared_mutex so the parallel script-check
// workers read concurrently.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <shared_mutex>
#include <unordered_set>
#include <vector>

#include "chain/transaction.hpp"
#include "util/bytes.hpp"

namespace bcwan::chain {

class VerifyCache {
 public:
  explicit VerifyCache(std::size_t max_entries = 1 << 18);

  /// Salted key over the concatenated parts (length-prefixed, so distinct
  /// part boundaries can never produce the same preimage).
  Hash256 key(std::initializer_list<util::ByteView> parts) const;

  /// True iff `k` is cached as known-valid. Counts a hit or miss.
  bool contains(const Hash256& k) const;

  /// Record a successful verification. No-op while disabled.
  void insert(const Hash256& k);

  /// Forget entries (consumed by a connected block).
  void erase(const std::vector<Hash256>& keys);

  /// Drop all entries and reset counters (tests, bench ablations).
  void clear();

  /// Bench ablation switch: while disabled, contains() misses and insert()
  /// drops, so every check re-executes.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  std::uint64_t hits() const noexcept { return hits_.load(); }
  std::uint64_t misses() const noexcept { return misses_.load(); }
  std::size_t size() const;

 private:
  std::array<std::uint8_t, 32> salt_;
  std::size_t max_entries_;
  mutable std::shared_mutex mutex_;
  std::unordered_set<Hash256, Hash256Hasher> entries_;
  std::atomic<bool> enabled_{true};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

/// Process-wide signature-check cache (TxSignatureChecker::check_sig).
VerifyCache& sig_cache();

/// Process-wide per-transaction script-execution cache, shared between
/// mempool admission and connect_block.
VerifyCache& script_exec_cache();

/// The script-execution-cache key for a transaction id.
Hash256 script_exec_key(const Hash256& txid);

}  // namespace bcwan::chain
