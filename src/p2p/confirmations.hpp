// Confirmation depths of a caller's own transactions.
//
// The chain keeps no tx index (it would cost a hash-table node per
// confirmed transaction, forever), so an agent that waits for its offer,
// redeem or reclaim to confirm follows the chain itself, the way Bitcoin
// Core's wallet follows blockConnected: it names the txids it cares about,
// and the tracker records the active-chain height each one confirmed at
// from the node's block, reorg and restart watchers. State is O(watched
// txids); the blocks connected while nothing is watched are never read.
#pragma once

#include <optional>
#include <unordered_map>

#include "p2p/chain_node.hpp"

namespace bcwan::p2p {

class TxConfirmations {
 public:
  /// Registers watchers on `node`; the tracker must outlive the node's
  /// event processing (watchers cannot be removed).
  explicit TxConfirmations(ChainNode& node);

  /// Start tracking an unconfirmed txid (a tx that just entered the pool).
  void watch(const chain::Hash256& txid);
  void forget(const chain::Hash256& txid);
  /// Stop tracking everything (the owning agent crashed).
  void clear() { entries_.clear(); }

  /// Depth on the active chain (1 = in the tip block), or std::nullopt when
  /// the txid is unconfirmed or not watched.
  std::optional<int> confirmations(const chain::Hash256& txid);

  std::size_t watched() const noexcept { return entries_.size(); }

 private:
  /// Scan the active blocks past the scanned tip. `tip_block`, when it is
  /// the block at some height being scanned, is used instead of a read.
  void sync(const chain::Block* tip_block = nullptr);
  /// Forget every confirmation above `fork` and resume scanning there.
  void unwind(int fork);

  ChainNode& node_;
  // Watched txid -> confirming active-chain height; -1 while unconfirmed.
  std::unordered_map<chain::Hash256, int, chain::Hash256Hasher> entries_;
  // Active blocks up to `scanned_` (whose hash is `scanned_hash_`) have
  // been scanned for watched txids.
  int scanned_ = 0;
  chain::Hash256 scanned_hash_{};
};

}  // namespace bcwan::p2p
