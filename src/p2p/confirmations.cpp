#include "p2p/confirmations.hpp"

#include <algorithm>

namespace bcwan::p2p {

TxConfirmations::TxConfirmations(ChainNode& node) : node_(node) {
  scanned_ = node_.chain().height();
  scanned_hash_ = node_.chain().tip_hash();
  node_.add_block_watcher([this](const chain::Block& block) { sync(&block); });
  // The node reports every reorg, one completed by orphan descendants
  // included, with the fork below everything it disconnected.
  node_.add_reorg_watcher([this](int fork_height) {
    unwind(fork_height);
    sync();
  });
  // Recovery may land on another branch without reporting a reorg.
  node_.add_restart_watcher([this] {
    unwind(0);
    sync();
  });
}

void TxConfirmations::watch(const chain::Hash256& txid) {
  entries_.try_emplace(txid, -1);
}

void TxConfirmations::forget(const chain::Hash256& txid) {
  entries_.erase(txid);
}

std::optional<int> TxConfirmations::confirmations(
    const chain::Hash256& txid) {
  sync();
  const auto it = entries_.find(txid);
  if (it == entries_.end() || it->second < 0) return std::nullopt;
  return node_.chain().height() - it->second + 1;
}

void TxConfirmations::unwind(int fork) {
  fork = std::clamp(fork, 0, node_.chain().height());
  for (auto& [txid, height] : entries_) {
    if (height > fork) height = -1;
  }
  scanned_ = fork;
  scanned_hash_ = node_.chain().active_chain()[static_cast<std::size_t>(fork)];
}

void TxConfirmations::sync(const chain::Block* tip_block) {
  const chain::Blockchain& chain = node_.chain();
  const auto& active = chain.active_chain();
  // The scanned tip left the active chain with no reorg report (a caller
  // drove chain() directly): rescan everything.
  if (scanned_ > chain.height() ||
      active[static_cast<std::size_t>(scanned_)] != scanned_hash_) {
    unwind(0);
  }
  if (!entries_.empty()) {
    const chain::Hash256 given = tip_block ? tip_block->hash() : chain::Hash256{};
    for (int h = scanned_ + 1; h <= chain.height(); ++h) {
      std::optional<chain::Block> read;
      const chain::Block* block = tip_block;
      if (block == nullptr || given != active[static_cast<std::size_t>(h)]) {
        read = chain.block_at(h);
        block = &*read;
      }
      for (const chain::Transaction& tx : block->txs) {
        const auto it = entries_.find(tx.txid());
        if (it != entries_.end()) it->second = h;
      }
    }
  }
  scanned_ = chain.height();
  scanned_hash_ = chain.tip_hash();
}

}  // namespace bcwan::p2p
