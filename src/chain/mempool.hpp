// Transaction memory pool.
//
// Unconfirmed transactions wait here for the miner. The fair-exchange fast
// path (paper §6: "the foreign gateway [does] not wait for confirmation of
// the recipient transaction before providing the ephemeral private key")
// operates entirely at this level — the gateway reacts to the offer
// appearing in the mempool, and the recipient extracts eSk from the redeem
// transaction in the mempool, before either is mined.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/params.hpp"
#include "chain/transaction.hpp"
#include "chain/utxo.hpp"
#include "chain/validation.hpp"

namespace bcwan::chain {

enum class MempoolError {
  kOk,
  kAlreadyKnown,
  kConflict,       // double-spends an in-pool transaction
  kInvalid,        // failed validation
  kFeeTooLow,
};

std::string mempool_error_name(MempoolError err);

struct MempoolAcceptResult {
  MempoolError error = MempoolError::kOk;
  TxValidationResult validation;
  bool ok() const noexcept { return error == MempoolError::kOk; }
};

class Mempool {
 public:
  explicit Mempool(const ChainParams& params) : params_(params) {}

  /// Validate against the current UTXO set + in-pool spends and admit.
  /// `height` is the height the next block will have. In-pool parents are
  /// visible to children (chained unconfirmed spends are allowed).
  MempoolAcceptResult accept(const Transaction& tx, const CoinView& utxo,
                             int height);

  bool contains(const Hash256& txid) const {
    return txs_.find(txid) != txs_.end();
  }
  std::optional<Transaction> get(const Hash256& txid) const;
  std::size_t size() const noexcept { return txs_.size(); }

  /// Fee-descending selection for block assembly, respecting in-pool
  /// parent-before-child ordering and the block size budget.
  std::vector<Transaction> select_for_block(std::size_t max_bytes) const;

  /// Drop transactions confirmed by (or conflicting with) a new block.
  void remove_confirmed(const Block& block);

  /// Drop everything — a crashed node's pool does not survive the restart.
  void clear() {
    txs_.clear();
    spent_.clear();
    next_sequence_ = 0;
  }

  /// Visit every pooled transaction in place — no copies. The callback must
  /// not mutate the pool.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [id, entry] : txs_) fn(entry.tx);
  }

  /// True if any in-pool transaction spends this outpoint.
  bool spends(const OutPoint& op) const {
    return spent_.find(op) != spent_.end();
  }

 private:
  // Takes the txid by value: callers pass references into spent_/txs_,
  // both of which this function erases from while recursing.
  void evict_with_descendants(Hash256 txid);

  struct Entry {
    Transaction tx;
    Amount fee = 0;
    std::size_t size = 0;
    std::uint64_t sequence = 0;  // admission order
  };

  const ChainParams& params_;
  std::unordered_map<Hash256, Entry, Hash256Hasher> txs_;
  std::unordered_map<OutPoint, Hash256, OutPointHasher> spent_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace bcwan::chain
