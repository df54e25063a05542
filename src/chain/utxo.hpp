// Unspent transaction output set.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/transaction.hpp"
#include "util/serial.hpp"

namespace bcwan::chain {

struct Coin {
  TxOut out;
  int height = 0;       // block height that created it
  bool coinbase = false;

  friend bool operator==(const Coin&, const Coin&) = default;
};

/// Coin serialization shared by UTXO snapshots and undo records.
void write_coin(util::Writer& w, const OutPoint& op, const Coin& coin);
/// Throws util::DeserializeError on malformed input.
std::pair<OutPoint, Coin> read_coin(util::Reader& r);

/// Read-only view of spendable coins. UtxoSet is the concrete chainstate;
/// the mempool layers unconfirmed outputs on top without copying.
class CoinView {
 public:
  virtual ~CoinView() = default;
  virtual std::optional<Coin> get(const OutPoint& op) const = 0;
};

/// Net UTXO change over a journal window: coins present before but gone (or
/// replaced) now, and coins present now that differ from before. An
/// outpoint spent and re-created inside one window cancels out entirely.
struct UtxoJournal {
  std::vector<OutPoint> spent;
  std::vector<std::pair<OutPoint, Coin>> added;
};

class UtxoSet : public CoinView {
 public:
  bool contains(const OutPoint& op) const {
    return coins_.find(op) != coins_.end();
  }
  std::optional<Coin> get(const OutPoint& op) const override;

  void add(const OutPoint& op, Coin coin);
  /// Removes and returns the coin; std::nullopt if absent.
  std::optional<Coin> spend(const OutPoint& op);

  /// Start journaling: every add/spend records the outpoint's pre-window
  /// coin the first time it is touched, so take_journal() can emit the net
  /// diff — O(coins touched), never O(set size). Incremental snapshots
  /// depend on this staying enabled between snapshot elements.
  void begin_journal();
  /// Net changes since begin_journal()/the previous take; the window
  /// restarts empty. Journaling stays enabled.
  UtxoJournal take_journal();
  bool journal_enabled() const noexcept { return journaling_; }

  /// Pre-size the backing map (block connection knows how many outputs it
  /// is about to add; rehashing mid-connect is pure waste).
  void reserve(std::size_t n) { coins_.reserve(n); }

  std::size_t size() const noexcept { return coins_.size(); }

  /// Total value of all coins (supply-conservation checks in tests).
  Amount total_value() const;

  /// Visit every (outpoint, coin) pair — snapshot writers and invariants.
  /// The callback must not mutate the set.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [op, coin] : coins_) fn(op, coin);
  }

  /// Canonical serialization, sorted by outpoint, so equal sets serialize
  /// identically (chainstate snapshots, state hashing).
  util::Bytes serialize() const;
  /// w.var_bytes(serialize()) without the intermediate buffer: the length
  /// is computed up front and a w.boundary() follows every coin, so a
  /// draining Writer streams the set (chainstate base snapshots).
  void write_var(util::Writer& w) const;
  static std::optional<UtxoSet> deserialize(util::ByteView data);

  /// Double SHA-256 of the canonical serialization: two UTXO sets hash
  /// equal iff they contain exactly the same coins. Crash-recovery gates
  /// compare a recovered node's hash against the uninterrupted run's.
  Hash256 state_hash() const;

 private:
  void record_baseline(const OutPoint& op);
  /// Every entry, sorted by outpoint (the canonical serialization order).
  std::vector<const std::pair<const OutPoint, Coin>*> sorted() const;

  std::unordered_map<OutPoint, Coin, OutPointHasher> coins_;
  // Journal window: outpoint -> (height, coinbase) of its coin when the
  // window opened (nullopt = did not exist). Only touched outpoints
  // appear. The txid commits to the outputs, so a coin at a given outpoint
  // can differ only in those two fields; no script copies are kept.
  struct CoinTag {
    int height;
    bool coinbase;
  };
  std::unordered_map<OutPoint, std::optional<CoinTag>, OutPointHasher>
      baseline_;
  bool journaling_ = false;
};

}  // namespace bcwan::chain
