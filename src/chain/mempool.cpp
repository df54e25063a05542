#include "chain/mempool.hpp"

#include <algorithm>

#include "script/templates.hpp"
#include "telemetry/metrics.hpp"

namespace bcwan::chain {

namespace {

// Node-level gauge: with several simulated nodes in one process this holds
// the most recently updated node's depth (DESIGN.md §10).
void telemetry_note_depth(std::size_t depth, MempoolError error) {
  if (!telemetry::enabled()) return;
  auto& reg = telemetry::registry();
  reg.gauge("bcwan_chain_mempool_depth",
            "Transactions in the most recently updated mempool")
      .set(static_cast<double>(depth));
  reg.counter("bcwan_chain_mempool_accepts_total", "result",
              error == MempoolError::kOk ? "accepted" : "rejected",
              "Mempool admission attempts by outcome")
      .add();
}

}  // namespace

std::string mempool_error_name(MempoolError err) {
  switch (err) {
    case MempoolError::kOk: return "ok";
    case MempoolError::kAlreadyKnown: return "already-known";
    case MempoolError::kConflict: return "conflict";
    case MempoolError::kInvalid: return "invalid";
    case MempoolError::kFeeTooLow: return "fee-too-low";
  }
  return "unknown";
}

MempoolAcceptResult Mempool::accept(const Transaction& tx, const CoinView& utxo,
                                    int height) {
  MempoolAcceptResult result;
  // Records the admission outcome and post-call depth on every return path.
  struct TelemetryNote {
    const Mempool& pool;
    const MempoolAcceptResult& result;
    ~TelemetryNote() { telemetry_note_depth(pool.size(), result.error); }
  } telemetry_note{*this, result};
  const Hash256 txid = tx.txid();
  if (txs_.find(txid) != txs_.end()) {
    result.error = MempoolError::kAlreadyKnown;
    return result;
  }
  for (const TxIn& in : tx.vin) {
    if (spent_.find(in.prevout) != spent_.end()) {
      result.error = MempoolError::kConflict;
      return result;
    }
  }

  // Layered view: in-pool outputs are spendable (so the redeem tx can spend
  // the unconfirmed offer tx), in-pool-spent outpoints are not, and
  // everything else falls through to the chainstate.
  class PoolView : public CoinView {
   public:
    PoolView(const Mempool& pool, const CoinView& base, int height)
        : pool_(pool), base_(base), height_(height) {}
    std::optional<Coin> get(const OutPoint& op) const override {
      if (pool_.spent_.find(op) != pool_.spent_.end()) return std::nullopt;
      const auto parent = pool_.txs_.find(op.txid);
      if (parent != pool_.txs_.end()) {
        if (op.index >= parent->second.tx.vout.size()) return std::nullopt;
        const TxOut& out = parent->second.tx.vout[op.index];
        if (script::classify(out.script_pubkey).type ==
            script::ScriptType::kOpReturn) {
          return std::nullopt;
        }
        return Coin{out, height_, false};
      }
      return base_.get(op);
    }

   private:
    const Mempool& pool_;
    const CoinView& base_;
    int height_;
  };

  const PoolView view(*this, utxo, height);
  result.validation = check_tx_inputs(tx, view, height, params_);
  if (!result.validation.ok()) {
    result.error = MempoolError::kInvalid;
    return result;
  }
  if (result.validation.fee < params_.min_tx_fee) {
    result.error = MempoolError::kFeeTooLow;
    return result;
  }

  Entry entry{tx, result.validation.fee, tx.serialize().size(),
              next_sequence_++};
  for (const TxIn& in : tx.vin) spent_[in.prevout] = txid;
  txs_.emplace(txid, std::move(entry));
  return result;
}

std::optional<Transaction> Mempool::get(const Hash256& txid) const {
  const auto it = txs_.find(txid);
  if (it == txs_.end()) return std::nullopt;
  return it->second.tx;
}

std::vector<Transaction> Mempool::select_for_block(
    std::size_t max_bytes) const {
  // Sort by fee rate descending, then admission order for stability.
  std::vector<const Entry*> entries;
  entries.reserve(txs_.size());
  for (const auto& [id, entry] : txs_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const Entry* a, const Entry* b) {
              const double ra = static_cast<double>(a->fee) /
                                static_cast<double>(a->size);
              const double rb = static_cast<double>(b->fee) /
                                static_cast<double>(b->size);
              if (ra != rb) return ra > rb;
              return a->sequence < b->sequence;
            });

  std::vector<Transaction> selected;
  std::unordered_map<Hash256, bool, Hash256Hasher> included;
  std::size_t used = 0;

  // Multiple passes so children land after their in-pool parents.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const Entry* entry : entries) {
      const Hash256 txid = entry->tx.txid();
      if (included.count(txid)) continue;
      if (used + entry->size > max_bytes) continue;
      // All in-pool parents must already be selected.
      bool parents_ok = true;
      for (const TxIn& in : entry->tx.vin) {
        const auto parent = txs_.find(in.prevout.txid);
        if (parent != txs_.end() && !included.count(in.prevout.txid)) {
          parents_ok = false;
          break;
        }
      }
      if (!parents_ok) continue;
      selected.push_back(entry->tx);
      included[txid] = true;
      used += entry->size;
      progressed = true;
    }
  }
  return selected;
}

void Mempool::evict_with_descendants(Hash256 txid) {
  const auto it = txs_.find(txid);
  if (it == txs_.end()) return;
  const Transaction tx = it->second.tx;
  for (const TxIn& in : tx.vin) spent_.erase(in.prevout);
  txs_.erase(it);
  // Children spending this tx's outputs are now orphaned; evict them too.
  for (std::uint32_t v = 0; v < tx.vout.size(); ++v) {
    const auto child = spent_.find(OutPoint{txid, v});
    if (child != spent_.end()) evict_with_descendants(child->second);
  }
}

void Mempool::remove_confirmed(const Block& block) {
  for (const Transaction& tx : block.txs) {
    const Hash256 txid = tx.txid();
    // Remove the confirmed transaction itself (its children stay: their
    // parent is now on-chain).
    const auto it = txs_.find(txid);
    if (it != txs_.end()) {
      for (const TxIn& in : it->second.tx.vin) spent_.erase(in.prevout);
      txs_.erase(it);
    }
    // Evict in-pool conflicts (transactions double-spending an outpoint the
    // block consumed) and their descendants — this is how a victim mempool
    // observes a successful double-spend attack: its offer AND the redeem
    // built on it vanish together.
    if (tx.is_coinbase()) continue;
    for (const TxIn& in : tx.vin) {
      const auto spender = spent_.find(in.prevout);
      if (spender == spent_.end()) continue;
      evict_with_descendants(spender->second);
    }
  }
  if (telemetry::enabled()) {
    telemetry::registry()
        .gauge("bcwan_chain_mempool_depth",
               "Transactions in the most recently updated mempool")
        .set(static_cast<double>(size()));
  }
}

}  // namespace bcwan::chain
