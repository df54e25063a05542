#include "chain/validation.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "chain/sigcache.hpp"
#include "script/templates.hpp"
#include "util/serial.hpp"

namespace bcwan::chain {

void write_undo(util::Writer& w, const BlockUndo& undo) {
  w.varint(undo.spent.size());
  for (const auto& [op, coin] : undo.spent) write_coin(w, op, coin);
  w.varint(undo.created.size());
  for (const OutPoint& op : undo.created) {
    w.bytes(util::ByteView(op.txid.data(), op.txid.size()));
    w.u32(op.index);
  }
}

BlockUndo read_undo(util::Reader& r) {
  BlockUndo undo;
  const std::uint64_t spent = r.varint();
  undo.spent.reserve(static_cast<std::size_t>(spent));
  for (std::uint64_t i = 0; i < spent; ++i) undo.spent.push_back(read_coin(r));
  const std::uint64_t created = r.varint();
  undo.created.reserve(static_cast<std::size_t>(created));
  for (std::uint64_t i = 0; i < created; ++i) {
    OutPoint op;
    const util::Bytes txid = r.bytes(op.txid.size());
    std::copy(txid.begin(), txid.end(), op.txid.begin());
    op.index = r.u32();
    undo.created.push_back(op);
  }
  return undo;
}

std::string tx_error_name(TxError err) {
  switch (err) {
    case TxError::kOk: return "ok";
    case TxError::kNoInputs: return "no-inputs";
    case TxError::kNoOutputs: return "no-outputs";
    case TxError::kOversized: return "oversized";
    case TxError::kNegativeOutput: return "negative-output";
    case TxError::kOutputTooLarge: return "output-too-large";
    case TxError::kDuplicateInput: return "duplicate-input";
    case TxError::kBadCoinbase: return "bad-coinbase";
    case TxError::kOpReturnTooLarge: return "op-return-too-large";
    case TxError::kMissingInput: return "missing-input";
    case TxError::kImmatureCoinbase: return "immature-coinbase";
    case TxError::kInputValueOutOfRange: return "input-value-out-of-range";
    case TxError::kFeeNegative: return "fee-negative";
    case TxError::kLocktimeNotReached: return "locktime-not-reached";
    case TxError::kScriptFailed: return "script-failed";
  }
  return "unknown";
}

std::string block_error_name(BlockError err) {
  switch (err) {
    case BlockError::kOk: return "ok";
    case BlockError::kEmpty: return "empty";
    case BlockError::kOversized: return "oversized";
    case BlockError::kBadPow: return "bad-pow";
    case BlockError::kBadMerkleRoot: return "bad-merkle-root";
    case BlockError::kFirstTxNotCoinbase: return "first-tx-not-coinbase";
    case BlockError::kMultipleCoinbases: return "multiple-coinbases";
    case BlockError::kBadTransaction: return "bad-transaction";
    case BlockError::kBadCoinbaseValue: return "bad-coinbase-value";
    case BlockError::kDoubleSpendInBlock: return "double-spend-in-block";
    case BlockError::kBadProposer: return "bad-proposer";
    case BlockError::kMinerNotPermitted: return "miner-not-permitted";
    case BlockError::kBadCoinbaseHeight: return "bad-coinbase-height";
  }
  return "unknown";
}

TxValidationResult check_transaction(const Transaction& tx,
                                     const ChainParams& params) {
  TxValidationResult result;
  auto fail = [&result](TxError err) {
    result.error = err;
    return result;
  };

  if (tx.vin.empty()) return fail(TxError::kNoInputs);
  if (tx.vout.empty()) return fail(TxError::kNoOutputs);
  if (tx.serialize().size() > params.max_tx_size)
    return fail(TxError::kOversized);

  Amount total = 0;
  for (const TxOut& out : tx.vout) {
    if (out.value < 0) return fail(TxError::kNegativeOutput);
    if (out.value > params.max_money) return fail(TxError::kOutputTooLarge);
    total += out.value;
    if (total > params.max_money) return fail(TxError::kOutputTooLarge);

    const auto classified = script::classify(out.script_pubkey);
    if (classified.type == script::ScriptType::kOpReturn &&
        classified.data.size() > params.max_op_return_size) {
      return fail(TxError::kOpReturnTooLarge);
    }
  }

  std::unordered_set<OutPoint, OutPointHasher> seen;
  for (const TxIn& in : tx.vin) {
    if (!seen.insert(in.prevout).second)
      return fail(TxError::kDuplicateInput);
  }

  if (tx.is_coinbase()) {
    // Coinbase scriptSig is arbitrary but bounded.
    if (tx.vin[0].script_sig.size() > 100) return fail(TxError::kBadCoinbase);
  } else {
    for (const TxIn& in : tx.vin) {
      if (in.prevout.txid == Hash256{}) return fail(TxError::kBadCoinbase);
    }
  }
  return result;
}

TxValidationResult check_tx_inputs(const Transaction& tx, const CoinView& utxo,
                                   int height, const ChainParams& params,
                                   std::vector<ScriptCheck>* deferred_checks,
                                   std::size_t tx_index,
                                   std::deque<PrecomputedTxData>* precomps) {
  TxValidationResult result = check_transaction(tx, params);
  if (!result.ok()) return result;
  auto fail = [&result](TxError err) {
    result.error = err;
    return result;
  };

  if (tx.is_coinbase()) return fail(TxError::kBadCoinbase);

  // Locktime: a tx with locktime L confirms only at height >= L, unless all
  // inputs are final.
  if (tx.locktime != 0 &&
      static_cast<std::uint32_t>(height) < tx.locktime) {
    const bool all_final = std::all_of(
        tx.vin.begin(), tx.vin.end(),
        [](const TxIn& in) { return in.sequence == kSequenceFinal; });
    if (!all_final) return fail(TxError::kLocktimeNotReached);
  }

  // One view lookup per input; the coins feed both the fee/maturity pass
  // and the script checks below.
  std::vector<Coin> coins;
  coins.reserve(tx.vin.size());
  for (const TxIn& in : tx.vin) {
    auto coin = utxo.get(in.prevout);
    if (!coin) return fail(TxError::kMissingInput);
    coins.push_back(*std::move(coin));
  }

  Amount total_in = 0;
  for (const Coin& coin : coins) {
    if (coin.coinbase && height - coin.height < params.coinbase_maturity)
      return fail(TxError::kImmatureCoinbase);
    total_in += coin.out.value;
    if (total_in > params.max_money)
      return fail(TxError::kInputValueOutOfRange);
  }
  if (total_in < tx.total_output()) return fail(TxError::kFeeNegative);
  result.fee = total_in - tx.total_output();

  // The txid commits to every prevout (which in turn names the spent coins)
  // and to every scriptSig, so a txid this node has already fully verified
  // needs no script execution at all — the common case when a mempool tx
  // later arrives in a block.
  const Hash256 exec_key = script_exec_key(tx.txid());
  if (script_exec_cache().contains(exec_key)) return result;

  if (deferred_checks) {
    const PrecomputedTxData* precomp = &precomps->emplace_back(tx);
    for (std::uint32_t i = 0; i < tx.vin.size(); ++i) {
      deferred_checks->push_back(ScriptCheck{
          &tx, static_cast<std::uint32_t>(tx_index), i,
          coins[i].out.script_pubkey, precomp});
    }
    return result;
  }

  // Inline path (mempool admission): multi-input transactions take the
  // midstates too, avoiding the quadratic re-serialization.
  std::optional<PrecomputedTxData> local_precomp;
  const PrecomputedTxData* precomp = nullptr;
  if (tx.vin.size() > 1) {
    local_precomp.emplace(tx);
    precomp = &*local_precomp;
  }
  for (std::size_t i = 0; i < tx.vin.size(); ++i) {
    const TxSignatureChecker checker(tx, i, coins[i].out.script_pubkey,
                                     precomp, /*cache_valid=*/false);
    const auto exec = script::verify_spend(tx.vin[i].script_sig,
                                           coins[i].out.script_pubkey, checker);
    if (!exec.ok()) {
      result.script_error = exec.error;
      return fail(TxError::kScriptFailed);
    }
  }
  script_exec_cache().insert(exec_key);
  return result;
}

BlockValidationResult check_block(const Block& block,
                                  const ChainParams& params) {
  BlockValidationResult result;
  auto fail = [&result](BlockError err) {
    result.error = err;
    return result;
  };

  if (block.txs.empty()) return fail(BlockError::kEmpty);
  if (block.serialize().size() > params.max_block_size)
    return fail(BlockError::kOversized);
  // Under proof-of-stake the election is a signature check against the
  // slot-leader schedule; that needs chain context (the height), so it
  // lives in Blockchain::accept_block. Only PoW is context-free.
  if (params.consensus == ConsensusMode::kProofOfWork &&
      !hash_meets_target(block.hash(), params.pow_zero_bits)) {
    return fail(BlockError::kBadPow);
  }
  if (block.header.merkle_root !=
      compute_merkle_root(block.txs, params.script_check_threads))
    return fail(BlockError::kBadMerkleRoot);
  if (!block.txs[0].is_coinbase())
    return fail(BlockError::kFirstTxNotCoinbase);
  for (std::size_t i = 1; i < block.txs.size(); ++i) {
    if (block.txs[i].is_coinbase()) return fail(BlockError::kMultipleCoinbases);
  }

  // Permissioned mining (Multichain "grant mine"): every coinbase output
  // with value must pay a permitted federation member.
  if (!params.permitted_miners.empty()) {
    for (const TxOut& out : block.txs[0].vout) {
      if (out.value == 0) continue;
      const auto classified = script::classify(out.script_pubkey);
      if (classified.type != script::ScriptType::kP2pkh ||
          !params.miner_permitted(util::ByteView(
              classified.pubkey_hash.data(), classified.pubkey_hash.size()))) {
        return fail(BlockError::kMinerNotPermitted);
      }
    }
  }
  return result;
}

BlockValidationResult connect_block(const Block& block, UtxoSet& utxo,
                                    int height, const ChainParams& params,
                                    BlockUndo& undo, bool verify_scripts) {
  BlockValidationResult result = check_block(block, params);
  if (!result.ok()) return result;
  if (height >= 1) {
    script::Script expected;
    expected.push_int(height);
    const util::Bytes& prefix = expected.bytes();
    const util::Bytes& sig = block.txs[0].vin[0].script_sig.bytes();
    if (sig.size() < prefix.size() ||
        !std::equal(prefix.begin(), prefix.end(), sig.begin())) {
      result.error = BlockError::kBadCoinbaseHeight;
      return result;
    }
  }

  undo = BlockUndo{};
  Amount total_fees = 0;
  bool failed = false;

  auto rollback = [&]() {
    // Restore spent coins first, then remove created ones — same intra-block
    // spend-chain ordering rule as disconnect_block.
    for (auto it = undo.spent.rbegin(); it != undo.spent.rend(); ++it)
      utxo.add(it->first, it->second);
    for (const OutPoint& op : undo.created) utxo.spend(op);
    undo = BlockUndo{};
  };

  // Pre-size the coin map for everything this block can add; rehashing in
  // the middle of connection is pure waste. The undo record is sized
  // exactly too: it lives as long as the block stays active, so doubling
  // slack would be paid in memory for every block of the chain.
  std::size_t new_outputs = 0;
  std::size_t spends = 0;
  for (std::size_t i = 0; i < block.txs.size(); ++i) {
    new_outputs += block.txs[i].vout.size();
    if (i > 0) spends += block.txs[i].vin.size();
  }
  utxo.reserve(utxo.size() + new_outputs);
  undo.spent.reserve(spends);
  undo.created.reserve(new_outputs);

  // Contextual checks and UTXO application stay serial (they are order
  // dependent: intra-block spends must see earlier txs' outputs), while the
  // expensive input-script executions are batched and run across the check
  // queue afterwards. ScriptChecks copy the spent scriptPubKeys, so spending
  // the coins below does not invalidate them.
  std::vector<ScriptCheck> checks;
  std::vector<Amount> fees(block.txs.size(), 0);
  // Exec-cache keys of transactions that queued no checks (cache hits),
  // consumed once the block connects.
  std::vector<Hash256> consumed;
  std::size_t contextual_fail_index = block.txs.size();

  // Sighash midstates, one per transaction that queues checks, shared by
  // all of its deferred checks. A deque keeps them address-stable while
  // the batch grows.
  std::deque<PrecomputedTxData> precomps;

  for (std::size_t i = 1; i < block.txs.size(); ++i) {
    const Transaction& tx = block.txs[i];
    const std::size_t queued = checks.size();
    const TxValidationResult tx_result =
        check_tx_inputs(tx, utxo, height, params, &checks, i, &precomps);
    if (!tx_result.ok()) {
      result.error = BlockError::kBadTransaction;
      result.tx_failure = tx_result;
      result.failed_tx_index = i;
      contextual_fail_index = i;
      failed = true;
      break;
    }
    total_fees += tx_result.fee;
    fees[i] = tx_result.fee;

    // Apply: spend inputs (this also enforces intra-block double spends —
    // the second spend of the same outpoint fails check_tx_inputs above
    // because the coin is already gone).
    const Hash256 txid = tx.txid();
    if (checks.size() == queued) consumed.push_back(script_exec_key(txid));
    for (const TxIn& in : tx.vin) {
      auto coin = utxo.spend(in.prevout);
      undo.spent.emplace_back(in.prevout, *std::move(coin));
    }
    for (std::uint32_t v = 0; v < tx.vout.size(); ++v) {
      // OP_RETURN outputs are provably unspendable; they never enter the
      // UTXO set (directory announcements live only in block bodies).
      if (script::classify(tx.vout[v].script_pubkey).type ==
          script::ScriptType::kOpReturn) {
        continue;
      }
      const OutPoint op{txid, v};
      utxo.add(op, Coin{tx.vout[v], height, false});
      undo.created.push_back(op);
    }
  }

  // Run the batched scripts. Only transactions that fully passed their
  // contextual checks queued anything, so every queued index precedes any
  // contextual failure — and in serial order scripts of tx i run before
  // contextual checks of tx j>i, so the lowest-index script failure is
  // exactly what the serial path would have reported first.
  // Trusted replay (verify_scripts == false) drops the batch: the store
  // only logs blocks that already passed full validation.
  if (!verify_scripts) checks.clear();
  if (const auto script_failure =
          run_script_checks(checks, params.script_check_threads);
      script_failure && script_failure->tx_index < contextual_fail_index) {
    result.error = BlockError::kBadTransaction;
    result.tx_failure = TxValidationResult{
        TxError::kScriptFailed, script_failure->error,
        fees[script_failure->tx_index]};
    result.failed_tx_index = script_failure->tx_index;
    failed = true;
  }

  if (!failed) {
    const Transaction& coinbase = block.txs[0];
    if (coinbase.total_output() > params.block_reward + total_fees) {
      result.error = BlockError::kBadCoinbaseValue;
      failed = true;
    } else {
      const Hash256 cb_txid = coinbase.txid();
      for (std::uint32_t v = 0; v < coinbase.vout.size(); ++v) {
        const OutPoint op{cb_txid, v};
        utxo.add(op, Coin{coinbase.vout[v], height, true});
        undo.created.push_back(op);
      }
    }
  }

  if (failed) {
    rollback();
    return result;
  }

  // A confirmed transaction cannot be admitted or connected again on this
  // branch, so its entry has served its purpose.
  script_exec_cache().erase(consumed);
  return result;
}

void apply_block_from_undo(const Block& block, const BlockUndo& undo,
                           UtxoSet& utxo, int height) {
  // `undo.created` names exactly the outpoints connect_block added (it
  // already excludes OP_RETURN outputs); rebuild each coin from the block's
  // own outputs. The coinbase is always block.txs[0].
  //
  // Creates must run BEFORE spends: an output created and consumed by an
  // intra-block spend chain (offer + redeem confirming in the same block)
  // appears in both lists, and spending-first would leave it resurrected —
  // the replayed node mints coins its peers never saw.
  const Hash256 coinbase_txid = block.txs.empty() ? Hash256{}
                                                  : block.txs[0].txid();
  std::unordered_map<Hash256, const Transaction*, Hash256Hasher> by_txid;
  by_txid.reserve(block.txs.size());
  for (const Transaction& tx : block.txs) by_txid.emplace(tx.txid(), &tx);
  utxo.reserve(utxo.size() + undo.created.size());
  for (const OutPoint& op : undo.created) {
    const auto it = by_txid.find(op.txid);
    if (it == by_txid.end() || op.index >= it->second->vout.size()) continue;
    utxo.add(op, Coin{it->second->vout[op.index], height,
                      op.txid == coinbase_txid});
  }
  for (const auto& [op, coin] : undo.spent) utxo.spend(op);
}

void disconnect_block(const BlockUndo& undo, UtxoSet& utxo) {
  // Mirror image of the apply order above: restore the spent coins first,
  // then delete everything the block created. An intra-block-spent output
  // is in both lists; deleting last guarantees it ends up absent, as it was
  // before the block connected.
  for (auto it = undo.spent.rbegin(); it != undo.spent.rend(); ++it)
    utxo.add(it->first, it->second);
  for (const OutPoint& op : undo.created) utxo.spend(op);
}

}  // namespace bcwan::chain
