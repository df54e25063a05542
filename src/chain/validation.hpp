// Consensus validation: stateless transaction checks, contextual input
// checks (UTXO existence, maturity, script execution, locktime) and block
// connection with undo data.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "chain/block.hpp"
#include "chain/checkqueue.hpp"
#include "chain/params.hpp"
#include "chain/transaction.hpp"
#include "chain/utxo.hpp"

namespace bcwan::chain {

enum class TxError {
  kOk,
  kNoInputs,
  kNoOutputs,
  kOversized,
  kNegativeOutput,
  kOutputTooLarge,
  kDuplicateInput,
  kBadCoinbase,
  kOpReturnTooLarge,
  kMissingInput,
  kImmatureCoinbase,
  kInputValueOutOfRange,
  kFeeNegative,
  kLocktimeNotReached,
  kScriptFailed,
};

std::string tx_error_name(TxError err);

struct TxValidationResult {
  TxError error = TxError::kOk;
  script::ScriptError script_error = script::ScriptError::kOk;
  Amount fee = 0;

  bool ok() const noexcept { return error == TxError::kOk; }
};

/// Context-free checks (shape, sizes, value ranges, duplicate inputs).
TxValidationResult check_transaction(const Transaction& tx,
                                     const ChainParams& params);

/// Contextual checks against a coin view, assuming the transaction would
/// confirm at `height`. Does NOT mutate the view. Coinbases are rejected
/// here (they are only valid as the first transaction of a block).
///
/// Script execution is the expensive tail: when `deferred_checks` is null
/// the input scripts run inline (mempool admission); when non-null the
/// scripts are appended as ScriptChecks tagged with `tx_index` for the
/// caller to batch across the check queue (connect_block), and the returned
/// result covers only the contextual checks. Either way, a transaction the
/// script-execution cache already knows skips script work entirely.
///
/// Deferred checks take the midstate sighash fast path through a
/// PrecomputedTxData built into `precomps` (address-stable, owned by the
/// caller) — only for transactions that actually queue checks, so a block
/// of mempool-known transactions builds none.
TxValidationResult check_tx_inputs(
    const Transaction& tx, const CoinView& utxo, int height,
    const ChainParams& params,
    std::vector<ScriptCheck>* deferred_checks = nullptr,
    std::size_t tx_index = 0,
    std::deque<PrecomputedTxData>* precomps = nullptr);

enum class BlockError {
  kOk,
  kEmpty,
  kOversized,
  kBadPow,
  kBadMerkleRoot,
  kFirstTxNotCoinbase,
  kMultipleCoinbases,
  kBadTransaction,
  kBadCoinbaseValue,
  kDoubleSpendInBlock,
  kBadProposer,  // PoS: wrong slot leader or bad header signature
  kMinerNotPermitted,  // permissioned chain: coinbase pays an outsider
  kBadCoinbaseHeight,  // coinbase scriptSig does not open with the height
};

std::string block_error_name(BlockError err);

struct BlockValidationResult {
  BlockError error = BlockError::kOk;
  TxValidationResult tx_failure;   // set when error == kBadTransaction
  std::size_t failed_tx_index = 0;

  bool ok() const noexcept { return error == BlockError::kOk; }
};

/// Per-block undo record: what connect_block spent and created.
struct BlockUndo {
  std::vector<std::pair<OutPoint, Coin>> spent;
  std::vector<OutPoint> created;

  friend bool operator==(const BlockUndo&, const BlockUndo&) = default;
};

/// Undo serialization (block-log records and chainstate snapshots).
void write_undo(util::Writer& w, const BlockUndo& undo);
/// Throws util::DeserializeError on malformed input.
BlockUndo read_undo(util::Reader& r);

/// Structure-only checks (PoW, merkle root, coinbase placement, size).
BlockValidationResult check_block(const Block& block,
                                  const ChainParams& params);

/// Full contextual validation; on success the UTXO set is updated and
/// `undo` describes how to roll it back. On failure the set is untouched.
/// At height >= 1 the coinbase scriptSig must begin with push_int(height)
/// (BIP34), so no two coinbases, and hence no two transactions, share a
/// txid. Transactions the script-execution cache knows skip their scripts,
/// and a block that connects consumes those cache entries.
/// `verify_scripts = false` skips input-script execution — the store's
/// trusted replay path, where every block was fully validated before it
/// reached the CRC-protected log; all contextual checks (maturity, fees,
/// missing inputs, double spends) still run.
BlockValidationResult connect_block(const Block& block, UtxoSet& utxo,
                                    int height, const ChainParams& params,
                                    BlockUndo& undo,
                                    bool verify_scripts = true);

/// Re-apply a block's recorded UTXO delta with no validation at all — the
/// replay fast path for log records that carry their undo. Spends exactly
/// `undo.spent`, re-creates exactly `undo.created` (coin data rebuilt from
/// the block's outputs at `height`). The caller owns integrity (the log's
/// CRC) and ordering (records replay in append order).
void apply_block_from_undo(const Block& block, const BlockUndo& undo,
                           UtxoSet& utxo, int height);

/// Roll a connected block back out of the UTXO set.
void disconnect_block(const BlockUndo& undo, UtxoSet& utxo);

}  // namespace bcwan::chain
