#include "chain/miner.hpp"

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace bcwan::chain {

namespace {

// The chainstate as the block under assembly changes it: spends and new
// outputs recorded over the chain's UTXO set, which stays untouched. A
// copy of the set would cost O(UTXO set) per block in time and peak heap.
class BlockCoinView : public CoinView {
 public:
  explicit BlockCoinView(const UtxoSet& base) : base_(base) {}

  std::optional<Coin> get(const OutPoint& op) const override {
    if (const auto it = added_.find(op); it != added_.end()) return it->second;
    if (spent_.count(op) != 0) return std::nullopt;
    return base_.get(op);
  }

  void apply(const Transaction& tx, int height) {
    for (const TxIn& in : tx.vin) {
      if (added_.erase(in.prevout) == 0) spent_.insert(in.prevout);
    }
    const Hash256 txid = tx.txid();
    for (std::uint32_t v = 0; v < tx.vout.size(); ++v) {
      if (script::classify(tx.vout[v].script_pubkey).type ==
          script::ScriptType::kOpReturn) {
        continue;
      }
      added_.emplace(OutPoint{txid, v}, Coin{tx.vout[v], height, false});
    }
  }

 private:
  const UtxoSet& base_;
  std::unordered_set<OutPoint, OutPointHasher> spent_;
  std::unordered_map<OutPoint, Coin, OutPointHasher> added_;
};

}  // namespace

Block Miner::assemble(const Blockchain& chain, const Mempool& pool,
                      std::uint64_t time) const {
  const int new_height = chain.height() + 1;

  // Leave room for the coinbase.
  const std::size_t budget = params_.max_block_size - 1000;
  const std::vector<Transaction> candidates = pool.select_for_block(budget);

  // Re-validate the selection against the chainstate as the block changes
  // it and accumulate fees; anything that no longer validates (e.g. its
  // input got confirmed elsewhere) is skipped.
  BlockCoinView scratch(chain.utxo());
  std::vector<Transaction> included;
  Amount fees = 0;
  for (const Transaction& tx : candidates) {
    if (tx_filter_ && !tx_filter_(tx)) {
      ++censored_;
      continue;
    }
    const TxValidationResult result =
        check_tx_inputs(tx, scratch, new_height, params_);
    if (!result.ok()) continue;
    fees += result.fee;
    scratch.apply(tx, new_height);
    included.push_back(tx);
  }

  Block block;
  Transaction coinbase;
  TxIn in;
  in.prevout = coinbase_prevout();
  script::Script tag;
  tag.push_int(new_height);  // height makes every coinbase unique
  in.script_sig = tag;
  coinbase.vin.push_back(std::move(in));
  TxOut reward;
  reward.value = params_.block_reward + fees;
  reward.script_pubkey = script::make_p2pkh(reward_dest_);
  coinbase.vout.push_back(std::move(reward));

  block.txs.push_back(std::move(coinbase));
  block.txs.insert(block.txs.end(), included.begin(), included.end());
  block.header.prev_block = chain.tip_hash();
  block.header.merkle_root =
      compute_merkle_root(block.txs, params_.script_check_threads);
  block.header.time = time;
  block.header.target_zero_bits = params_.pow_zero_bits;
  return block;
}

bool Miner::is_scheduled(const Blockchain& chain) const {
  if (params_.consensus == ConsensusMode::kProofOfWork) return true;
  if (!pos_key_) return false;
  const std::size_t slot = scheduled_proposer(
      params_.validators, chain.tip_hash(), chain.height() + 1);
  return params_.validators[slot].pubkey ==
         crypto::ec_pubkey_encode(pos_key_->pub);
}

Block Miner::mine(const Blockchain& chain, const Mempool& pool,
                  std::uint64_t time) const {
  Block block = assemble(chain, pool, time);
  if (params_.consensus == ConsensusMode::kProofOfStake) {
    if (!pos_key_) throw std::logic_error("Miner: PoS key not set");
    if (!is_scheduled(chain))
      throw std::logic_error("Miner: not the scheduled slot leader");
    pos_sign_block(block.header, *pos_key_);
    return block;
  }
  if (!solve_pow(block.header))
    throw std::runtime_error("Miner: nonce space exhausted");
  return block;
}

}  // namespace bcwan::chain
