#include "chain/wallet.hpp"

#include <algorithm>

#include "crypto/base58.hpp"

namespace bcwan::chain {

std::string encode_address(const script::PubKeyHash& pkh) {
  return crypto::base58check_encode(kAddressVersion,
                                    util::ByteView(pkh.data(), pkh.size()));
}

std::optional<script::PubKeyHash> decode_address(const std::string& address) {
  const auto decoded = crypto::base58check_decode(address);
  if (!decoded || decoded->version != kAddressVersion ||
      decoded->payload.size() != 20) {
    return std::nullopt;
  }
  script::PubKeyHash pkh;
  std::copy(decoded->payload.begin(), decoded->payload.end(), pkh.begin());
  return pkh;
}

Wallet::Wallet(crypto::EcKeyPair identity) : identity_(std::move(identity)) {
  pubkey_ = crypto::ec_pubkey_encode(identity_.pub);
  pkh_ = script::to_pubkey_hash(pubkey_);
  address_ = encode_address(pkh_);
  own_script_ = script::make_p2pkh(pkh_);
}

Wallet Wallet::from_seed(std::string_view name) {
  return Wallet(crypto::ec_from_seed(util::str_bytes(name)));
}

void Wallet::sync_coins(const Blockchain& chain) const {
  CoinCache& cache = coins_;
  const bool extends =
      cache.chain == &chain && cache.height >= 0 &&
      cache.height <= chain.height() &&
      chain.active_chain()[static_cast<std::size_t>(cache.height)] ==
          cache.tip;
  if (!extends) {
    cache.chain = &chain;
    cache.coins.clear();
    chain.utxo().for_each([&](const OutPoint& op, const Coin& coin) {
      if (coin.out.script_pubkey == own_script_) cache.coins.emplace(op, coin);
    });
    ++cache.rebuilds;
  } else {
    for (int h = cache.height + 1; h <= chain.height(); ++h) {
      const std::optional<Block> block = chain.block_at(h);
      for (std::size_t i = 0; i < block->txs.size(); ++i) {
        const Transaction& tx = block->txs[i];
        if (i > 0) {
          for (const TxIn& in : tx.vin) cache.coins.erase(in.prevout);
        }
        for (std::uint32_t v = 0; v < tx.vout.size(); ++v) {
          if (tx.vout[v].script_pubkey == own_script_)
            cache.coins[OutPoint{tx.txid(), v}] = Coin{tx.vout[v], h, i == 0};
        }
      }
    }
  }
  cache.height = chain.height();
  cache.tip = chain.tip_hash();
}

std::vector<std::pair<OutPoint, Coin>> Wallet::spendable(
    const Blockchain& chain, const Mempool* pool) const {
  sync_coins(chain);
  std::vector<std::pair<OutPoint, Coin>> coins;
  coins.reserve(coins_.coins.size());
  for (const auto& [op, coin] : coins_.coins) {
    if (coin.coinbase &&
        chain.height() + 1 - coin.height < chain.params().coinbase_maturity) {
      continue;
    }
    if (pool != nullptr && pool->spends(op)) continue;
    coins.emplace_back(op, coin);
  }
  // Own unconfirmed outputs (change waiting in the mempool) are spendable
  // too — otherwise a wallet with one UTXO deadlocks on concurrent offers.
  if (pool != nullptr) {
    pool->for_each([&](const Transaction& tx) {
      const Hash256 txid = tx.txid();
      for (std::uint32_t v = 0; v < tx.vout.size(); ++v) {
        if (!(tx.vout[v].script_pubkey == own_script_)) continue;
        const OutPoint op{txid, v};
        if (pool->spends(op)) continue;
        coins.emplace_back(op, Coin{tx.vout[v], chain.height() + 1, false});
      }
    });
  }
  // Largest first; equal values by outpoint, so the choice never follows
  // hash-map order (which differs between a chain rebuilt from a delta
  // and one built by live connects).
  std::sort(coins.begin(), coins.end(),
            [](const auto& a, const auto& b) {
              if (a.second.out.value != b.second.out.value)
                return a.second.out.value > b.second.out.value;
              if (a.first.txid != b.first.txid)
                return a.first.txid < b.first.txid;
              return a.first.index < b.first.index;
            });
  return coins;
}

Amount Wallet::balance(const Blockchain& chain, const Mempool* pool) const {
  Amount total = 0;
  for (const auto& [op, coin] : spendable(chain, pool))
    total += coin.out.value;
  return total;
}

std::optional<Wallet::Funding> Wallet::select_coins(const Blockchain& chain,
                                                    const Mempool* pool,
                                                    Amount target) const {
  Funding funding;
  for (auto& entry : spendable(chain, pool)) {
    funding.total += entry.second.out.value;
    funding.inputs.push_back(std::move(entry));
    if (funding.total >= target) return funding;
  }
  return std::nullopt;
}

Transaction Wallet::build_and_sign(const Funding& funding,
                                   std::vector<TxOut> outputs,
                                   Amount change) const {
  Transaction tx;
  for (const auto& [op, coin] : funding.inputs) {
    TxIn in;
    in.prevout = op;
    tx.vin.push_back(std::move(in));
  }
  tx.vout = std::move(outputs);
  if (change > 0) {
    TxOut back;
    back.value = change;
    back.script_pubkey = own_script_;
    tx.vout.push_back(std::move(back));
  }
  // One midstate set serves every input: the sighash template ignores
  // scriptSigs, so signatures landing in earlier inputs don't stale it.
  const PrecomputedTxData precomp(tx);
  for (std::size_t i = 0; i < tx.vin.size(); ++i) {
    sign_p2pkh_input(tx, i, funding.inputs[i].second.out.script_pubkey,
                     &precomp);
  }
  return tx;
}

void Wallet::sign_p2pkh_input(Transaction& tx, std::size_t index,
                              const script::Script& spent_script,
                              const PrecomputedTxData* precomp) const {
  const crypto::Digest256 digest =
      precomp ? precomp->sighash(index, spent_script)
              : crypto::sha256d(
                    signature_hash_message(tx, index, spent_script));
  const crypto::EcdsaSignature sig =
      crypto::ecdsa_sign_digest(identity_.priv, digest);
  tx.vin[index].script_sig =
      script::make_p2pkh_scriptsig(sig.serialize(), pubkey_);
  tx.invalidate_txid();
}

std::optional<Transaction> Wallet::create_payment(
    const Blockchain& chain, const Mempool* pool,
    const script::PubKeyHash& dest, Amount amount, Amount fee) const {
  const auto funding = select_coins(chain, pool, amount + fee);
  if (!funding) return std::nullopt;
  TxOut out;
  out.value = amount;
  out.script_pubkey = script::make_p2pkh(dest);
  return build_and_sign(*funding, {std::move(out)},
                        funding->total - amount - fee);
}

std::optional<Transaction> Wallet::create_announcement(const Blockchain& chain,
                                                       const Mempool* pool,
                                                       util::ByteView data,
                                                       Amount fee) const {
  const auto funding = select_coins(chain, pool, fee);
  if (!funding) return std::nullopt;
  TxOut out;
  out.value = 0;
  out.script_pubkey = script::make_op_return(data);
  return build_and_sign(*funding, {std::move(out)}, funding->total - fee);
}

std::optional<Transaction> Wallet::create_key_release_offer(
    const Blockchain& chain, const Mempool* pool,
    const crypto::RsaPublicKey& ephemeral_pub,
    const script::PubKeyHash& gateway, Amount amount, Amount fee,
    std::int64_t timeout_height) const {
  const auto funding = select_coins(chain, pool, amount + fee);
  if (!funding) return std::nullopt;
  TxOut out;
  out.value = amount;
  out.script_pubkey =
      script::make_key_release(ephemeral_pub, gateway, pkh_, timeout_height);
  return build_and_sign(*funding, {std::move(out)},
                        funding->total - amount - fee);
}

Transaction Wallet::create_redeem(const OutPoint& offer_outpoint,
                                  const TxOut& offer_out,
                                  const crypto::RsaPrivateKey& ephemeral_priv,
                                  Amount fee) const {
  Transaction tx;
  TxIn in;
  in.prevout = offer_outpoint;
  tx.vin.push_back(std::move(in));
  TxOut out;
  out.value = offer_out.value - fee;
  out.script_pubkey = own_script_;
  tx.vout.push_back(std::move(out));

  const util::Bytes message =
      signature_hash_message(tx, 0, offer_out.script_pubkey);
  const crypto::EcdsaSignature sig =
      crypto::ecdsa_sign(identity_.priv, message);
  tx.vin[0].script_sig = script::make_key_release_redeem(
      sig.serialize(), pubkey_, ephemeral_priv);
  tx.invalidate_txid();
  return tx;
}

Transaction Wallet::create_reclaim(const OutPoint& offer_outpoint,
                                   const TxOut& offer_out,
                                   std::int64_t timeout_height,
                                   Amount fee) const {
  Transaction tx;
  tx.locktime = static_cast<std::uint32_t>(timeout_height);
  TxIn in;
  in.prevout = offer_outpoint;
  in.sequence = kSequenceFinal - 1;  // enable locktime semantics
  tx.vin.push_back(std::move(in));
  TxOut out;
  out.value = offer_out.value - fee;
  out.script_pubkey = own_script_;
  tx.vout.push_back(std::move(out));

  const util::Bytes message =
      signature_hash_message(tx, 0, offer_out.script_pubkey);
  const crypto::EcdsaSignature sig =
      crypto::ecdsa_sign(identity_.priv, message);
  tx.vin[0].script_sig =
      script::make_key_release_reclaim(sig.serialize(), pubkey_);
  tx.invalidate_txid();
  return tx;
}

}  // namespace bcwan::chain
