#include "bcwan/fair_exchange.hpp"

#include <algorithm>

namespace bcwan::core {

FairExchangeSeller::FairExchangeSeller(const chain::Wallet& wallet,
                                       crypto::RsaKeyPair ephemeral)
    : wallet_(wallet),
      ephemeral_(std::move(ephemeral)),
      offer_prefix_(script::Script().push(ephemeral_.pub.serialize()).bytes()) {}

std::optional<chain::Transaction> FairExchangeSeller::try_redeem(
    const chain::Transaction& candidate_offer, chain::Amount fee) {
  if (state_ != State::kAwaitingOffer) return std::nullopt;
  for (std::uint32_t v = 0; v < candidate_offer.vout.size(); ++v) {
    // Every open sale sees every transaction: a byte compare rules out
    // other sales' offers before the script decode and key parse.
    const util::Bytes& program =
        candidate_offer.vout[v].script_pubkey.bytes();
    if (program.size() < offer_prefix_.size() ||
        !std::equal(offer_prefix_.begin(), offer_prefix_.end(),
                    program.begin())) {
      continue;
    }
    const auto classified =
        script::classify(candidate_offer.vout[v].script_pubkey);
    if (classified.type != script::ScriptType::kKeyRelease) continue;
    if (classified.pubkey_hash != wallet_.pkh()) continue;
    if (!classified.ephemeral_pub ||
        !(*classified.ephemeral_pub == ephemeral_.pub)) {
      continue;
    }
    state_ = State::kRedeemed;
    return wallet_.create_redeem(chain::OutPoint{candidate_offer.txid(), v},
                                 candidate_offer.vout[v], ephemeral_.priv,
                                 fee);
  }
  return std::nullopt;
}

std::optional<chain::Transaction> FairExchangeBuyer::make_offer(
    const chain::Blockchain& chain, const chain::Mempool* pool) {
  if (state_ != State::kInit) return std::nullopt;
  timeout_height_ = chain.height() + timeout_blocks_;
  const auto offer = wallet_.create_key_release_offer(
      chain, pool, ephemeral_pub_, seller_, price_, fee_, timeout_height_);
  if (!offer) return std::nullopt;
  offer_outpoint_ = chain::OutPoint{offer->txid(), 0};
  offer_out_ = offer->vout[0];
  state_ = State::kOffered;
  return offer;
}

std::optional<crypto::RsaPrivateKey> FairExchangeBuyer::observe(
    const chain::Transaction& tx) {
  if (state_ != State::kOffered) return std::nullopt;
  for (const chain::TxIn& in : tx.vin) {
    if (!(in.prevout == offer_outpoint_)) continue;
    const auto revealed = script::extract_revealed_key(in.script_sig);
    if (!revealed) continue;  // our own reclaim or malformed spend
    if (!crypto::rsa_pair_matches(ephemeral_pub_, *revealed)) continue;
    state_ = State::kSettled;
    return revealed;
  }
  return std::nullopt;
}

std::optional<chain::Transaction> FairExchangeBuyer::make_reclaim(
    int current_height) {
  if (state_ != State::kOffered) return std::nullopt;
  if (current_height + 1 < timeout_height_) return std::nullopt;
  state_ = State::kReclaimed;
  return wallet_.create_reclaim(offer_outpoint_, offer_out_, timeout_height_,
                                fee_);
}

}  // namespace bcwan::core
