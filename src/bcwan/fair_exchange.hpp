// The fair exchange as a standalone, transport-agnostic state machine.
//
// GatewayAgent and RecipientAgent embed this protocol in their event
// handlers; this header packages the same moves as two small objects for
// downstream users who bring their own networking:
//
//   seller (gateway)                     buyer (recipient)
//   ----------------                     -----------------
//   FairExchangeSeller s(wallet);        FairExchangeBuyer b(wallet, s.ephemeral_pub(),
//     -> hand s.ephemeral_pub() to                            seller_pkh, price, ...);
//        the device / buyer              tx = b.make_offer(chain, pool)   // broadcast
//   redeem = s.try_redeem(tx, fee)       eSk = b.observe(redeem)          // from gossip
//     // broadcast; reveals eSk          // or, if the seller went silent:
//                                        reclaim = b.make_reclaim(height) // after timeout
//
// Invariant (tested): the buyer recovers eSk if and only if the seller
// produced a redeem transaction that can pay it.
#pragma once

#include <optional>

#include "chain/wallet.hpp"
#include "crypto/rsa.hpp"

namespace bcwan::core {

/// The gateway-side role: owns the ephemeral pair, waits for an offer
/// locked to it, redeems by revealing eSk.
class FairExchangeSeller {
 public:
  enum class State { kAwaitingOffer, kRedeemed };

  /// `wallet` receives the payment; `ephemeral` is the per-message pair
  /// whose public half the buyer's data was encrypted under.
  FairExchangeSeller(const chain::Wallet& wallet, crypto::RsaKeyPair ephemeral);

  const crypto::RsaPublicKey& ephemeral_pub() const noexcept {
    return ephemeral_.pub;
  }
  State state() const noexcept { return state_; }

  /// Inspect a transaction (from the mempool/gossip). If it is a Listing-1
  /// offer addressed to this seller's identity and ephemeral key, build the
  /// redeem that claims it (revealing eSk). At most one redeem is produced.
  /// Only an output that opens with the push make_key_release writes for
  /// this seller's ePk is decoded; an offer carrying the key in any other
  /// encoding is not redeemed.
  std::optional<chain::Transaction> try_redeem(
      const chain::Transaction& candidate_offer, chain::Amount fee);

 private:
  const chain::Wallet& wallet_;
  crypto::RsaKeyPair ephemeral_;
  // The opening push of an offer to this ePk, as make_key_release writes it.
  util::Bytes offer_prefix_;
  State state_ = State::kAwaitingOffer;
};

/// The recipient-side role: posts the offer, watches for the redeem, and
/// reclaims through the CLTV branch if the seller goes silent.
class FairExchangeBuyer {
 public:
  enum class State { kInit, kOffered, kSettled, kReclaimed };

  FairExchangeBuyer(const chain::Wallet& wallet,
                    crypto::RsaPublicKey ephemeral_pub,
                    const script::PubKeyHash& seller, chain::Amount price,
                    chain::Amount fee, int timeout_blocks)
      : wallet_(wallet),
        ephemeral_pub_(std::move(ephemeral_pub)),
        seller_(seller),
        price_(price),
        fee_(fee),
        timeout_blocks_(timeout_blocks) {}

  State state() const noexcept { return state_; }
  std::int64_t timeout_height() const noexcept { return timeout_height_; }

  /// Build the Listing-1 offer (protocol step 9). Call once; broadcast the
  /// result. std::nullopt if the wallet lacks funds.
  std::optional<chain::Transaction> make_offer(const chain::Blockchain& chain,
                                               const chain::Mempool* pool);

  /// Feed every transaction observed on the network. Returns the revealed
  /// ephemeral secret key when the seller's redeem passes by (step 10) —
  /// verified against the expected public key before being accepted.
  std::optional<crypto::RsaPrivateKey> observe(const chain::Transaction& tx);

  /// After the timeout height, build the CLTV reclaim. std::nullopt before
  /// the timeout, before an offer exists, or after settlement.
  std::optional<chain::Transaction> make_reclaim(int current_height);

 private:
  const chain::Wallet& wallet_;
  crypto::RsaPublicKey ephemeral_pub_;
  script::PubKeyHash seller_;
  chain::Amount price_;
  chain::Amount fee_;
  int timeout_blocks_;

  State state_ = State::kInit;
  chain::OutPoint offer_outpoint_;
  chain::TxOut offer_out_;
  std::int64_t timeout_height_ = 0;
};

}  // namespace bcwan::core
