// The recipient (the actor's application-server side, co-located with its
// own gateway host in the federation).
//
// Runs the recipient's half of Fig. 3:
//   8.  verifies the envelope signature with the device's provisioned Pk;
//   9.  posts the Listing-1 offer transaction paying the forwarding
//       gateway for eSk;
//   10. watches the mempool for the gateway's redeem, extracts eSk from
//       its scriptSig, peels RSA then AES, and hands the reading to the
//       application;
//   — and if the gateway never reveals, reclaims the offer through the
//     OP_CHECKLOCKTIMEVERIFY branch after the timeout height.
//
// It also owns the directory announcement for its IP (§4.3).
//
// Recovery (§6 extension):
//   * every well-formed DELIVER is answered with a DELIVER_ACK so the
//     gateway's retry loop can stop — including rejects, which would
//     otherwise be retried for nothing;
//   * retransmitted DELIVERs for an exchange already in flight are
//     deduplicated by ephemeral key (no double offer);
//   * offer and reclaim transactions evicted by a reorg are re-broadcast
//     until they confirm or their conflict wins.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bcwan/directory.hpp"
#include "bcwan/envelope.hpp"
#include "bcwan/timing.hpp"
#include "chain/wallet.hpp"
#include "p2p/chain_node.hpp"
#include "p2p/confirmations.hpp"
#include "p2p/event_loop.hpp"

namespace bcwan::core {

struct RecipientConfig {
  /// Fallback price when the gateway quotes nothing (legacy fixed mode).
  chain::Amount price = chain::kCoin / 100;
  /// Ceiling for negotiated quotes: a DELIVER asking more than this is
  /// declined (no offer is posted; the gateway forwarded for nothing).
  chain::Amount max_price = chain::kCoin / 50;
  chain::Amount offer_fee = 500;
  chain::Amount reclaim_fee = 500;
  /// Blocks until the CLTV reclaim branch opens (paper: height + 100).
  int timeout_blocks = 100;
  /// Refuse to pay (misbehaving-recipient experiments).
  bool pay_for_data = true;
  /// Reorg recovery: re-broadcast budget for evicted offers/reclaims.
  int max_rebroadcasts = 20;
  /// Retransmitted DELIVERs within this window of an accepted one are
  /// duplicates, not new exchanges.
  util::SimTime deliver_dedupe_window = util::kHour;
};

class RecipientAgent {
 public:
  RecipientAgent(p2p::EventLoop& loop, p2p::Transport& net, p2p::ChainNode& node,
                 chain::Wallet wallet, TimingModel timing,
                 RecipientConfig config, std::uint64_t seed);

  /// Provisioning registration: the recipient's view of a device is
  /// (device id, K, Pk).
  void register_device(const NodeProvisioning& provisioning);

  /// Publish this recipient's IP in the blockchain directory.
  bool announce_ip(IpAddress ip, std::uint16_t port);

  /// Entry point for DELIVER messages (wire through the host's app
  /// handler).
  void handle_message(const p2p::Message& msg);

  const chain::Wallet& wallet() const noexcept { return wallet_; }
  const script::PubKeyHash& pkh() const noexcept { return wallet_.pkh(); }

  /// Fired when a reading has been decrypted and handed to the application.
  std::function<void(std::uint16_t device_id, const util::Bytes& reading)>
      on_reading;
  /// Fired when an offer transaction enters the local mempool.
  std::function<void(std::uint16_t device_id)> on_offer_posted;
  /// Fired when a reclaim is submitted after a gateway withheld eSk.
  std::function<void(std::uint16_t device_id)> on_reclaimed;

  std::uint64_t deliveries_received() const noexcept { return deliveries_; }
  std::uint64_t signature_rejects() const noexcept { return sig_rejects_; }
  std::uint64_t price_rejects() const noexcept { return price_rejects_; }
  std::uint64_t offers_posted() const noexcept { return offers_; }
  std::uint64_t readings_decrypted() const noexcept { return decrypted_; }
  std::uint64_t reclaims_submitted() const noexcept { return reclaims_; }
  std::uint64_t duplicate_deliveries() const noexcept { return duplicates_; }
  std::uint64_t offer_rebroadcasts() const noexcept {
    return offer_rebroadcasts_;
  }
  std::uint64_t reclaim_rebroadcasts() const noexcept {
    return reclaim_rebroadcasts_;
  }
  std::uint64_t acks_sent() const noexcept { return acks_sent_; }
  /// Exchanges given up for good (rebroadcast budget exhausted with the
  /// offer or reclaim unrecoverable). Money may be stranded; the invariant
  /// layer counts these as explicit losses, never as silent leaks.
  std::uint64_t exchanges_abandoned() const noexcept {
    return exchanges_abandoned_;
  }

  /// Unsettled exchanges (leak checks / invariants).
  std::size_t pending_exchange_count() const noexcept {
    return pending_.size();
  }

 private:
  struct DeviceView {
    crypto::AesKey256 k{};
    crypto::RsaPublicKey verify_key;
  };
  struct PendingExchange {
    std::uint16_t device_id = 0;
    util::Bytes em;
    crypto::RsaPublicKey ephemeral_pub;
    chain::Transaction offer_tx;  // kept whole for reorg re-broadcast
    chain::Hash256 offer_txid{};
    chain::OutPoint offer_outpoint;
    chain::TxOut offer_out;
    std::int64_t timeout_height = 0;
    int rebroadcasts = 0;
    bool reclaiming = false;  // reclaim submitted, awaiting burial
    chain::Transaction reclaim_tx;
    chain::Hash256 reclaim_txid{};
    bool settled = false;
  };

  void handle_deliver(const DeliverPayload& payload);
  void post_offer(const DeliverPayload& payload, int attempt);
  void on_mempool_tx(const chain::Transaction& tx);
  void on_block(const chain::Block& block);
  /// If `in` spends this exchange's offer and carries a matching eSk,
  /// settle the exchange (decrypt + hand the reading up). Returns whether
  /// it settled. Shared by the mempool watcher and the block scanner.
  bool try_extract_reveal(PendingExchange& pending, const chain::TxIn& in);
  void maybe_reclaim(PendingExchange& pending, int height);
  void revisit_transactions(PendingExchange& pending);
  /// Drop settled exchanges and stop tracking their transactions.
  void drop_settled();

  p2p::EventLoop& loop_;
  p2p::Transport& net_;
  p2p::ChainNode& node_;
  // Confirmation depths of pending offers and reclaims. Declared right
  // after node_: its block watcher must run before on_block.
  p2p::TxConfirmations confirmations_;
  chain::Wallet wallet_;
  TimingModel timing_;
  RecipientConfig config_;
  util::Rng rng_;

  std::unordered_map<std::uint16_t, DeviceView> devices_;
  std::vector<PendingExchange> pending_;
  // serialized-ePk hex of accepted deliveries -> acceptance time (dedupe).
  std::unordered_map<std::string, util::SimTime> accepted_delivers_;

  std::uint64_t deliveries_ = 0;
  std::uint64_t sig_rejects_ = 0;
  std::uint64_t price_rejects_ = 0;
  std::uint64_t offers_ = 0;
  std::uint64_t decrypted_ = 0;
  std::uint64_t reclaims_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t offer_rebroadcasts_ = 0;
  std::uint64_t reclaim_rebroadcasts_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t exchanges_abandoned_ = 0;
};

}  // namespace bcwan::core
