// The foreign gateway (paper: Raspberry Pi + RFM95 LoRa shield, plus the
// Golang BcWAN daemon wrapping Multichain).
//
// Runs the gateway's half of Fig. 3:
//   1-2. mints a fresh ephemeral RSA-512 pair per uplink request and
//        downlinks ePk;
//   6.   looks the recipient's IP up in the blockchain directory;
//   7.   forwards (Em, ePk, Sig) over simulated TCP;
//   10.  watches the mempool for the recipient's Listing-1 offer and
//        redeems it, revealing eSk on-chain — optionally only after the
//        offer has k confirmations (the §6 double-spend trade-off).
//
// Recovery (§6 extension):
//   * every accepted data frame is ACKed over the radio (and duplicates
//     from retransmitting nodes are re-ACKed);
//   * a data frame with no matching ephemeral key (state lost in a crash)
//     answers with a fresh ePk so the node can re-seal;
//   * DELIVER is retried with exponential backoff until the recipient
//     acknowledges it (DELIVER_ACK over the WAN);
//   * redeem transactions evicted by a reorg are re-submitted until they
//     confirm or the offer is settled another way;
//   * issued keys and awaited offers age out on a housekeeping sweep, so
//     long runs don't grow memory without bound.
// crash()/restart() emulate a gateway process dying: all in-flight state
// (issued keys, awaited offers, pending delivers/redeems) is dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bcwan/directory.hpp"
#include "bcwan/envelope.hpp"
#include "bcwan/timing.hpp"
#include "chain/wallet.hpp"
#include "lora/radio.hpp"
#include "p2p/chain_node.hpp"
#include "p2p/confirmations.hpp"
#include "p2p/event_loop.hpp"

namespace bcwan::core {

/// Byzantine behaviours a gateway can be flipped into by sim/adversary.
/// kHonest is the protocol; the others attack the fair exchange of Fig. 3:
///  * kWithholdKey: take the recipient's offer but never reveal eSk —
///    forces the OP_CHECKLOCKTIMEVERIFY reclaim branch of Listing 1.
///  * kGarbleKey: reveal a well-formed but *wrong* RSA-512 private key —
///    must be rejected by OP_CHECKRSA512PAIR at every validating node.
///  * kDoubleClaim: reveal honestly, then submit a second, conflicting
///    redeem of the same offer output (first-seen mempools must refuse it).
enum class GatewayMisbehavior {
  kHonest,
  kWithholdKey,
  kGarbleKey,
  kDoubleClaim,
};

struct GatewayConfig {
  /// Confirmations required on the offer before revealing eSk. The paper's
  /// PoC uses 0 ("we chose to allow the foreign gateway to not wait for
  /// confirmation ... This can be a security threat", §6).
  int confirmations_required = 0;
  chain::Amount redeem_fee = 500;
  /// Asking price per delivered message, quoted in the DELIVER payload.
  chain::Amount price_quote = chain::kCoin / 100;
  /// Forget an ephemeral key if no offer shows up for this long.
  util::SimTime offer_timeout = 30 * util::kMinute;
  /// Forget an issued-but-unconsumed ephemeral key after this long (the
  /// node never sent data, or died mid-exchange).
  util::SimTime issued_key_timeout = 30 * util::kMinute;
  /// DELIVER retry: base delay, doubled per attempt with jitter.
  util::SimTime deliver_retry_base = 5 * util::kSecond;
  int max_deliver_retries = 8;
  double backoff_factor = 2.0;
  util::SimTime max_backoff = 4 * util::kMinute;
  double backoff_jitter = 0.25;
  /// Drop a submitted redeem from the re-broadcast watch once it has this
  /// many confirmations.
  int redeem_confirm_depth = 1;
  int max_redeem_resubmits = 20;
  /// Period of the state-expiry sweep.
  util::SimTime housekeeping_interval = 30 * util::kSecond;
  /// Re-ACK window for duplicate data frames after the original was
  /// consumed (covers lost DataAck downlinks).
  util::SimTime reack_window = 10 * util::kMinute;
  /// Replay defence: remember the payload fingerprint of every consumed
  /// DATA frame this long. A duplicate inside reack_window is the node's
  /// own retransmission (re-ACK it); beyond that it is a replay and is
  /// silently dropped — never re-keyed, never forwarded, never settled.
  util::SimTime replay_window = util::kHour;
};

class GatewayAgent {
 public:
  GatewayAgent(p2p::EventLoop& loop, p2p::Transport& net, lora::LoraRadio& radio,
               p2p::ChainNode& node, Directory& directory,
               chain::Wallet wallet, TimingModel timing, GatewayConfig config,
               std::uint64_t seed);

  /// Must be called once after the radio gateway is registered.
  void attach_radio(lora::RadioGatewayId gateway);
  /// The uplink handler to register with the radio.
  void on_uplink(lora::RadioDeviceId from, const util::Bytes& frame);
  /// WAN entry point (DELIVER_ACK from recipients). Wire through the
  /// host's app handler alongside the recipient's.
  void handle_message(const p2p::Message& msg);

  /// Fault injection: drop the process. All in-flight exchange state is
  /// lost; the radio and chain daemon keep running (they are separate
  /// boxes in the paper's deployment).
  void crash();
  void restart();
  bool alive() const noexcept { return alive_; }

  /// Adversary injection (sim/adversary): flip this gateway byzantine.
  /// Takes effect on the next redeem; kHonest restores protocol behaviour.
  void set_misbehavior(GatewayMisbehavior m) noexcept { misbehavior_ = m; }
  GatewayMisbehavior misbehavior() const noexcept { return misbehavior_; }
  /// Fee-sniping: a withholding gateway sits on its redeems, then dumps
  /// them all the moment the recipient's reclaim appears — racing the
  /// timeout boundary. Returns the number of redeems released.
  std::size_t release_withheld_redeems();

  const chain::Wallet& wallet() const noexcept { return wallet_; }
  const script::PubKeyHash& pkh() const noexcept { return wallet_.pkh(); }

  /// Fired when the ephemeral key leaves the antenna — the paper's Fig. 5/6
  /// latency clock starts here ("from the first message from the gateway").
  std::function<void(std::uint16_t device_id)> on_ephemeral_sent;
  /// Fired when the DELIVER message has been sent to the recipient.
  std::function<void(std::uint16_t device_id)> on_forwarded;
  /// Fired when a redeem transaction is submitted (eSk revealed).
  std::function<void(std::uint16_t device_id)> on_redeemed;

  std::uint64_t keys_issued() const noexcept { return keys_issued_; }
  std::uint64_t frames_forwarded() const noexcept { return forwarded_; }
  std::uint64_t lookups_failed() const noexcept { return lookups_failed_; }
  std::uint64_t redeems_submitted() const noexcept { return redeems_; }
  std::uint64_t deliver_retries() const noexcept { return deliver_retries_; }
  std::uint64_t redeem_resubmits() const noexcept { return redeem_resubmits_; }
  std::uint64_t rekeys_issued() const noexcept { return rekeys_; }
  std::uint64_t keys_expired() const noexcept { return keys_expired_; }
  std::uint64_t offers_expired() const noexcept { return offers_expired_; }
  std::uint64_t redeems_withheld() const noexcept { return redeems_withheld_; }
  std::uint64_t garbled_submits() const noexcept { return garbled_submits_; }
  std::uint64_t garbled_rejected() const noexcept { return garbled_rejected_; }
  std::uint64_t double_claims() const noexcept { return double_claims_; }
  std::uint64_t double_claims_rejected() const noexcept {
    return double_claims_rejected_;
  }
  std::uint64_t replays_dropped() const noexcept { return replays_dropped_; }
  /// Reward actually banked (confirmed, mature outputs).
  chain::Amount confirmed_reward() const {
    return wallet_.balance(node_.chain());
  }

  /// In-flight state sizes (leak checks / invariants).
  std::size_t issued_key_count() const noexcept { return issued_keys_.size(); }
  std::size_t awaiting_offer_count() const noexcept {
    return awaiting_offer_.size();
  }
  std::size_t pending_redeem_count() const noexcept {
    return pending_redeems_.size();
  }
  std::size_t pending_deliver_count() const noexcept {
    return pending_delivers_.size();
  }
  std::size_t tracked_redeem_count() const noexcept {
    return submitted_redeems_.size();
  }

 private:
  struct PendingKey {
    crypto::RsaKeyPair keys;
    lora::RadioDeviceId radio_device = -1;
    util::SimTime issued_at = 0;
  };
  struct AwaitedOffer {
    crypto::RsaKeyPair keys;
    std::uint16_t device_id = 0;
    util::SimTime since = 0;
  };
  struct PendingRedeem {
    chain::OutPoint outpoint;
    chain::TxOut out;
    crypto::RsaPrivateKey ephemeral_priv;
    chain::Hash256 offer_txid{};
    std::uint16_t device_id = 0;
  };
  struct PendingDeliver {
    DeliverPayload payload;
    script::PubKeyHash recipient{};
    lora::RadioDeviceId radio_device = -1;
    int attempts = 0;
  };
  struct SubmittedRedeem {
    chain::Transaction tx;
    chain::Hash256 txid{};
    chain::OutPoint offer_outpoint;
    std::uint16_t device_id = 0;
    int resubmits = 0;
  };

  void handle_request(lora::RadioDeviceId from,
                      const lora::UplinkRequestFrame& frame);
  void send_ephemeral_key(std::uint16_t device_id, lora::RadioDeviceId from,
                          const util::Bytes& frame);
  void handle_data(lora::RadioDeviceId from, const lora::UplinkDataFrame& frame);
  void send_data_ack(std::uint16_t device_id, lora::RadioDeviceId from);
  void send_deliver(const std::string& handle);
  void on_mempool_tx(const chain::Transaction& tx);
  void on_block(const chain::Block& block);
  void submit_redeem(const PendingRedeem& redeem);
  void revisit_submitted_redeems();
  /// One revisit of a submitted redeem: true once it needs no more watching
  /// (buried, lost to a conflict, or out of resubmits).
  bool redeem_settled(SubmittedRedeem& sub);
  void schedule_housekeeping();
  void housekeeping();
  util::SimTime backoff_delay(util::SimTime base, int attempt);

  p2p::EventLoop& loop_;
  p2p::Transport& net_;
  lora::LoraRadio& radio_;
  p2p::ChainNode& node_;
  // Confirmation depths of awaited offers and submitted redeems. Declared
  // right after node_: its block watcher must run before on_block.
  p2p::TxConfirmations confirmations_;
  Directory& directory_;
  chain::Wallet wallet_;
  TimingModel timing_;
  GatewayConfig config_;
  util::Rng rng_;
  lora::RadioGatewayId radio_gateway_ = -1;
  bool alive_ = true;
  std::uint64_t epoch_ = 0;  // invalidates callbacks armed before a crash
  GatewayMisbehavior misbehavior_ = GatewayMisbehavior::kHonest;
  // Redeems held back under kWithholdKey (released by a fee-snipe).
  std::vector<PendingRedeem> withheld_redeems_;
  // Lazily minted decoy pair for kGarbleKey (wrong but well-formed eSk).
  std::optional<crypto::RsaKeyPair> decoy_keys_;

  // device id -> key pair issued and not yet consumed by a data frame.
  std::unordered_map<std::uint16_t, PendingKey> issued_keys_;
  // serialized ePk -> keys, waiting for the recipient's offer.
  std::unordered_map<std::string, AwaitedOffer> awaiting_offer_;
  // offers seen but still waiting for confirmations.
  std::vector<PendingRedeem> pending_redeems_;
  // serialized ePk -> DELIVER awaiting the recipient's DELIVER_ACK.
  std::unordered_map<std::string, PendingDeliver> pending_delivers_;
  // device id -> last consumed data frame (re-ACK duplicates).
  std::unordered_map<std::uint16_t, util::SimTime> recent_data_;
  // payload fingerprint -> first-seen time (replay defence; aged out after
  // replay_window by housekeeping).
  std::unordered_map<std::string, util::SimTime> seen_payloads_;
  // redeems submitted but not yet buried (reorg re-broadcast watch).
  std::vector<SubmittedRedeem> submitted_redeems_;

  std::uint64_t keys_issued_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t lookups_failed_ = 0;
  std::uint64_t redeems_ = 0;
  std::uint64_t deliver_retries_ = 0;
  std::uint64_t redeem_resubmits_ = 0;
  std::uint64_t rekeys_ = 0;
  std::uint64_t keys_expired_ = 0;
  std::uint64_t offers_expired_ = 0;
  std::uint64_t redeems_withheld_ = 0;
  std::uint64_t garbled_submits_ = 0;
  std::uint64_t garbled_rejected_ = 0;
  std::uint64_t double_claims_ = 0;
  std::uint64_t double_claims_rejected_ = 0;
  std::uint64_t replays_dropped_ = 0;
};

}  // namespace bcwan::core
