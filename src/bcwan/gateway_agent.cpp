#include "bcwan/gateway_agent.hpp"

#include <algorithm>
#include <cmath>

#include "crypto/sha256.hpp"

namespace bcwan::core {

namespace {
std::string key_handle(const crypto::RsaPublicKey& pub) {
  return util::to_hex(pub.serialize());
}

/// Replay-defence fingerprint of a DATA frame: the sealed payload is bound
/// to the device by the node's signature, so device_id || Em || Sig uniquely
/// identifies one sealed reading regardless of which ephemeral key it rode
/// in on.
std::string payload_fingerprint(const lora::UplinkDataFrame& frame) {
  util::Bytes buf;
  buf.reserve(2 + frame.em.size() + frame.sig.size());
  buf.push_back(static_cast<std::uint8_t>(frame.device_id >> 8));
  buf.push_back(static_cast<std::uint8_t>(frame.device_id & 0xff));
  buf.insert(buf.end(), frame.em.begin(), frame.em.end());
  buf.insert(buf.end(), frame.sig.begin(), frame.sig.end());
  const crypto::Digest256 digest = crypto::sha256(buf);
  return std::string(reinterpret_cast<const char*>(digest.data()),
                     digest.size());
}
}  // namespace

GatewayAgent::GatewayAgent(p2p::EventLoop& loop, p2p::Transport& net,
                           lora::LoraRadio& radio, p2p::ChainNode& node,
                           Directory& directory, chain::Wallet wallet,
                           TimingModel timing, GatewayConfig config,
                           std::uint64_t seed)
    : loop_(loop),
      net_(net),
      radio_(radio),
      node_(node),
      confirmations_(node),
      directory_(directory),
      wallet_(std::move(wallet)),
      timing_(timing),
      config_(config),
      rng_(seed) {
  node_.add_tx_watcher(
      [this](const chain::Transaction& tx) { on_mempool_tx(tx); });
  node_.add_block_watcher(
      [this](const chain::Block& block) { on_block(block); });
  schedule_housekeeping();
}

void GatewayAgent::attach_radio(lora::RadioGatewayId gateway) {
  radio_gateway_ = gateway;
}

util::SimTime GatewayAgent::backoff_delay(util::SimTime base, int attempt) {
  double delay_s = util::to_seconds(base) *
                   std::pow(config_.backoff_factor, std::max(attempt, 0));
  delay_s = std::min(delay_s, util::to_seconds(config_.max_backoff));
  const double jitter =
      1.0 + config_.backoff_jitter * (2.0 * rng_.uniform() - 1.0);
  return std::max<util::SimTime>(util::from_seconds(delay_s * jitter),
                                 util::kMillisecond);
}

void GatewayAgent::crash() {
  if (!alive_) return;
  alive_ = false;
  ++epoch_;
  issued_keys_.clear();
  awaiting_offer_.clear();
  pending_redeems_.clear();
  pending_delivers_.clear();
  recent_data_.clear();
  seen_payloads_.clear();
  submitted_redeems_.clear();
  withheld_redeems_.clear();
  confirmations_.clear();
}

void GatewayAgent::restart() {
  if (alive_) return;
  alive_ = true;
  ++epoch_;
}

void GatewayAgent::on_uplink(lora::RadioDeviceId from,
                             const util::Bytes& frame) {
  if (!alive_) return;
  const auto type = lora::peek_frame_type(frame);
  if (!type) return;
  switch (*type) {
    case lora::FrameType::kUplinkRequest: {
      const auto request = lora::UplinkRequestFrame::decode(frame);
      if (request) handle_request(from, *request);
      break;
    }
    case lora::FrameType::kUplinkData: {
      const auto data = lora::UplinkDataFrame::decode(frame);
      if (data) handle_data(from, *data);
      break;
    }
    case lora::FrameType::kEphemeralKey:
    case lora::FrameType::kDataAck:
      break;  // downlink-only frames; ignore on the uplink path
  }
}

void GatewayAgent::handle_request(lora::RadioDeviceId from,
                                  const lora::UplinkRequestFrame& frame) {
  // Mint the per-message key pair (step 1). The generation really runs;
  // the virtual clock charges the Raspberry-Pi cost.
  const crypto::RsaKeyPair keys = crypto::rsa_generate(rng_, 512);
  const std::uint16_t device_id = frame.device_id;
  issued_keys_[device_id] = PendingKey{keys, from, loop_.now()};
  ++keys_issued_;

  const std::uint64_t epoch = epoch_;
  loop_.after(timing_.gateway_keygen, [this, device_id, from, keys, epoch] {
    if (epoch != epoch_) return;
    lora::EphemeralKeyFrame reply;
    reply.device_id = device_id;
    reply.ephemeral_pub = keys.pub;
    send_ephemeral_key(device_id, from, reply.encode());
  });
}

void GatewayAgent::send_ephemeral_key(std::uint16_t device_id,
                                      lora::RadioDeviceId from,
                                      const util::Bytes& frame) {
  if (issued_keys_.find(device_id) == issued_keys_.end()) {
    return;  // key consumed or replaced meanwhile
  }
  const lora::TxResult tx = radio_.downlink(radio_gateway_, from, frame);
  if (!tx.accepted) {
    // Downlink duty budget exhausted; keep retrying until it fits.
    const std::uint64_t epoch = epoch_;
    loop_.at(tx.next_allowed, [this, device_id, from, frame, epoch] {
      if (epoch != epoch_) return;
      send_ephemeral_key(device_id, from, frame);
    });
    return;
  }
  if (on_ephemeral_sent) on_ephemeral_sent(device_id);
}

void GatewayAgent::handle_data(lora::RadioDeviceId from,
                               const lora::UplinkDataFrame& frame) {
  // Replay defence first, before any key can be consumed: a frame whose
  // payload we have already accepted is either the node retransmitting
  // (ACK lost — re-ACK it) or an attacker replaying sniffed bytes (silent
  // drop; re-keying would burn an RSA keygen per replayed frame).
  const std::string fp = payload_fingerprint(frame);
  const auto seen = seen_payloads_.find(fp);
  if (seen != seen_payloads_.end()) {
    if (loop_.now() - seen->second <= config_.reack_window) {
      send_data_ack(frame.device_id, from);
    } else {
      ++replays_dropped_;
    }
    return;
  }
  const auto it = issued_keys_.find(frame.device_id);
  if (it == issued_keys_.end()) {
    // No key on file. Either this is a retransmission of a frame we have
    // already consumed (the ACK got lost), or our issued-key state is gone
    // (crash/restart, expiry). Re-ACK the former; re-key the latter so the
    // node can re-seal under a key we actually hold.
    const auto recent = recent_data_.find(frame.device_id);
    if (recent != recent_data_.end() &&
        loop_.now() - recent->second <= config_.reack_window) {
      send_data_ack(frame.device_id, from);
      return;
    }
    ++rekeys_;
    lora::UplinkRequestFrame as_request;
    as_request.device_id = frame.device_id;
    handle_request(from, as_request);
    return;
  }
  const crypto::RsaKeyPair keys = it->second.keys;
  issued_keys_.erase(it);
  recent_data_[frame.device_id] = loop_.now();
  seen_payloads_[fp] = loop_.now();
  send_data_ack(frame.device_id, from);

  // Step 6: the blockchain lookup @R -> IP.
  const auto entry = directory_.lookup(frame.recipient);
  if (!entry) {
    ++lookups_failed_;
    return;
  }

  DeliverPayload payload;
  payload.device_id = frame.device_id;
  payload.em = frame.em;
  payload.sig = frame.sig;
  payload.ephemeral_pub = keys.pub;
  payload.gateway = wallet_.pkh();
  payload.price_quote = config_.price_quote;

  // Remember the key so the recipient's offer can be recognised and
  // redeemed; housekeeping ages the entry out after offer_timeout.
  const std::string handle = key_handle(keys.pub);
  awaiting_offer_[handle] = AwaitedOffer{keys, frame.device_id, loop_.now()};
  pending_delivers_[handle] =
      PendingDeliver{payload, frame.recipient, from, 0};

  const std::uint64_t epoch = epoch_;
  loop_.after(timing_.gateway_forward, [this, handle, epoch] {
    if (epoch != epoch_) return;
    send_deliver(handle);
  });
}

void GatewayAgent::send_data_ack(std::uint16_t device_id,
                                 lora::RadioDeviceId from) {
  lora::DataAckFrame ack;
  ack.device_id = device_id;
  const lora::TxResult tx = radio_.downlink(radio_gateway_, from, ack.encode());
  if (!tx.accepted) {
    const std::uint64_t epoch = epoch_;
    loop_.at(tx.next_allowed, [this, device_id, from, epoch] {
      if (epoch != epoch_) return;
      send_data_ack(device_id, from);
    });
  }
}

void GatewayAgent::send_deliver(const std::string& handle) {
  const auto it = pending_delivers_.find(handle);
  if (it == pending_delivers_.end()) return;  // acked or expired meanwhile
  PendingDeliver& pending = it->second;

  // Re-resolve the recipient each attempt: the directory may have gained
  // the entry (or a fresher IP) since the last try.
  const auto entry = directory_.lookup(pending.recipient);
  if (entry) {
    const p2p::HostId dest = static_cast<p2p::HostId>(entry->ip & 0xff);
    net_.send(node_.host(), dest,
              p2p::Message{"DELIVER", pending.payload.serialize(),
                           node_.host()});
    if (pending.attempts == 0) {
      ++forwarded_;
      if (on_forwarded) on_forwarded(pending.payload.device_id);
    } else {
      ++deliver_retries_;
    }
  } else {
    ++lookups_failed_;
  }

  if (++pending.attempts > config_.max_deliver_retries) {
    pending_delivers_.erase(it);
    return;
  }
  const std::uint64_t epoch = epoch_;
  loop_.after(backoff_delay(config_.deliver_retry_base, pending.attempts - 1),
              [this, handle, epoch] {
                if (epoch != epoch_) return;
                send_deliver(handle);
              });
}

void GatewayAgent::handle_message(const p2p::Message& msg) {
  if (!alive_) return;
  if (msg.type != "DELIVER_ACK") return;
  // Payload: the serialized ephemeral pub of the delivery being confirmed.
  pending_delivers_.erase(util::to_hex(msg.payload));
}

void GatewayAgent::on_mempool_tx(const chain::Transaction& tx) {
  if (!alive_) return;
  if (awaiting_offer_.empty() && pending_delivers_.empty()) return;
  const chain::Hash256 txid = tx.txid();
  for (std::uint32_t v = 0; v < tx.vout.size(); ++v) {
    const auto classified = script::classify(tx.vout[v].script_pubkey);
    if (classified.type != script::ScriptType::kKeyRelease) continue;
    if (classified.pubkey_hash != wallet_.pkh()) continue;
    if (!classified.ephemeral_pub) continue;
    const std::string handle = key_handle(*classified.ephemeral_pub);
    // An offer is an implicit DELIVER_ACK: the recipient clearly has it.
    pending_delivers_.erase(handle);
    const auto it = awaiting_offer_.find(handle);
    if (it == awaiting_offer_.end()) continue;

    PendingRedeem redeem;
    redeem.outpoint = chain::OutPoint{txid, v};
    redeem.out = tx.vout[v];
    redeem.ephemeral_priv = it->second.keys.priv;
    redeem.offer_txid = txid;
    redeem.device_id = it->second.device_id;
    awaiting_offer_.erase(it);

    if (config_.confirmations_required == 0) {
      // Paper PoC behaviour: reveal eSk straight from the mempool sighting.
      const std::uint64_t epoch = epoch_;
      loop_.after(timing_.wallet_tx_build, [this, redeem, epoch] {
        if (epoch != epoch_) return;
        submit_redeem(redeem);
      });
    } else {
      confirmations_.watch(txid);
      pending_redeems_.push_back(std::move(redeem));
    }
  }
}

void GatewayAgent::on_block(const chain::Block&) {
  if (!alive_) return;
  revisit_submitted_redeems();
  if (pending_redeems_.empty()) return;
  std::vector<PendingRedeem> still_waiting;
  std::vector<chain::Hash256> released;
  for (const PendingRedeem& redeem : pending_redeems_) {
    const std::optional<int> confirmations =
        confirmations_.confirmations(redeem.offer_txid);
    if (confirmations && *confirmations >= config_.confirmations_required) {
      released.push_back(redeem.offer_txid);
      const std::uint64_t epoch = epoch_;
      loop_.after(timing_.wallet_tx_build, [this, redeem, epoch] {
        if (epoch != epoch_) return;
        submit_redeem(redeem);
      });
    } else {
      still_waiting.push_back(redeem);
    }
  }
  pending_redeems_ = std::move(still_waiting);
  // After the loop: redeems of one offer share its txid and its verdict.
  for (const chain::Hash256& txid : released) confirmations_.forget(txid);
}

void GatewayAgent::submit_redeem(const PendingRedeem& redeem) {
  switch (misbehavior_) {
    case GatewayMisbehavior::kWithholdKey:
      // Take the offer, never reveal. The recipient's only exit is the
      // CLTV reclaim branch; release_withheld_redeems() can later dump
      // these to fee-snipe that reclaim.
      ++redeems_withheld_;
      withheld_redeems_.push_back(redeem);
      return;
    case GatewayMisbehavior::kGarbleKey: {
      // Reveal a well-formed RSA-512 private key that does NOT pair with
      // the offer's ePk. OP_CHECKRSA512PAIR evaluates false, the spend
      // falls into the CLTV branch and fails kUnsatisfiedLocktime — at
      // this node and at every peer the raw bytes are pushed to.
      if (!decoy_keys_) decoy_keys_ = crypto::rsa_generate(rng_, 512);
      const chain::Transaction garbled = wallet_.create_redeem(
          redeem.outpoint, redeem.out, decoy_keys_->priv, config_.redeem_fee);
      ++garbled_submits_;
      if (!node_.submit_tx(garbled).ok()) {
        ++garbled_rejected_;
        // Push the raw tx over gossip anyway: peers must reject it through
        // the same script path, not just trust our mempool's verdict.
        net_.broadcast(node_.host(),
                       p2p::Message{"tx", garbled.serialize(), node_.host()});
      }
      return;
    }
    case GatewayMisbehavior::kHonest:
    case GatewayMisbehavior::kDoubleClaim:
      break;
  }
  const chain::Transaction tx = wallet_.create_redeem(
      redeem.outpoint, redeem.out, redeem.ephemeral_priv, config_.redeem_fee);
  const auto result = node_.submit_tx(tx);
  if (result.ok()) {
    ++redeems_;
    submitted_redeems_.push_back(
        SubmittedRedeem{tx, tx.txid(), redeem.outpoint, redeem.device_id, 0});
    confirmations_.watch(tx.txid());
    if (on_redeemed) on_redeemed(redeem.device_id);
    if (misbehavior_ == GatewayMisbehavior::kDoubleClaim) {
      // Honest reveal, then a second conflicting claim of the same output
      // (fee bumped by 1 so the txid differs). First-seen mempools must
      // answer kConflict; there is no RBF to displace the original.
      const std::uint64_t epoch = epoch_;
      loop_.after(timing_.wallet_tx_build, [this, redeem, epoch] {
        if (epoch != epoch_) return;
        const chain::Transaction second =
            wallet_.create_redeem(redeem.outpoint, redeem.out,
                                  redeem.ephemeral_priv, config_.redeem_fee + 1);
        ++double_claims_;
        if (!node_.submit_tx(second).ok()) ++double_claims_rejected_;
      });
    }
  }
}

std::size_t GatewayAgent::release_withheld_redeems() {
  if (withheld_redeems_.empty()) return 0;
  std::vector<PendingRedeem> held = std::move(withheld_redeems_);
  withheld_redeems_.clear();
  // Submit through the honest path regardless of the standing misbehavior.
  const GatewayMisbehavior saved = misbehavior_;
  misbehavior_ = GatewayMisbehavior::kHonest;
  for (const PendingRedeem& redeem : held) submit_redeem(redeem);
  misbehavior_ = saved;
  return held.size();
}

void GatewayAgent::revisit_submitted_redeems() {
  // A reorg can evict a redeem from the chain without it re-entering the
  // mempool (its block simply lost). Re-broadcast until it is buried
  // redeem_confirm_depth deep, the reclaim branch won (conflict), or the
  // resubmit budget runs out.
  std::erase_if(submitted_redeems_, [this](SubmittedRedeem& sub) {
    if (!redeem_settled(sub)) return false;
    confirmations_.forget(sub.txid);
    return true;
  });
}

bool GatewayAgent::redeem_settled(SubmittedRedeem& sub) {
  const std::optional<int> confirmations =
      confirmations_.confirmations(sub.txid);
  if (confirmations && *confirmations >= config_.redeem_confirm_depth)
    return true;  // buried; settled for good
  if (node_.mempool().contains(sub.txid)) return false;  // will re-mine
  if (sub.resubmits >= config_.max_redeem_resubmits) return true;
  ++sub.resubmits;
  const auto result = node_.submit_tx(sub.tx);
  if (result.ok()) {
    ++redeem_resubmits_;
    return false;
  }
  // kConflict: the recipient's reclaim spent the offer first — lost race,
  // nothing left to recover. kInvalid: the offer output itself is gone.
  return result.error != chain::MempoolError::kAlreadyKnown;
}

void GatewayAgent::schedule_housekeeping() {
  // The sweep survives crash/restart (it models a cron job on the box, not
  // daemon state), so it is deliberately not epoch-guarded.
  loop_.after(config_.housekeeping_interval, [this] {
    if (alive_) housekeeping();
    schedule_housekeeping();
  });
}

void GatewayAgent::housekeeping() {
  const util::SimTime now = loop_.now();
  keys_expired_ += std::erase_if(issued_keys_, [&](const auto& entry) {
    return now - entry.second.issued_at > config_.issued_key_timeout;
  });
  offers_expired_ += std::erase_if(awaiting_offer_, [&](const auto& entry) {
    return now - entry.second.since > config_.offer_timeout;
  });
  std::erase_if(recent_data_, [&](const auto& entry) {
    return now - entry.second > config_.reack_window;
  });
  std::erase_if(seen_payloads_, [&](const auto& entry) {
    return now - entry.second > config_.replay_window;
  });
}

}  // namespace bcwan::core
