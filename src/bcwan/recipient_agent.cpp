#include "bcwan/recipient_agent.hpp"

#include <algorithm>

namespace bcwan::core {

RecipientAgent::RecipientAgent(p2p::EventLoop& loop, p2p::Transport& net,
                               p2p::ChainNode& node, chain::Wallet wallet,
                               TimingModel timing, RecipientConfig config,
                               std::uint64_t seed)
    : loop_(loop),
      net_(net),
      node_(node),
      confirmations_(node),
      wallet_(std::move(wallet)),
      timing_(timing),
      config_(config),
      rng_(seed) {
  node_.add_tx_watcher(
      [this](const chain::Transaction& tx) { on_mempool_tx(tx); });
  node_.add_block_watcher(
      [this](const chain::Block& block) { on_block(block); });
}

void RecipientAgent::register_device(const NodeProvisioning& provisioning) {
  devices_[provisioning.device_id] =
      DeviceView{provisioning.k, provisioning.node_verify_key};
}

bool RecipientAgent::announce_ip(IpAddress ip, std::uint16_t port) {
  const util::Bytes data = encode_directory_entry(wallet_.pkh(), ip, port);
  const auto tx = wallet_.create_announcement(node_.chain(), &node_.mempool(),
                                              data, config_.offer_fee);
  if (!tx) return false;
  return node_.submit_tx(*tx).ok();
}

void RecipientAgent::handle_message(const p2p::Message& msg) {
  if (msg.type != "DELIVER") return;
  const auto payload = DeliverPayload::deserialize(msg.payload);
  if (!payload) return;
  ++deliveries_;
  // Acknowledge every well-formed DELIVER — even ones we go on to reject —
  // so the gateway's retry loop stops. The ACK names the ephemeral key.
  net_.send(node_.host(), msg.from,
            p2p::Message{"DELIVER_ACK", payload->ephemeral_pub.serialize(),
                         node_.host()});
  ++acks_sent_;
  // Gateway retransmissions of an exchange we already accepted (our first
  // ACK was lost) must not post a second offer.
  const std::string handle = util::to_hex(payload->ephemeral_pub.serialize());
  const auto seen = accepted_delivers_.find(handle);
  if (seen != accepted_delivers_.end() &&
      loop_.now() - seen->second <= config_.deliver_dedupe_window) {
    ++duplicates_;
    return;
  }
  handle_deliver(*payload);
}

void RecipientAgent::handle_deliver(const DeliverPayload& payload) {
  const auto device = devices_.find(payload.device_id);
  if (device == devices_.end()) return;  // not one of ours

  // Step 8: authenticity. A tampered Em or a swapped ePk fails here and
  // the recipient never pays.
  Envelope envelope{payload.em, payload.sig};
  if (!verify_envelope(device->second.verify_key, envelope,
                       payload.ephemeral_pub)) {
    ++sig_rejects_;
    return;
  }

  if (!config_.pay_for_data) return;  // misbehaving recipient: takes nothing

  // Negotiation (step 9): decline overpriced quotes.
  if (payload.price_quote > config_.max_price) {
    ++price_rejects_;
    return;
  }

  // Accepted: mark it so a retransmission does not open a second exchange.
  // Rejects are deliberately not marked — a clean retransmission after a
  // corrupted first copy should still go through.
  accepted_delivers_[util::to_hex(payload.ephemeral_pub.serialize())] =
      loop_.now();
  loop_.after(timing_.recipient_verify + timing_.wallet_tx_build,
              [this, payload] { post_offer(payload, 0); });
}

void RecipientAgent::post_offer(const DeliverPayload& payload, int attempt) {
  const std::int64_t timeout_height =
      node_.chain().height() + config_.timeout_blocks;
  const chain::Amount agreed_price =
      payload.price_quote > 0 ? payload.price_quote : config_.price;
  const auto offer = wallet_.create_key_release_offer(
      node_.chain(), &node_.mempool(), payload.ephemeral_pub, payload.gateway,
      agreed_price, config_.offer_fee, timeout_height);
  if (!offer) {
    // Transiently out of spendable coins (e.g. everything is tied up in
    // unconfirmed offers another node hasn't relayed back yet): retry for
    // a bounded window, then drop the exchange. The budget is per-exchange
    // — a shared counter would let one starved exchange eat the retries of
    // every concurrent one.
    if (attempt < 24) {
      loop_.after(5 * util::kSecond,
                  [this, payload, attempt] { post_offer(payload, attempt + 1); });
    }
    return;
  }
  const auto result = node_.submit_tx(*offer);
  if (!result.ok()) return;

  PendingExchange pending;
  pending.device_id = payload.device_id;
  pending.em = payload.em;
  pending.ephemeral_pub = payload.ephemeral_pub;
  pending.offer_tx = *offer;
  pending.offer_txid = offer->txid();
  pending.offer_outpoint = chain::OutPoint{pending.offer_txid, 0};
  pending.offer_out = offer->vout[0];
  pending.timeout_height = timeout_height;
  confirmations_.watch(pending.offer_txid);
  pending_.push_back(std::move(pending));
  ++offers_;
  if (on_offer_posted) on_offer_posted(payload.device_id);
}

bool RecipientAgent::try_extract_reveal(PendingExchange& pending,
                                        const chain::TxIn& in) {
  if (pending.settled || !(in.prevout == pending.offer_outpoint)) return false;
  // Step 10: someone spent our offer. If it is the gateway's redeem, the
  // scriptSig carries eSk.
  const auto revealed = script::extract_revealed_key(in.script_sig);
  if (!revealed) return false;  // our own reclaim, or malformed
  if (!crypto::rsa_pair_matches(pending.ephemeral_pub, *revealed))
    return false;  // garbled key: the chain will reject this spend too
  pending.settled = true;

  const auto device = devices_.find(pending.device_id);
  if (device == devices_.end()) return true;
  const auto device_id = pending.device_id;
  const auto em = pending.em;
  const auto k = device->second.k;
  const auto eSk = *revealed;
  loop_.after(timing_.recipient_decrypt, [this, device_id, em, k, eSk] {
    const auto reading = open_envelope(k, eSk, em);
    if (!reading) return;
    ++decrypted_;
    if (on_reading) on_reading(device_id, *reading);
  });
  return true;
}

void RecipientAgent::on_mempool_tx(const chain::Transaction& tx) {
  if (pending_.empty()) return;
  for (const chain::TxIn& in : tx.vin) {
    for (PendingExchange& pending : pending_) {
      try_extract_reveal(pending, in);
    }
  }
  drop_settled();
}

void RecipientAgent::drop_settled() {
  std::erase_if(pending_, [this](const PendingExchange& p) {
    if (!p.settled) return false;
    confirmations_.forget(p.offer_txid);
    if (p.reclaiming) confirmations_.forget(p.reclaim_txid);
    return true;
  });
}

void RecipientAgent::on_block(const chain::Block& block) {
  // A redeem can arrive already inside a block without ever crossing our
  // mempool (a miner that got it first, censorship lifting, a partition
  // healing straight into a block announcement). Missing it here would
  // hang the exchange and burn the reclaim budget on kInvalid submissions
  // against an already-spent offer output.
  for (const chain::Transaction& tx : block.txs) {
    for (const chain::TxIn& in : tx.vin) {
      for (PendingExchange& pending : pending_) {
        try_extract_reveal(pending, in);
      }
    }
  }
  const int height = node_.chain().height();
  for (PendingExchange& pending : pending_) {
    if (pending.settled) continue;
    revisit_transactions(pending);
    if (!pending.settled && !pending.reclaiming)
      maybe_reclaim(pending, height);
  }
  drop_settled();

  // Dedupe entries outlive their usefulness one window after acceptance.
  std::erase_if(accepted_delivers_, [&](const auto& entry) {
    return loop_.now() - entry.second > config_.deliver_dedupe_window;
  });
}

void RecipientAgent::maybe_reclaim(PendingExchange& pending, int height) {
  // Withholding gateways: once the CLTV branch opens, take the funds back.
  if (height + 1 < pending.timeout_height) return;
  const chain::Transaction reclaim =
      wallet_.create_reclaim(pending.offer_outpoint, pending.offer_out,
                             pending.timeout_height, config_.reclaim_fee);
  if (node_.submit_tx(reclaim).ok()) {
    pending.reclaiming = true;
    pending.reclaim_tx = reclaim;
    pending.reclaim_txid = reclaim.txid();
    confirmations_.watch(pending.reclaim_txid);
    ++reclaims_;
    if (on_reclaimed) on_reclaimed(pending.device_id);
  }
}

void RecipientAgent::revisit_transactions(PendingExchange& pending) {
  // Reorg recovery. A transaction whose block lost a reorg race vanishes
  // without re-entering the mempool; re-broadcast it or the exchange hangs
  // until the CLTV timeout (offer) or forever (reclaim).
  if (pending.reclaiming) {
    if (confirmations_.confirmations(pending.reclaim_txid)) {
      pending.settled = true;  // funds are back
      return;
    }
    if (node_.mempool().contains(pending.reclaim_txid)) return;
    if (pending.rebroadcasts >= config_.max_rebroadcasts) {
      pending.settled = true;  // give up tracking
      ++exchanges_abandoned_;
      return;
    }
    ++pending.rebroadcasts;
    const auto result = node_.submit_tx(pending.reclaim_tx);
    if (result.ok()) {
      ++reclaim_rebroadcasts_;
    } else if (result.error == chain::MempoolError::kConflict) {
      // The gateway's redeem beat us after all; go back to watching for it
      // (its mempool sighting reveals eSk and settles the exchange).
      pending.reclaiming = false;
      confirmations_.forget(pending.reclaim_txid);
    }
    return;
  }
  // No reclaim in flight: make sure the offer itself is still alive.
  if (confirmations_.confirmations(pending.offer_txid)) return;
  if (node_.mempool().contains(pending.offer_txid)) return;
  if (pending.rebroadcasts >= config_.max_rebroadcasts) {
    pending.settled = true;  // unrecoverable; stop leaking the entry
    ++exchanges_abandoned_;
    return;
  }
  ++pending.rebroadcasts;
  const auto result = node_.submit_tx(pending.offer_tx);
  if (result.ok()) {
    ++offer_rebroadcasts_;
  } else if (result.error == chain::MempoolError::kConflict) {
    // An input was double-spent (shouldn't happen with our own wallet);
    // the exchange cannot proceed.
    pending.settled = true;
  }
}

}  // namespace bcwan::core
