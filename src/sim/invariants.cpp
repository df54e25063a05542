#include "sim/invariants.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "script/templates.hpp"
#include "util/bytes.hpp"

namespace bcwan::sim {

std::string InvariantReport::to_string() const {
  std::string out;
  for (const std::string& v : violations) {
    if (!out.empty()) out += "; ";
    out += v;
  }
  return out.empty() ? "ok" : out;
}

InvariantReport check_chain_invariants(const chain::Blockchain& chain) {
  InvariantReport report;

  // Funds conservation. Each block mints exactly block_reward (the coinbase
  // claims the fees back), genesis and OP_RETURN outputs carry zero value,
  // so the UTXO total must equal height * block_reward to the satoshi.
  const chain::Amount expected =
      static_cast<chain::Amount>(chain.height()) *
      chain.params().block_reward;
  const chain::Amount actual = chain.utxo().total_value();
  if (actual != expected) {
    report.violations.push_back(
        "funds not conserved: utxo total " + std::to_string(actual) +
        " != height*reward " + std::to_string(expected));
  }

  // Settlement uniqueness. Walk the active chain once, collecting every
  // Listing-1 offer output and every spend of one. The walk covers a
  // daemon's whole history, so an offer is kept compactly: its outpoint and
  // a digest of its ephemeral key.
  struct OfferInfo {
    crypto::Digest256 ephemeral{};  // SHA-256 of the serialized ePk
    int spends = 0;
    bool redeemed = false;
  };
  std::unordered_map<chain::OutPoint, OfferInfo, chain::OutPointHasher> offers;
  for (int h = 0; h <= chain.height(); ++h) {
    const auto block = chain.block_at(h);
    if (!block) continue;
    for (const chain::Transaction& tx : block->txs) {
      const chain::Hash256 txid = tx.txid();
      for (std::uint32_t v = 0; v < tx.vout.size(); ++v) {
        const auto classified = script::classify(tx.vout[v].script_pubkey);
        if (classified.type != script::ScriptType::kKeyRelease) continue;
        if (!classified.ephemeral_pub) continue;
        offers[chain::OutPoint{txid, v}] =
            OfferInfo{crypto::sha256(classified.ephemeral_pub->serialize())};
      }
      for (const chain::TxIn& in : tx.vin) {
        const auto it = offers.find(in.prevout);
        if (it == offers.end()) continue;
        ++it->second.spends;
        if (script::extract_revealed_key(in.script_sig))
          it->second.redeemed = true;
      }
    }
  }
  std::vector<chain::OutPoint> double_spent;
  std::vector<crypto::Digest256> redeemed_keys;
  for (const auto& [op, info] : offers) {
    if (info.spends > 1) double_spent.push_back(op);
    if (info.redeemed) redeemed_keys.push_back(info.ephemeral);
  }
  std::sort(double_spent.begin(), double_spent.end(),
            [](const chain::OutPoint& a, const chain::OutPoint& b) {
              return a.txid != b.txid ? a.txid < b.txid : a.index < b.index;
            });
  for (const chain::OutPoint& op : double_spent) {
    report.violations.push_back(
        "offer " + util::to_hex(util::ByteView(op.txid.data(), op.txid.size())) +
        ":" + std::to_string(op.index) + " spent more than once in active chain");
  }
  std::sort(redeemed_keys.begin(), redeemed_keys.end());
  for (std::size_t i = 0; i < redeemed_keys.size();) {
    std::size_t j = i + 1;
    while (j < redeemed_keys.size() && redeemed_keys[j] == redeemed_keys[i]) ++j;
    if (j - i > 1) {
      report.violations.push_back(
          "ephemeral key " +
          util::to_hex(util::ByteView(redeemed_keys[i].data(), 8)) +
          "... settled " + std::to_string(j - i) + " times (double pay)");
    }
    i = j;
  }
  return report;
}

SettlementTally check_settlement_invariants(const chain::Blockchain& chain,
                                            InvariantReport& report) {
  SettlementTally tally;
  // Open offers only: an offer leaves the map at its first spend (a later
  // spend of it is the uniqueness check's to flag), so the walk holds what
  // is in flight, not the whole history.
  std::unordered_map<chain::OutPoint, script::ClassifiedScript,
                     chain::OutPointHasher>
      offers;
  const auto label = [](const chain::OutPoint& op) {
    return util::to_hex(util::ByteView(op.txid.data(), op.txid.size()))
               .substr(0, 16) +
           ":" + std::to_string(op.index);
  };
  const auto pays_hash = [](const chain::Transaction& tx,
                            const script::PubKeyHash& pkh) {
    for (const chain::TxOut& out : tx.vout) {
      const auto c = script::classify(out.script_pubkey);
      if (c.type == script::ScriptType::kP2pkh && c.pubkey_hash == pkh)
        return true;
    }
    return false;
  };

  for (int h = 0; h <= chain.height(); ++h) {
    const auto block = chain.block_at(h);
    if (!block) continue;
    for (const chain::Transaction& tx : block->txs) {
      const chain::Hash256 txid = tx.txid();
      for (std::uint32_t v = 0; v < tx.vout.size(); ++v) {
        const auto classified = script::classify(tx.vout[v].script_pubkey);
        if (classified.type != script::ScriptType::kKeyRelease) continue;
        if (!classified.ephemeral_pub) continue;
        offers[chain::OutPoint{txid, v}] = classified;
        ++tally.offers;
      }
      for (const chain::TxIn& in : tx.vin) {
        const auto it = offers.find(in.prevout);
        if (it == offers.end()) continue;
        const chain::OutPoint offer = it->first;
        const script::ClassifiedScript meta = std::move(it->second);
        offers.erase(it);
        const auto revealed = script::extract_revealed_key(in.script_sig);
        if (revealed) {
          ++tally.redeemed;
          // Paid-without-reveal: a redeem whose eSk does not pair with the
          // offer's ePk took the money without releasing the real key.
          // OP_CHECKRSA512PAIR makes this unconfirmable; seeing one on the
          // active chain means consensus validation is broken.
          if (!crypto::rsa_pair_matches(*meta.ephemeral_pub, *revealed)) {
            report.violations.push_back("offer " + label(offer) +
                                        " paid without matching reveal "
                                        "(garbled eSk confirmed)");
          }
          if (!pays_hash(tx, meta.pubkey_hash)) {
            report.violations.push_back(
                "offer " + label(offer) +
                " redeem does not pay the revealing gateway");
          }
        } else {
          ++tally.reclaimed;
          if (static_cast<std::int64_t>(h) < meta.timeout_height) {
            report.violations.push_back(
                "offer " + label(offer) + " reclaimed at height " +
                std::to_string(h) + " before timeout " +
                std::to_string(meta.timeout_height));
          }
          if (!pays_hash(tx, meta.buyer_pubkey_hash)) {
            report.violations.push_back(
                "offer " + label(offer) +
                " reclaim does not return funds to the buyer");
          }
        }
      }
    }
  }
  tally.open = tally.offers - tally.redeemed - tally.reclaimed;
  return tally;
}

InvariantReport check_federation_invariants(Scenario& scenario,
                                            bool expect_quiescent) {
  InvariantReport report;
  const auto absorb = [&](const InvariantReport& sub,
                          const std::string& where) {
    for (const std::string& v : sub.violations)
      report.violations.push_back(where + ": " + v);
  };

  absorb(check_chain_invariants(scenario.master_node().chain()), "master");
  {
    // Economic fair-exchange outcomes on the canonical (master) history.
    InvariantReport settlement;
    (void)check_settlement_invariants(scenario.master_node().chain(),
                                      settlement);
    absorb(settlement, "master settlement");
  }
  const int master_height = scenario.master_node().chain().height();
  for (int a = 0; a < scenario.actor_count(); ++a) {
    const std::string where = "actor" + std::to_string(a);
    const chain::Blockchain& chain = scenario.actor_node(a).chain();
    absorb(check_chain_invariants(chain), where);
    // Convergence: a healed actor must be within gossip distance of the
    // master and the master must at least know its tip block.
    if (chain.height() < master_height - 2) {
      report.violations.push_back(
          where + ": chain lagging (" + std::to_string(chain.height()) +
          " vs master " + std::to_string(master_height) + ")");
    } else if (!scenario.master_node().chain().have_block(chain.tip_hash())) {
      report.violations.push_back(where +
                                  ": tip unknown to master (stuck fork)");
    }
  }

  if (expect_quiescent) {
    for (std::size_t g = 0; g < scenario.gateway_count(); ++g) {
      core::GatewayAgent& gw = scenario.gateway_by_index(g);
      const std::string where = "gateway" + std::to_string(g);
      if (gw.pending_deliver_count() != 0) {
        report.violations.push_back(
            where + ": " + std::to_string(gw.pending_deliver_count()) +
            " unacked DELIVERs leaked");
      }
      if (gw.pending_redeem_count() != 0) {
        report.violations.push_back(
            where + ": " + std::to_string(gw.pending_redeem_count()) +
            " confirmation-gated redeems leaked");
      }
      if (gw.tracked_redeem_count() != 0) {
        report.violations.push_back(
            where + ": " + std::to_string(gw.tracked_redeem_count()) +
            " submitted redeems never buried");
      }
      if (gw.issued_key_count() != 0) {
        report.violations.push_back(
            where + ": " + std::to_string(gw.issued_key_count()) +
            " issued keys not consumed or expired");
      }
      if (gw.awaiting_offer_count() != 0) {
        report.violations.push_back(
            where + ": " + std::to_string(gw.awaiting_offer_count()) +
            " awaited offers not settled or expired");
      }
    }
    for (int a = 0; a < scenario.actor_count(); ++a) {
      core::RecipientAgent& recipient = scenario.recipient(a);
      if (recipient.pending_exchange_count() != 0) {
        report.violations.push_back(
            "recipient" + std::to_string(a) + ": " +
            std::to_string(recipient.pending_exchange_count()) +
            " pending exchanges never settled or reclaimed");
      }
    }
    for (int a = 0; a < scenario.actor_count(); ++a) {
      for (int s = 0; s < scenario.config().sensors_per_actor; ++s) {
        core::SensorNode& sensor = scenario.sensor(a, s);
        if (sensor.busy()) {
          report.violations.push_back(
              "sensor device " + std::to_string(sensor.device_id()) +
              " still mid-exchange");
        }
      }
    }
  }
  return report;
}

}  // namespace bcwan::sim
