// ABL-CONF — the §6 double-spend trade-off.
//
// "we chose to allow the foreign gateway to not wait for confirmation of
// the recipient transaction before providing the ephemeral private key.
// This can be a security threat as a malicious user could double spend this
// transaction. ... The addition of a confirmation time on the exchange
// protocol to prevent double-spending implies an added latency."
//
// Two measurements per confirmation requirement k ∈ {0, 1, 2, 6}:
//   1. attack success rate — a malicious recipient races a conflicting
//      spend of the offer's funding to the miner while feeding the offer
//      only to the gateway, and sniffs eSk off the gateway's redeem;
//   2. honest-path latency — time from offer broadcast to eSk revelation
//      when everyone is honest.
#include <cstdio>
#include <optional>

#include "bench_common.hpp"
#include "chain/miner.hpp"
#include "chain/wallet.hpp"
#include "p2p/chain_node.hpp"
#include "p2p/confirmations.hpp"
#include "p2p/network.hpp"
#include "util/stats.hpp"

namespace {

using namespace bcwan;

struct Lab {
  chain::ChainParams params;
  p2p::EventLoop loop;
  p2p::SimNet net{loop, 0};
  std::unique_ptr<p2p::ChainNode> attacker_node;
  std::unique_ptr<p2p::ChainNode> gateway_node;
  std::unique_ptr<p2p::ChainNode> miner_node;
  chain::Wallet master = chain::Wallet::from_seed("conf-master");
  chain::Wallet attacker = chain::Wallet::from_seed("conf-attacker");
  chain::Wallet gateway = chain::Wallet::from_seed("conf-gateway");
  std::unique_ptr<chain::Miner> miner;
  util::Rng rng;

  explicit Lab(std::uint64_t seed) : net(loop, seed), rng(seed * 31 + 7) {
    params.pow_zero_bits = 4;
    params.coinbase_maturity = 2;
    params.block_interval = 15 * util::kSecond;
    p2p::ChainNodeConfig node_config;
    attacker_node = std::make_unique<p2p::ChainNode>(
        net, net.add_host("attacker"), params, node_config, seed + 1);
    gateway_node = std::make_unique<p2p::ChainNode>(
        net, net.add_host("gateway"), params, node_config, seed + 2);
    miner_node = std::make_unique<p2p::ChainNode>(
        net, net.add_host("miner"), params, node_config, seed + 3);
    miner = std::make_unique<chain::Miner>(params, master.pkh());

    // Fund the attacker.
    for (int i = 0; i < params.coinbase_maturity + 3; ++i) mine_block();
    const auto funding = master.create_payment(
        miner_node->chain(), &miner_node->mempool(), attacker.pkh(),
        10 * chain::kCoin, 1000);
    miner_node->submit_tx(*funding);
    loop.run_until(loop.now() + util::kSecond);
    mine_block();
  }

  void mine_block() {
    loop.run_until(loop.now() + util::kSecond);
    const chain::Block block = miner->mine(
        miner_node->chain(), miner_node->mempool(),
        static_cast<std::uint64_t>(loop.now() / util::kSecond));
    miner_node->submit_block(block);
    loop.run_until(loop.now() + util::kSecond);
  }
};

struct AttackOutcome {
  bool esk_obtained = false;
  bool gateway_paid = false;
};

AttackOutcome run_attack(int confirmations_required, std::uint64_t seed) {
  Lab lab(seed);
  const crypto::RsaKeyPair ephemeral = crypto::rsa_generate(lab.rng, 512);

  // Gateway-side watcher: redeem the offer once it has the required
  // confirmations (k = 0 means straight from the mempool).
  std::optional<chain::OutPoint> offer_outpoint;
  std::optional<chain::TxOut> offer_out;
  std::optional<chain::Hash256> offer_txid;
  p2p::TxConfirmations confirmed(*lab.gateway_node);
  bool redeemed = false;
  auto try_redeem = [&] {
    if (redeemed || !offer_outpoint) return;
    if (confirmations_required > 0) {
      const std::optional<int> confs = confirmed.confirmations(*offer_txid);
      if (!confs || *confs < confirmations_required) return;
    }
    const chain::Transaction redeem = lab.gateway.create_redeem(
        *offer_outpoint, *offer_out, ephemeral.priv, 500);
    lab.gateway_node->submit_tx(redeem);
    redeemed = true;
  };
  lab.gateway_node->add_tx_watcher([&](const chain::Transaction& tx) {
    const chain::Hash256 txid = tx.txid();
    for (std::uint32_t v = 0; v < tx.vout.size(); ++v) {
      const auto c = script::classify(tx.vout[v].script_pubkey);
      if (c.type == script::ScriptType::kKeyRelease &&
          c.pubkey_hash == lab.gateway.pkh()) {
        offer_outpoint = chain::OutPoint{txid, v};
        offer_out = tx.vout[v];
        offer_txid = txid;
        confirmed.watch(txid);
        if (confirmations_required == 0) try_redeem();
      }
    }
  });
  lab.gateway_node->add_block_watcher(
      [&](const chain::Block&) { try_redeem(); });

  // Attacker-side tap: lift eSk off the wire.
  bool esk_obtained = false;
  lab.attacker_node->set_raw_tx_tap([&](const chain::Transaction& tx) {
    for (const chain::TxIn& in : tx.vin) {
      const auto key = script::extract_revealed_key(in.script_sig);
      if (key && crypto::rsa_pair_matches(ephemeral.pub, *key)) {
        esk_obtained = true;
      }
    }
  });

  // Craft the offer and the conflicting sweep from the same funding coins.
  const auto offer = lab.attacker.create_key_release_offer(
      lab.attacker_node->chain(), nullptr, ephemeral.pub, lab.gateway.pkh(),
      chain::kCoin, 1000, lab.attacker_node->chain().height() + 100);
  const auto conflict = lab.attacker.create_payment(
      lab.attacker_node->chain(), nullptr, lab.attacker.pkh(),
      9 * chain::kCoin, 2000);  // sweeps the same inputs back to self
  if (!offer || !conflict) return {};

  // The race (§6): offer only to the gateway, conflict only to the miner.
  lab.net.send(lab.attacker_node->host(), lab.gateway_node->host(),
               p2p::Message{"tx", offer->serialize(), -1});
  lab.net.send(lab.attacker_node->host(), lab.miner_node->host(),
               p2p::Message{"tx", conflict->serialize(), -1});

  // Let gossip and (k+3) blocks play out.
  for (int i = 0; i < confirmations_required + 3; ++i) lab.mine_block();
  lab.loop.run_until(lab.loop.now() + 5 * util::kSecond);

  AttackOutcome outcome;
  outcome.esk_obtained = esk_obtained;
  // The gateway is paid iff its redeem actually confirmed — check its
  // balance on the miner's (canonical) view of the chain.
  outcome.gateway_paid =
      redeemed && lab.gateway.balance(lab.miner_node->chain()) > 0;
  return outcome;
}

double honest_latency(int confirmations_required, std::uint64_t seed) {
  Lab lab(seed);
  const crypto::RsaKeyPair ephemeral = crypto::rsa_generate(lab.rng, 512);

  std::optional<chain::OutPoint> offer_outpoint;
  std::optional<chain::TxOut> offer_out;
  std::optional<chain::Hash256> offer_txid;
  p2p::TxConfirmations confirmed(*lab.gateway_node);
  bool redeemed = false;
  util::SimTime redeem_time = 0;
  auto try_redeem = [&] {
    if (redeemed || !offer_outpoint) return;
    if (confirmations_required > 0) {
      const std::optional<int> confs = confirmed.confirmations(*offer_txid);
      if (!confs || *confs < confirmations_required) return;
    }
    const chain::Transaction redeem = lab.gateway.create_redeem(
        *offer_outpoint, *offer_out, ephemeral.priv, 500);
    lab.gateway_node->submit_tx(redeem);
    redeemed = true;
    redeem_time = lab.loop.now();
  };
  lab.gateway_node->add_tx_watcher([&](const chain::Transaction& tx) {
    const chain::Hash256 txid = tx.txid();
    for (std::uint32_t v = 0; v < tx.vout.size(); ++v) {
      const auto c = script::classify(tx.vout[v].script_pubkey);
      if (c.type == script::ScriptType::kKeyRelease &&
          c.pubkey_hash == lab.gateway.pkh()) {
        offer_outpoint = chain::OutPoint{txid, v};
        offer_out = tx.vout[v];
        offer_txid = txid;
        confirmed.watch(txid);
        if (confirmations_required == 0) try_redeem();
      }
    }
  });
  lab.gateway_node->add_block_watcher(
      [&](const chain::Block&) { try_redeem(); });

  // Honest broadcast through the attacker's own node (normal gossip).
  const auto offer = lab.attacker.create_key_release_offer(
      lab.attacker_node->chain(), &lab.attacker_node->mempool(),
      ephemeral.pub, lab.gateway.pkh(), chain::kCoin, 1000,
      lab.attacker_node->chain().height() + 100);
  const util::SimTime start = lab.loop.now();
  lab.attacker_node->submit_tx(*offer);

  // Blocks arrive on the configured interval (the attack path mines fast
  // because only ordering matters there; here the wait is the datum).
  for (int i = 0; i < confirmations_required + 3 && !redeemed; ++i) {
    lab.loop.run_until(lab.loop.now() + lab.params.block_interval);
    lab.mine_block();
  }
  lab.loop.run_until(lab.loop.now() + 5 * util::kSecond);

  return redeemed ? util::to_seconds(redeem_time - start) : -1.0;
}

}  // namespace

int main() {
  bench::print_header("ABL-CONF",
                      "confirmations vs double-spend risk vs latency");

  const int kTrials = 10;
  std::printf("%-6s %-20s %-22s %-20s\n", "k", "attack_success",
              "attacker_got_eSk", "offer->eSk latency");
  for (const int k : {0, 1, 2, 6}) {
    int success = 0;
    int got_esk = 0;
    for (int t = 0; t < kTrials; ++t) {
      const AttackOutcome outcome =
          run_attack(k, 1000 + static_cast<std::uint64_t>(t));
      got_esk += outcome.esk_obtained;
      success += outcome.esk_obtained && !outcome.gateway_paid;
    }
    const double latency = honest_latency(k, 77);
    std::printf("%-6d %2d/%-17d %2d/%-19d %8.1f s\n", k, success, kTrials,
                got_esk, kTrials, latency);
  }

  std::printf(
      "\nshape check (paper §6): at k=0 the malicious recipient obtains eSk\n"
      "without paying (success ~100%%); one confirmation already defeats the\n"
      "race, at the cost of ~k x block-interval added honest latency\n"
      "(Bitcoin's '6 confirmations / 60 minutes' rule is the extreme).\n");
  return 0;
}
