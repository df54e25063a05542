// Cross-module integration and property tests: deterministic replay,
// reorg/fair-exchange interplay, partitions mid-exchange, gossip orphan
// handling, and chain-wide invariants under the full protocol load.
#include <gtest/gtest.h>

#include "bcwan/directory.hpp"
#include "chain/miner.hpp"
#include "sim/scenario.hpp"

namespace bcwan {
namespace {

using util::str_bytes;

sim::ScenarioConfig fast_config(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.actors = 3;
  config.sensors_per_actor = 2;
  config.seed = seed;
  config.chain_params.pow_zero_bits = 4;
  config.chain_params.coinbase_maturity = 3;
  config.chain_params.block_interval = 10 * util::kSecond;
  config.recipient_funding = 30 * chain::kCoin;
  return config;
}

// --- Determinism: the whole stack replays bit-for-bit ---

TEST(Determinism, IdenticalSeedsIdenticalRuns) {
  sim::Scenario a(fast_config(123));
  sim::Scenario b(fast_config(123));
  a.bootstrap();
  b.bootstrap();
  a.run_exchanges(10, 30 * util::kMinute);
  b.run_exchanges(10, 30 * util::kMinute);
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    EXPECT_EQ(a.records()[i].device_id, b.records()[i].device_id);
    EXPECT_EQ(a.records()[i].ephemeral_sent_at,
              b.records()[i].ephemeral_sent_at);
    EXPECT_EQ(a.records()[i].decrypted_at, b.records()[i].decrypted_at);
  }
  EXPECT_EQ(a.master_node().chain().tip_hash(),
            b.master_node().chain().tip_hash());
}

TEST(Determinism, DifferentSeedsDifferentTimelines) {
  sim::Scenario a(fast_config(1));
  sim::Scenario b(fast_config(2));
  a.bootstrap();
  b.bootstrap();
  a.run_exchanges(5, 30 * util::kMinute);
  b.run_exchanges(5, 30 * util::kMinute);
  // Chains diverge (different identities are impossible — seeds only drive
  // latencies/mining times — but block hashes must differ via timestamps).
  EXPECT_NE(a.master_node().chain().tip_hash(),
            b.master_node().chain().tip_hash());
}

// --- Chain invariants under full protocol load ---

TEST(Invariants, UtxoValueBoundedByIssuanceUnderLoad) {
  sim::Scenario s(fast_config(55));
  s.bootstrap();
  s.run_exchanges(10, 30 * util::kMinute);
  const auto& chain = s.master_node().chain();
  const chain::Amount issued =
      static_cast<chain::Amount>(chain.height()) *
      s.config().chain_params.block_reward;
  EXPECT_LE(chain.utxo().total_value(), issued);
  EXPECT_GT(chain.utxo().total_value(), 0);
}

TEST(Invariants, AllNodesConvergeAfterLoad) {
  sim::Scenario s(fast_config(56));
  s.bootstrap();
  s.run_exchanges(10, 30 * util::kMinute);
  // Drain all in-flight gossip, then compare tips.
  s.loop().run_until(s.loop().now() + 2 * util::kMinute);
  const auto tip = s.master_node().chain().tip_hash();
  for (int a = 0; a < s.actor_count(); ++a) {
    EXPECT_EQ(s.actor_node(a).chain().tip_hash(), tip) << "actor " << a;
    EXPECT_EQ(s.actor_node(a).chain().utxo().total_value(),
              s.master_node().chain().utxo().total_value());
  }
}

TEST(Invariants, ValueConservationAcrossSettlement) {
  // recipient spend + gateway income + fees mined back = 0 net, i.e. the
  // recipient's loss >= the gateway's gain (difference = fees).
  sim::Scenario s(fast_config(57));
  s.bootstrap();
  chain::Amount recipients_before = 0;
  for (int a = 0; a < s.actor_count(); ++a) {
    recipients_before +=
        s.recipient(a).wallet().balance(s.master_node().chain());
  }
  s.run_exchanges(9, 30 * util::kMinute);
  s.loop().run_until(s.loop().now() + 10 * util::kMinute);

  chain::Amount recipients_after = 0;
  chain::Amount gateways_after = 0;
  for (int a = 0; a < s.actor_count(); ++a) {
    recipients_after +=
        s.recipient(a).wallet().balance(s.master_node().chain());
    gateways_after += s.gateway(a).wallet().balance(s.master_node().chain());
  }
  const chain::Amount spent = recipients_before - recipients_after;
  EXPECT_GT(spent, 0);
  EXPECT_GT(gateways_after, 0);
  EXPECT_LE(gateways_after, spent);  // gateways can't gain more than paid
}

// --- Reorg vs fair exchange ---

TEST(Reorg, ExchangeSettlesDespiteReorg) {
  // Run an exchange to completion, then force a 2-block reorg from a
  // parallel branch; the settled redeem must survive (it was in both
  // mempools and gets re-mined) and no value may be destroyed.
  sim::ScenarioConfig config = fast_config(58);
  sim::Scenario s(config);
  s.bootstrap();
  s.run_exchanges(3, 30 * util::kMinute);
  s.loop().run_until(s.loop().now() + 2 * util::kMinute);

  auto& victim = s.actor_node(0);
  const int before_height = victim.chain().height();
  const auto before_value = victim.chain().utxo().total_value();

  // Build a competing branch two blocks long from two blocks back.
  chain::Blockchain fork(s.config().chain_params);
  for (int h = 1; h <= before_height - 2; ++h) {
    fork.accept_block(*victim.chain().block_at(h));
  }
  const chain::Wallet other_miner = chain::Wallet::from_seed("fork-miner");
  const chain::Miner miner(s.config().chain_params, other_miner.pkh());
  chain::Mempool empty_pool(s.config().chain_params);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const chain::Block block = miner.mine(fork, empty_pool, 900000 + i);
    ASSERT_NE(fork.accept_block(block), chain::AcceptBlockResult::kInvalid);
    victim.chain().accept_block(block);
  }
  EXPECT_GT(victim.chain().height(), before_height);
  // Supply invariant holds across the reorg (coinbase-only branch).
  EXPECT_LE(victim.chain().utxo().total_value(),
            before_value + 3 * s.config().chain_params.block_reward);
}

// --- Partition / failure injection ---

TEST(Partition, RecipientPartitionedDuringDeliveryReclaims) {
  // The DELIVER message is dropped while the recipient's host is
  // partitioned; no offer is ever made, the gateway holds a useless eSk,
  // and the device is eventually freed. Nobody loses money.
  sim::ScenarioConfig config = fast_config(59);
  config.exchange_stale_after = 2 * util::kMinute;
  sim::Scenario s(config);
  s.bootstrap();

  s.net().set_partitioned(s.actor_node(0).host(), true);
  s.sensor(0, 0).start_exchange(str_bytes("into the void"));
  s.loop().run_until(s.loop().now() + 3 * util::kMinute);
  EXPECT_EQ(s.recipient(0).deliveries_received(), 0u);
  EXPECT_EQ(s.recipient(0).offers_posted(), 0u);

  // Heal; later exchanges work again.
  s.net().set_partitioned(s.actor_node(0).host(), false);
  // The partitioned node missed blocks; gossip of the next blocks triggers
  // orphan reconnection. Give it time to resync.
  s.loop().run_until(s.loop().now() + 2 * util::kMinute);
  bool delivered = false;
  s.recipient(0).on_reading = [&](std::uint16_t, const util::Bytes&) {
    delivered = true;
  };
  s.sensor(0, 0).start_exchange(str_bytes("back online"));
  const util::SimTime deadline = s.loop().now() + 10 * util::kMinute;
  while (!delivered && s.loop().now() < deadline) {
    s.loop().run_until(s.loop().now() + util::kSecond);
  }
  EXPECT_TRUE(delivered);
}

TEST(Partition, GatewayPartitionNeverSeesOffer) {
  // The gateway forwards the data, then its host partitions before the
  // offer gossip arrives: it cannot redeem, and the recipient reclaims
  // after the timeout.
  sim::ScenarioConfig config = fast_config(60);
  config.recipient_config.timeout_blocks = 4;
  config.chain_params.block_interval = 5 * util::kSecond;
  sim::Scenario s(config);
  s.bootstrap();

  auto& gateway_host = s.actor_node(1);  // sensor(0,*) attach to gateway 1
  bool reclaimed = false;
  s.recipient(0).on_reclaimed = [&](std::uint16_t) { reclaimed = true; };
  s.gateway(1).on_forwarded = [&](std::uint16_t) {
    s.net().set_partitioned(gateway_host.host(), true);
  };
  s.sensor(0, 0).start_exchange(str_bytes("gone gateway"));
  s.loop().run_until(s.loop().now() + 10 * util::kMinute);

  EXPECT_TRUE(reclaimed);
  EXPECT_EQ(s.recipient(0).readings_decrypted(), 0u);
  EXPECT_EQ(s.gateway(1).redeems_submitted(), 0u);
}

// --- Radio adversity at federation scale ---

TEST(RadioAdversity, AlohaCollisionsDoNotWedgeTheProtocol) {
  // Shared-medium collisions corrupt overlapping uplinks; retries and
  // write-offs must keep the federation making progress.
  sim::ScenarioConfig config = fast_config(63);
  config.sensors_per_actor = 4;  // more contention per gateway
  config.radio_config.collisions = true;
  config.exchange_stale_after = 3 * util::kMinute;
  sim::Scenario s(config);
  s.bootstrap();
  s.run_exchanges(10, 60 * util::kMinute);
  EXPECT_GE(s.exchanges_completed(), 10u);
}

TEST(RadioAdversity, HonestRunDecryptsMatchRedeems) {
  // Fair-exchange conservation: in a fully honest run every redeem funds
  // exactly one decryption and vice versa.
  sim::Scenario s(fast_config(64));
  s.bootstrap();
  s.run_exchanges(9, 30 * util::kMinute);
  s.loop().run_until(s.loop().now() + 2 * util::kMinute);
  std::uint64_t redeems = 0;
  std::uint64_t decrypted = 0;
  std::uint64_t reclaims = 0;
  for (int a = 0; a < s.actor_count(); ++a) {
    redeems += s.gateway(a).redeems_submitted();
    decrypted += s.recipient(a).readings_decrypted();
    reclaims += s.recipient(a).reclaims_submitted();
  }
  EXPECT_EQ(redeems, decrypted);
  EXPECT_EQ(reclaims, 0u);
}

// --- Directory hardening ---

TEST(DirectoryHardening, SpoofedAnnouncementIgnored) {
  // Mallory announces an IP for VICTIM's address. The directory must only
  // accept announcements signed by the claimed owner.
  sim::Scenario s(fast_config(61));
  s.bootstrap();

  const auto& victim_pkh = s.recipient(0).pkh();
  // The probe must outlive all event processing: Directory registers
  // watchers on the node that reference it for its whole lifetime.
  core::Directory probe(s.actor_node(1));
  const auto genuine_entry = probe.lookup(victim_pkh);
  ASSERT_TRUE(genuine_entry.has_value());
  const auto genuine = genuine_entry->ip;

  // Mallory = gateway 2's wallet (funded? gateways start broke; fund it).
  // Use recipient 2's wallet instead — it has funds.
  const util::Bytes spoof =
      core::encode_directory_entry(victim_pkh, 0xDEAD0001, 666);
  auto& mallory_node = s.actor_node(2);
  const auto tx = s.recipient(2).wallet().create_announcement(
      mallory_node.chain(), &mallory_node.mempool(), spoof, 500);
  ASSERT_TRUE(tx.has_value());
  ASSERT_TRUE(mallory_node.submit_tx(*tx).ok());
  s.loop().run_until(s.loop().now() + 2 * util::kMinute);

  const auto entry = probe.lookup(victim_pkh);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->ip, genuine) << "spoofed announcement took effect";
}

TEST(DirectoryHardening, RepublishUpdatesIp) {
  sim::Scenario s(fast_config(62));
  s.bootstrap();
  // Recipient 0 "moves": announces a new IP; directories follow.
  ASSERT_TRUE(s.recipient(0).announce_ip(0x0a0000FE, 9000));
  s.loop().run_until(s.loop().now() + 2 * util::kMinute);
  core::Directory probe(s.actor_node(1));
  const auto entry = probe.lookup(s.recipient(0).pkh());
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->ip, 0x0a0000FEu);
  EXPECT_EQ(entry->port, 9000);
}

// --- Gossip-level orphan transactions ---

TEST(GossipOrphans, ChildBeforeParentStillAccepted) {
  p2p::EventLoop loop;
  p2p::SimNet net(loop, 9);
  chain::ChainParams params;
  params.pow_zero_bits = 4;
  params.coinbase_maturity = 1;
  p2p::ChainNode node(net, net.add_host("n"), params, {}, 1);
  p2p::ChainNode remote(net, net.add_host("r"), params, {}, 2);

  const chain::Wallet miner_wallet = chain::Wallet::from_seed("om");
  const chain::Miner miner(params, miner_wallet.pkh());
  for (std::uint64_t i = 0; i < 3; ++i) {
    remote.submit_block(miner.mine(remote.chain(), remote.mempool(), i));
  }
  loop.run();

  // Parent pays alice; child (alice -> bob) spends the parent.
  const chain::Wallet alice = chain::Wallet::from_seed("oa");
  const chain::Wallet bob = chain::Wallet::from_seed("ob");
  const auto parent = miner_wallet.create_payment(
      remote.chain(), &remote.mempool(), alice.pkh(), chain::kCoin, 1000);
  ASSERT_TRUE(parent.has_value());
  chain::Transaction child;
  {
    chain::TxIn in;
    in.prevout = chain::OutPoint{parent->txid(), 0};
    child.vin.push_back(in);
    chain::TxOut out;
    out.value = chain::kCoin - 1000;
    out.script_pubkey = script::make_p2pkh(bob.pkh());
    child.vout.push_back(out);
    alice.sign_p2pkh_input(child, 0, parent->vout[0].script_pubkey);
  }

  // Deliver CHILD first, then PARENT (simulating gossip reordering).
  net.send(remote.chain().height() >= 0 ? 1 : 1, 0,
           p2p::Message{"tx", child.serialize(), -1});
  loop.run();
  EXPECT_FALSE(node.mempool().contains(child.txid()));  // parked as orphan
  net.send(1, 0, p2p::Message{"tx", parent->serialize(), -1});
  loop.run();
  EXPECT_TRUE(node.mempool().contains(parent->txid()));
  EXPECT_TRUE(node.mempool().contains(child.txid()));  // drained from orphans
}

}  // namespace
}  // namespace bcwan
