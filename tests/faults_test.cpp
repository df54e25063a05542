// Chaos-injection and recovery tests: the FaultPlan subsystem, the
// end-to-end retry paths it exercises (sensor retransmit, gateway re-key
// and DELIVER retry, recipient offer re-broadcast), and the federation
// safety invariants that must survive every fault.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "chain/miner.hpp"
#include "script/templates.hpp"
#include "sim/faults.hpp"
#include "sim/invariants.hpp"
#include "sim/scenario.hpp"

namespace bcwan {
namespace {

using util::str_bytes;

sim::ScenarioConfig fault_config(std::uint64_t seed) {
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

/// True when some output of the block is a key-release offer.
bool carries_key_release(const chain::Block& block) {
  for (const chain::Transaction& tx : block.txs) {
    for (const chain::TxOut& out : tx.vout) {
      if (script::classify(out.script_pubkey).type ==
          script::ScriptType::kKeyRelease)
        return true;
    }
  }
  return false;
}

// --- FaultPlan mechanics ---

TEST(FaultPlan, MinerStallFreezesAndResumesBlockProduction) {
  sim::Scenario s(fault_config(101));
  s.bootstrap();
  sim::FaultPlan faults(s, 1);
  faults.stall_miner(s.loop().now() + 10 * util::kSecond, 2 * util::kMinute);

  s.loop().run_until(s.loop().now() + 15 * util::kSecond);
  ASSERT_TRUE(s.mining_paused());
  const std::uint64_t frozen = s.blocks_mined();
  s.loop().run_until(s.loop().now() + 100 * util::kSecond);
  EXPECT_EQ(s.blocks_mined(), frozen) << "blocks mined during the stall";

  s.loop().run_until(s.loop().now() + 5 * util::kMinute);
  EXPECT_FALSE(s.mining_paused());
  EXPECT_GT(s.blocks_mined(), frozen) << "mining never resumed";
  EXPECT_EQ(faults.stalls_injected(), 1u);
}

TEST(FaultPlan, PartitionOpensAndHeals) {
  sim::Scenario s(fault_config(102));
  s.bootstrap();
  sim::FaultPlan faults(s, 2);
  faults.partition_actor(0, s.loop().now() + util::kSecond,
                         30 * util::kSecond);
  s.loop().run_until(s.loop().now() + 5 * util::kSecond);
  EXPECT_TRUE(s.net().is_partitioned(s.actor_node(0).host()));
  s.loop().run_until(s.loop().now() + util::kMinute);
  EXPECT_FALSE(s.net().is_partitioned(s.actor_node(0).host()));
  EXPECT_EQ(faults.partitions_injected(), 1u);
  EXPECT_EQ(faults.log().size(), 2u);
}

// --- Recovery paths ---

TEST(Recovery, BurstLossDegradationRecoversViaRetransmission) {
  // Force every LoRa link into a total-blackout bad state for a minute; the
  // exchange started under it must complete once the channel recovers.
  sim::Scenario s(fault_config(103));
  s.bootstrap();
  sim::FaultPlan faults(s, 3);
  lora::BurstLossModel burst;
  burst.loss_bad = 1.0;
  burst.mean_bad_s = 20.0;
  faults.degrade_lora(burst, s.loop().now() + util::kSecond,
                      util::kMinute);
  s.loop().run_until(s.loop().now() + 2 * util::kSecond);

  s.sensor(0, 0).start_exchange(str_bytes("thru the fade"));
  const util::SimTime deadline = s.loop().now() + 20 * util::kMinute;
  while (s.recipient(0).readings_decrypted() == 0 &&
         s.loop().now() < deadline) {
    s.loop().run_until(s.loop().now() + util::kSecond);
  }
  EXPECT_EQ(s.recipient(0).readings_decrypted(), 1u);
  EXPECT_GT(s.radio().frames_lost(), 0u);
  // Recovery really went through the radio retry machinery.
  EXPECT_GE(s.sensor(0, 0).request_retries() +
                s.sensor(0, 0).data_retransmissions() +
                s.sensor(0, 0).exchange_restarts(),
            1u);
}

TEST(Recovery, GatewayCrashMidExchangeRecovers) {
  // Crash the serving gateway just as it mints the ephemeral key; the
  // sensor's retry path must re-drive the exchange after the restart.
  sim::Scenario s(fault_config(104));
  s.bootstrap();

  // sensor(0,*) attaches to actor 1's master gateway.
  const std::size_t victim = static_cast<std::size_t>(
      1 * s.config().gateways_per_actor + static_cast<int>(s.master_index(1)));
  sim::FaultPlan faults(s, 4);

  s.sensor(0, 0).start_exchange(str_bytes("crash test"));
  // Run until the key is minted, then crash immediately for 45 s.
  const util::SimTime key_deadline = s.loop().now() + 2 * util::kMinute;
  while (s.gateway_by_index(victim).keys_issued() == 0 &&
         s.loop().now() < key_deadline) {
    s.loop().run_until(s.loop().now() + 100 * util::kMillisecond);
  }
  ASSERT_GE(s.gateway_by_index(victim).keys_issued(), 1u);
  faults.crash_gateway(victim, s.loop().now(), 45 * util::kSecond);

  const util::SimTime deadline = s.loop().now() + 30 * util::kMinute;
  while (s.recipient(0).readings_decrypted() == 0 &&
         s.loop().now() < deadline) {
    s.loop().run_until(s.loop().now() + util::kSecond);
  }
  EXPECT_TRUE(s.gateway_by_index(victim).alive());
  EXPECT_EQ(s.recipient(0).readings_decrypted(), 1u);
  EXPECT_EQ(faults.crashes_injected(), 1u);
  // Safety: the crash must not have double-paid anybody.
  const auto report = sim::check_chain_invariants(s.master_node().chain());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Recovery, DeliverRetriesAcrossRecipientPartition) {
  // Partition the recipient's host just long enough to eat the first
  // DELIVER; the gateway's backoff retries must land after the heal and the
  // exchange must settle (pre-retry behaviour: write-off + CLTV reclaim).
  sim::ScenarioConfig config = fault_config(105);
  sim::Scenario s(config);
  s.bootstrap();
  sim::FaultPlan faults(s, 5);

  bool delivered = false;
  s.recipient(0).on_reading = [&](std::uint16_t, const util::Bytes&) {
    delivered = true;
  };
  // Partition now; the exchange starts under it and the heal comes 40 s in.
  faults.partition_actor(0, s.loop().now(), 40 * util::kSecond);
  s.loop().run_until(s.loop().now() + util::kSecond);
  s.sensor(0, 0).start_exchange(str_bytes("try, try again"));

  const util::SimTime deadline = s.loop().now() + 20 * util::kMinute;
  while (!delivered && s.loop().now() < deadline) {
    s.loop().run_until(s.loop().now() + util::kSecond);
  }
  EXPECT_TRUE(delivered);
  EXPECT_EQ(s.recipient(0).reclaims_submitted(), 0u);
  // At least one retry was needed to get the DELIVER through.
  std::uint64_t retries = 0;
  for (std::size_t g = 0; g < s.gateway_count(); ++g)
    retries += s.gateway_by_index(g).deliver_retries();
  EXPECT_GE(retries, 1u);
}

// --- Reorg vs offer (satellite regression) ---

TEST(ReorgRecovery, OrphanedOfferSettlesExactlyOnce) {
  // The offer tx is mined, then a longer coinbase-only fork orphans it
  // before the gateway's confirmation gate opens. The recipient must
  // re-broadcast the offer, and the exchange must settle exactly once —
  // no double pay, no stuck exchange.
  sim::ScenarioConfig config = fault_config(106);
  config.gateway_config.confirmations_required = 2;
  sim::Scenario s(config);
  s.bootstrap();

  std::uint64_t offers = 0;
  s.recipient(0).on_offer_posted = [&](std::uint16_t) { ++offers; };
  s.sensor(0, 0).start_exchange(str_bytes("reorg me"));

  // Wait until the offer is mined (1 confirmation, below the gate of 2).
  auto offer_confirmed_once = [&]() -> bool {
    if (offers == 0) return false;
    const auto& chain = s.master_node().chain();
    for (int h = chain.height(); h > chain.height() - 3 && h >= 0; --h) {
      if (carries_key_release(*chain.block_at(h))) return true;
    }
    return false;
  };
  const util::SimTime mine_deadline = s.loop().now() + 10 * util::kMinute;
  while (!offer_confirmed_once() && s.loop().now() < mine_deadline) {
    s.loop().run_until(s.loop().now() + util::kSecond);
  }
  ASSERT_TRUE(offer_confirmed_once()) << "offer never got mined";
  ASSERT_EQ(s.recipient(0).readings_decrypted(), 0u)
      << "settled before the reorg could be staged";

  // Freeze honest mining and graft a longer, empty fork from two blocks
  // back — the offer's block loses.
  s.set_mining_paused(true);
  s.loop().run_until(s.loop().now() + 2 * util::kSecond);
  const int tip = s.master_node().chain().height();
  chain::Blockchain fork(s.config().chain_params);
  for (int h = 1; h <= tip - 2; ++h) {
    ASSERT_NE(fork.accept_block(*s.master_node().chain().block_at(h)),
              chain::AcceptBlockResult::kInvalid);
  }
  const chain::Wallet fork_miner_wallet = chain::Wallet::from_seed("forker");
  const chain::Miner fork_miner(s.config().chain_params,
                                fork_miner_wallet.pkh());
  chain::Mempool empty_pool(s.config().chain_params);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const chain::Block block = fork_miner.mine(fork, empty_pool, 800000 + i);
    ASSERT_NE(fork.accept_block(block), chain::AcceptBlockResult::kInvalid);
    s.master_node().submit_block(block);
  }
  s.loop().run_until(s.loop().now() + 5 * util::kSecond);
  ASSERT_GT(s.master_node().chain().height(), tip);
  {
    // The offer must actually be orphaned for the test to mean anything.
    const auto& chain = s.master_node().chain();
    bool still_confirmed = false;
    for (int h = 0; h <= chain.height(); ++h)
      still_confirmed |= carries_key_release(*chain.block_at(h));
    ASSERT_FALSE(still_confirmed) << "fork failed to orphan the offer";
  }

  // Resume mining. The reorging nodes resurrect the orphaned offer (and
  // its parent chain) into their mempools; the recipient's block-driven
  // re-broadcast backstops them. Either way: one settlement, no reclaim.
  s.set_mining_paused(false);
  const util::SimTime deadline = s.loop().now() + 20 * util::kMinute;
  while (s.recipient(0).readings_decrypted() == 0 &&
         s.loop().now() < deadline) {
    s.loop().run_until(s.loop().now() + util::kSecond);
  }
  EXPECT_EQ(s.recipient(0).readings_decrypted(), 1u);
  EXPECT_EQ(s.recipient(0).reclaims_submitted(), 0u);
  EXPECT_EQ(s.recipient(0).pending_exchange_count(), 0u);

  // Exactly one settlement on-chain, funds conserved everywhere.
  s.loop().run_until(s.loop().now() + 2 * util::kMinute);
  const auto report = sim::check_chain_invariants(s.master_node().chain());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- Full chaos acceptance ---

TEST(Chaos, FederationSurvivesCombinedFaults) {
  // The acceptance bar: Gilbert–Elliott burst loss, one WAN partition per
  // actor, a gateway crash/restart and a 2-minute miner stall, all in one
  // run — every offered exchange still completes and no safety invariant
  // breaks.
  sim::ScenarioConfig config = fault_config(107);
  config.gateway_config.offer_timeout = 5 * util::kMinute;
  config.gateway_config.issued_key_timeout = 5 * util::kMinute;
  config.recipient_config.timeout_blocks = 30;
  sim::Scenario s(config);
  s.bootstrap();

  const util::SimTime chaos_start = s.loop().now();
  constexpr util::SimTime kHorizon = 30 * util::kMinute;
  sim::FaultPlan faults(s, 7);
  sim::ChaosProfile profile;
  profile.partitions_per_actor = 1.0;
  profile.partition_duration = 60 * util::kSecond;
  profile.gateway_crashes = 1.0;
  profile.crash_downtime = 90 * util::kSecond;
  profile.miner_stalls = 1.0;
  profile.stall_duration = 2 * util::kMinute;
  profile.burst.loss_bad = 0.25;
  profile.burst.loss_good = 0.01;
  profile.burst.mean_good_s = 60.0;
  profile.burst.mean_bad_s = 10.0;
  faults.unleash(profile, kHorizon);

  s.run_exchanges(8, 3 * util::kHour);
  EXPECT_GE(s.exchanges_completed(), 8u);

  // Mid-run (non-quiescent) safety check.
  auto mid = sim::check_federation_invariants(s, false);
  EXPECT_TRUE(mid.ok()) << mid.to_string();

  // Drain: let retries, housekeeping and reclaims run dry, then demand
  // full quiescence (no leaked in-flight state anywhere). The drain must
  // also outlast the fault horizon — a partition scheduled near its end
  // could otherwise still be open when the check fires.
  s.loop().run_until(std::max(s.loop().now() + 20 * util::kMinute,
                              chaos_start + kHorizon + 10 * util::kMinute));
  auto final = sim::check_federation_invariants(s, true);
  EXPECT_TRUE(final.ok()) << final.to_string();
}

// --- Persistent deployments: crash-restart through real disk recovery ---

struct ChaosTempDir {
  std::filesystem::path path;
  ChaosTempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "bcwan-chaos-XXXXXX")
            .string();
    path = ::mkdtemp(tmpl.data());
  }
  ~ChaosTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(Recovery, TornWriteCrashRecoversFromDisk) {
  // Deterministic torn-write fault against a persistent deployment: the
  // gateway's co-located daemon crash-stops, bytes are sheared off its
  // block log tail, and restart must come back through snapshot + replay +
  // torn-tail truncation — visible in the fault log and telemetry.
  ChaosTempDir dir;
  sim::ScenarioConfig config = fault_config(109);
  config.persist_dir = dir.path.string();
  sim::Scenario s(config);
  s.bootstrap();
  // Let some blocks reach disk first.
  s.loop().run_until(s.loop().now() + 2 * util::kMinute);
  ASSERT_TRUE(s.node_for_gateway(0).persistent());
  const int height_before = s.node_for_gateway(0).chain().height();
  ASSERT_GT(height_before, 0);

  sim::FaultPlan faults(s, 3);
  faults.torn_write_crash(0, s.loop().now() + util::kSecond,
                          30 * util::kSecond, 7);
  s.loop().run_until(s.loop().now() + 2 * util::kMinute);

  auto& node = s.node_for_gateway(0);
  EXPECT_FALSE(node.crashed());
  EXPECT_GT(node.last_recovery().truncated_bytes, 0u);
  // Catch-up gossip closes whatever the torn tail cost.
  s.loop().run_until(s.loop().now() + 2 * util::kMinute);
  EXPECT_GE(node.chain().height(), height_before);
  const auto& log = faults.log();
  const bool recovered_logged =
      std::any_of(log.begin(), log.end(), [](const std::string& line) {
        return line.find("recovered after torn write") != std::string::npos;
      });
  EXPECT_TRUE(recovered_logged);
}

TEST(Recovery, MinerCrashRecoversAndResumesMining) {
  ChaosTempDir dir;
  sim::ScenarioConfig config = fault_config(110);
  config.persist_dir = dir.path.string();
  sim::Scenario s(config);
  s.bootstrap();
  s.loop().run_until(s.loop().now() + 2 * util::kMinute);
  ASSERT_TRUE(s.master_node().persistent());
  const int height_before = s.master_node().chain().height();
  ASSERT_GT(height_before, 0);

  sim::FaultPlan faults(s, 4);
  faults.crash_miner(s.loop().now() + util::kSecond, 30 * util::kSecond);
  s.loop().run_until(s.loop().now() + 10 * util::kSecond);
  EXPECT_TRUE(s.mining_paused());
  EXPECT_TRUE(s.master_node().crashed());

  s.loop().run_until(s.loop().now() + 3 * util::kMinute);
  EXPECT_FALSE(s.mining_paused());
  EXPECT_FALSE(s.master_node().crashed());
  EXPECT_GE(s.master_node().last_recovery().tip_height, height_before);
  EXPECT_GT(s.master_node().chain().height(), height_before)
      << "mining never resumed after the crash";
}

TEST(Chaos, PersistentFederationSurvivesCrashChaos) {
  // The ISSUE acceptance path: chaos profile with gateway crashes, torn
  // writes and a miner crash, all against a store-backed deployment, while
  // exchanges run. Every crash-restart goes through real disk recovery.
  ChaosTempDir dir;
  sim::ScenarioConfig config = fault_config(111);
  config.persist_dir = dir.path.string();
  config.gateway_config.offer_timeout = 5 * util::kMinute;
  config.gateway_config.issued_key_timeout = 5 * util::kMinute;
  config.recipient_config.timeout_blocks = 30;
  sim::Scenario s(config);
  s.bootstrap();

  constexpr util::SimTime kHorizon = 20 * util::kMinute;
  sim::FaultPlan faults(s, 11);
  sim::ChaosProfile profile;
  profile.partitions_per_actor = 0.0;
  profile.gateway_crashes = 1.0;
  profile.torn_writes = 1.0;
  profile.miner_crashes = 1.0;
  profile.miner_stalls = 0.0;
  profile.crash_downtime = 60 * util::kSecond;
  faults.unleash(profile, kHorizon);

  s.run_exchanges(6, 3 * util::kHour);
  EXPECT_GE(s.exchanges_completed(), 6u);
  s.loop().run_until(s.loop().now() + kHorizon + 10 * util::kMinute);
  auto report = sim::check_federation_invariants(s, true);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // Every persistent daemon is back up.
  EXPECT_FALSE(s.master_node().crashed());
  for (std::size_t g = 0; g < s.gateway_count(); ++g)
    EXPECT_FALSE(s.node_for_gateway(g).crashed()) << "gateway " << g;
}

TEST(Chaos, CleanRunPassesAllInvariants) {
  sim::ScenarioConfig config = fault_config(108);
  config.gateway_config.offer_timeout = 5 * util::kMinute;
  config.gateway_config.issued_key_timeout = 5 * util::kMinute;
  config.recipient_config.timeout_blocks = 30;
  sim::Scenario s(config);
  s.bootstrap();
  s.run_exchanges(6, util::kHour);
  EXPECT_GE(s.exchanges_completed(), 6u);
  s.loop().run_until(s.loop().now() + 15 * util::kMinute);
  const auto report = sim::check_federation_invariants(s, true);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
}  // namespace bcwan
