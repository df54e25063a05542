// Onboarding a new federation member.
//
// The paper's master node exists "to bootstrap the nodes" (§5.2): a joining
// actor needs the current chain before it can serve lookups or verify
// offers. This example runs a small federation, snapshots one member's
// chain with Blockchain::export_chain, "ships" it to a newcomer
// (import_chain re-validates every block — a tampered snapshot is
// rejected), and shows the newcomer's directory immediately resolving every
// existing recipient.
//
//   ./onboarding
#include <cstdio>

#include "bcwan/directory.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace bcwan;
  std::printf("BcWAN member onboarding via chain snapshot\n");
  std::printf("------------------------------------------\n\n");

  sim::ScenarioConfig config;
  config.actors = 3;
  config.sensors_per_actor = 1;
  config.chain_params.pow_zero_bits = 8;
  config.chain_params.coinbase_maturity = 3;
  config.recipient_funding = 10 * chain::kCoin;
  config.seed = 99;
  sim::Scenario scenario(config);
  scenario.bootstrap();
  // Some traffic so the chain is non-trivial.
  scenario.run_exchanges(3, 20 * util::kMinute);
  scenario.loop().run_until(scenario.loop().now() + 2 * util::kMinute);

  auto& veteran = scenario.actor_node(0);
  std::printf("[federation] height %d, %zu UTXOs after %llu exchanges\n",
              veteran.chain().height(), veteran.chain().utxo().size(),
              static_cast<unsigned long long>(scenario.exchanges_completed()));

  // 1. Snapshot a member's chain.
  const util::Bytes snapshot = veteran.chain().export_chain();
  std::printf("[snapshot]   exported %zu bytes (%d blocks)\n",
              snapshot.size(), veteran.chain().height());

  // 2. A tampered snapshot is rejected outright.
  util::Bytes tampered = snapshot;
  tampered[tampered.size() / 3] ^= 0x40;
  const auto rejected =
      chain::Blockchain::import_chain(config.chain_params, tampered);
  std::printf("[integrity]  tampered snapshot %s\n",
              rejected ? "ACCEPTED (BUG!)" : "rejected, as it must be");

  // 3. The genuine snapshot re-validates block by block.
  auto newcomer =
      chain::Blockchain::import_chain(config.chain_params, snapshot);
  if (!newcomer) {
    std::printf("[join]       import failed unexpectedly\n");
    return 1;
  }
  std::printf("[join]       newcomer synced to height %d, tip %s...\n",
              newcomer->height(),
              chain::hash_hex(newcomer->tip_hash()).substr(0, 16).c_str());

  // 4. The newcomer's directory scan resolves every recipient in the
  //    federation — it can start forwarding as a gateway immediately.
  int resolved = 0;
  for (int h = 0; h <= newcomer->height(); ++h) {
    const chain::Block block = *newcomer->block_at(h);
    for (const chain::Transaction& tx : block.txs) {
      for (const chain::TxOut& out : tx.vout) {
        const auto classified = script::classify(out.script_pubkey);
        if (classified.type != script::ScriptType::kOpReturn) continue;
        const auto entry = core::decode_directory_entry(classified.data);
        if (entry) ++resolved;
      }
    }
  }
  std::printf("[directory]  %d announcement(s) recovered from the snapshot:\n",
              resolved);
  for (int a = 0; a < scenario.actor_count(); ++a) {
    std::printf("               %s -> (published on-chain)\n",
                scenario.recipient(a).wallet().address().c_str());
  }

  std::printf("\nA joining actor needs nothing but the snapshot and the\n"
              "federation's chain parameters — no trusted introducer.\n");
  return 0;
}
