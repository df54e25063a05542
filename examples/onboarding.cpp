// Onboarding a new federation member.
//
// The paper's master node exists "to bootstrap the nodes" (§5.2): a joining
// actor needs the current chain before it can serve lookups or verify
// offers. This example runs a small federation, ships one member's blocks
// to a newcomer as the member stores them (the bytes getblocks catch-up
// serves), has the newcomer re-validate every block on a fresh chain — a
// tampered block is rejected — and shows the newcomer's directory
// immediately resolving every existing recipient.
//
//   ./onboarding
#include <cstdio>

#include "bcwan/directory.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace bcwan;
  std::printf("BcWAN member onboarding via block catch-up\n");
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

  // 1. Ship the member's blocks, as stored, and re-validate each one on a
  //    fresh chain — the getblocks catch-up path.
  const chain::Blockchain& source = veteran.chain();
  chain::Blockchain newcomer(config.chain_params);
  std::size_t shipped = 0;
  const auto ship = [&](const util::Bytes& bytes) {
    shipped += bytes.size();
    const auto block = chain::Block::deserialize(bytes);
    return block ? newcomer.accept_block(*block)
                 : chain::AcceptBlockResult::kInvalid;
  };
  for (int h = 1; h < source.height(); ++h) {
    if (ship(*source.block_bytes_at(h)) !=
        chain::AcceptBlockResult::kConnected) {
      std::printf("[join]       block %d failed validation unexpectedly\n", h);
      return 1;
    }
  }

  // 2. A tampered tip is rejected outright.
  util::Bytes tampered = *source.block_bytes_at(source.height());
  tampered[tampered.size() / 2] ^= 0x40;
  const bool rejected = ship(tampered) != chain::AcceptBlockResult::kConnected;
  std::printf("[integrity]  tampered block %s\n",
              rejected ? "rejected, as it must be" : "ACCEPTED (BUG!)");

  // 3. The genuine tip connects.
  if (ship(*source.block_bytes_at(source.height())) !=
      chain::AcceptBlockResult::kConnected) {
    std::printf("[join]       tip failed validation unexpectedly\n");
    return 1;
  }
  std::printf("[join]       newcomer validated %zu bytes up to height %d, "
              "tip %s...\n",
              shipped, newcomer.height(),
              chain::hash_hex(newcomer.tip_hash()).substr(0, 16).c_str());

  // 4. The newcomer's directory scan resolves every recipient in the
  //    federation — it can start forwarding as a gateway immediately.
  int resolved = 0;
  for (int h = 0; h <= newcomer.height(); ++h) {
    const chain::Block block = *newcomer.block_at(h);
    for (const chain::Transaction& tx : block.txs) {
      for (const chain::TxOut& out : tx.vout) {
        const auto classified = script::classify(out.script_pubkey);
        if (classified.type != script::ScriptType::kOpReturn) continue;
        const auto entry = core::decode_directory_entry(classified.data);
        if (entry) ++resolved;
      }
    }
  }
  std::printf("[directory]  %d announcement(s) recovered from the chain:\n",
              resolved);
  for (int a = 0; a < scenario.actor_count(); ++a) {
    std::printf("               %s -> (published on-chain)\n",
                scenario.recipient(a).wallet().address().c_str());
  }

  std::printf("\nA joining actor needs nothing but the blocks and the\n"
              "federation's chain parameters — no trusted introducer.\n");
  return 0;
}
