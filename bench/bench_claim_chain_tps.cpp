// CLM-TPS — "Multichain advertises a transaction throughput of up to 1000
// tx/s in its latest version" (paper §5.2).
//
// Measures what this chain implementation sustains on this machine:
// mempool acceptance (full validation incl. ECDSA — the transactions under
// test are built by hand and the verification caches are cleared before
// every pass, so nothing shortcuts them), block assembly + connect, for
// both plain P2PKH payments and Listing-1 fair-exchange transactions.
//
// Each figure is the median of 5 timed passes after one untimed warm-up
// pass, with the interquartile range beside it; the result, with the host
// it ran on, goes to BENCH_chain_tps.json. Host-speed numbers: no gate.
// BCWAN_SMOKE=1 shrinks the transaction sets.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "bench_common.hpp"
#include "chain/blockchain.hpp"
#include "chain/mempool.hpp"
#include "chain/miner.hpp"
#include "chain/sigcache.hpp"
#include "chain/wallet.hpp"

namespace {

using namespace bcwan;

/// Hand-build a 1-in/1-out P2PKH spend of `coin` by `owner` to `dest`,
/// signed fresh (never validated anywhere).
chain::Transaction make_spend(const chain::Wallet& owner,
                              const chain::OutPoint& outpoint,
                              const chain::TxOut& coin,
                              const script::Script& dest_script,
                              chain::Amount fee) {
  chain::Transaction tx;
  chain::TxIn in;
  in.prevout = outpoint;
  tx.vin.push_back(std::move(in));
  chain::TxOut out;
  out.value = coin.value - fee;
  out.script_pubkey = dest_script;
  tx.vout.push_back(std::move(out));
  owner.sign_p2pkh_input(tx, 0, coin.script_pubkey);
  return tx;
}

constexpr int kReps = 5;

struct Measured {
  double median = 0.0;
  double iqr = 0.0;
};

/// One untimed warm-up pass, then the median and IQR of kReps timed
/// passes. Both verification caches are cleared before every pass, so each
/// one validates from scratch.
Measured measure(const std::function<double()>& pass) {
  const auto cold = [&pass] {
    chain::sig_cache().clear();
    chain::script_exec_cache().clear();
    return pass();
  };
  cold();
  util::SampleStats stats;
  for (int rep = 0; rep < kReps; ++rep) stats.add(cold());
  return {stats.median(), stats.percentile(75) - stats.percentile(25)};
}

/// Transactions per second for accepting all of `txs` into a fresh mempool
/// on top of `bc`; exits if any is refused.
double accept_rate(const chain::ChainParams& params,
                   const chain::Blockchain& bc,
                   const std::vector<chain::Transaction>& txs) {
  chain::Mempool pool(params);
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& tx : txs) {
    if (!pool.accept(tx, bc.utxo(), bc.height() + 1).ok()) {
      std::printf("unexpected mempool rejection\n");
      std::exit(1);
    }
  }
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return static_cast<double>(txs.size()) / s;
}

}  // namespace

int main() {
  using Clock = std::chrono::steady_clock;
  bench::print_header("CLM-TPS", "chain transaction throughput");
  const bool smoke = std::getenv("BCWAN_SMOKE") != nullptr;
  const std::size_t kP2pkhTxs = smoke ? 50 : 300;
  const int kOffers = smoke ? 12 : 60;

  chain::ChainParams params;
  params.pow_zero_bits = 4;
  params.coinbase_maturity = 2;
  chain::Blockchain bc(params);
  chain::Mempool pool(params);
  const chain::Wallet miner_wallet = chain::Wallet::from_seed("tps-miner");
  const chain::Wallet alice = chain::Wallet::from_seed("tps-alice");
  const chain::Miner miner(params, miner_wallet.pkh());

  std::uint64_t now = 0;
  auto mine = [&] {
    const chain::Block block = miner.mine(bc, pool, ++now);
    bc.accept_block(block);
    pool.remove_confirmed(block);
  };
  for (int i = 0; i < 6; ++i) mine();

  // Give alice a bankroll of independent confirmed coins.
  const int kCoins = 12;
  for (int i = 0; i < kCoins; ++i) {
    const auto tx = miner_wallet.create_payment(bc, &pool, alice.pkh(),
                                                40 * chain::kCoin, 1000);
    if (tx) pool.accept(*tx, bc.utxo(), bc.height() + 1);
    mine();
  }

  // Build chains of fresh spends: 25 per coin, child spending parent, none
  // ever validated.
  const script::Script alice_script = script::make_p2pkh(alice.pkh());
  std::vector<chain::Transaction> fresh;
  for (const auto& [outpoint, coin] : alice.spendable(bc)) {
    chain::OutPoint cursor = outpoint;
    chain::TxOut cursor_out = coin.out;
    for (int depth = 0; depth < 25; ++depth) {
      chain::Transaction tx =
          make_spend(alice, cursor, cursor_out, alice_script, 1000);
      cursor = chain::OutPoint{tx.txid(), 0};
      cursor_out = tx.vout[0];
      fresh.push_back(std::move(tx));
    }
    if (fresh.size() >= kP2pkhTxs) break;
  }
  fresh.resize(std::min(fresh.size(), kP2pkhTxs));

  const Measured p2pkh =
      measure([&] { return accept_rate(params, bc, fresh); });
  std::printf("P2PKH mempool acceptance  : %zu tx, %.0f tx/s (IQR %.0f)\n",
              fresh.size(), p2pkh.median, p2pkh.iqr);

  // Listing-1 offers: fresh, never validated.
  util::Rng rng(1);
  const script::PubKeyHash gw = script::to_pubkey_hash(util::str_bytes("gw"));
  std::vector<chain::Transaction> offers;
  {
    // Spend the tips of the measured chains' confirmed ancestors: reuse the
    // original coins by first confirming the fresh chains.
    for (const auto& tx : fresh) pool.accept(tx, bc.utxo(), bc.height() + 1);
    mine();
    mine();
    int built = 0;
    for (const auto& [outpoint, coin] : alice.spendable(bc)) {
      if (built >= kOffers) break;
      const crypto::RsaKeyPair eph = crypto::rsa_generate(rng, 512);
      chain::Transaction tx;
      chain::TxIn in;
      in.prevout = outpoint;
      tx.vin.push_back(std::move(in));
      chain::TxOut out;
      out.value = coin.out.value - 1000;
      out.script_pubkey = script::make_key_release(eph.pub, gw, alice.pkh(),
                                                   bc.height() + 100);
      tx.vout.push_back(std::move(out));
      alice.sign_p2pkh_input(tx, 0, coin.out.script_pubkey);
      offers.push_back(std::move(tx));
      ++built;
    }
  }
  const Measured offer =
      measure([&] { return accept_rate(params, bc, offers); });
  std::printf("Listing-1 offer acceptance: %zu tx, %.0f tx/s (IQR %.0f)\n",
              offers.size(), offer.median, offer.iqr);

  // Block assembly + connect for a full block of offers, each pass on a
  // copy of the chain so every pass connects the same block.
  chain::Mempool offer_pool(params);
  for (const auto& tx : offers) offer_pool.accept(tx, bc.utxo(), bc.height() + 1);
  std::size_t block_txs = 0;
  const Measured block_ms = measure([&] {
    chain::Blockchain chain = bc;
    const auto t0 = Clock::now();
    const chain::Block big = miner.mine(chain, offer_pool, now + 1);
    const auto result = chain.accept_block(big);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (result != chain::AcceptBlockResult::kConnected) {
      std::printf("unexpected block result %s\n",
                  chain::accept_block_result_name(result).c_str());
      std::exit(1);
    }
    block_txs = big.txs.size();
    return ms;
  });
  std::printf("block assemble+mine+connect: %zu tx, %.2f ms (IQR %.2f)\n",
              block_txs, block_ms.median, block_ms.iqr);

  std::printf(
      "\npaper context: Multichain advertises up to 1000 tx/s; the paper\n"
      "saw far less once block verification stalled the daemon (Fig. 6).\n"
      "Listing-1 offers are plain P2PKH spends to validate, so they cost\n"
      "about the same to accept — the RSA math only runs when the offer is\n"
      "*redeemed*.\n");

  std::FILE* f = std::fopen("BENCH_chain_tps.json", "w");
  if (f != nullptr) {
    bench::JsonWriter w(f);
    w.begin_object();
    w.str("experiment", "CLM-TPS");
    w.boolean("smoke", smoke);
    bench::write_host(w);
    w.integer("repetitions", kReps);
    w.uint("p2pkh_txs", fresh.size());
    w.num("p2pkh_accept_tx_per_s", p2pkh.median, "%.1f");
    w.num("p2pkh_accept_tx_per_s_iqr", p2pkh.iqr, "%.1f");
    w.uint("offer_txs", offers.size());
    w.num("offer_accept_tx_per_s", offer.median, "%.1f");
    w.num("offer_accept_tx_per_s_iqr", offer.iqr, "%.1f");
    w.uint("block_txs", block_txs);
    w.num("block_assemble_connect_ms", block_ms.median, "%.3f");
    w.num("block_assemble_connect_ms_iqr", block_ms.iqr, "%.3f");
    w.uint("peak_rss_bytes", bench::peak_rss_bytes());
    w.end_object();
    w.finish();
    std::fclose(f);
    std::printf("results written to BENCH_chain_tps.json\n");
  }
  return 0;
}
