// HASH-TPUT — hashing hot-path throughput across the PR's ablations.
//
// Block propagation cost in the BcWAN daemon is dominated by hashing and
// signature checking; this bench measures what the four optimizations buy:
//
//   sha256 stream          runtime-dispatched compressor (scalar vs SIMD)
//   merkle construction    batched sha256d64 kernel (+ thread-pool split)
//   per-input sighash      midstate precomputation vs naive O(n^2)
//                          re-serialization
//   txid                   memoized vs recomputed-per-call
//
// Before any timing, an equivalence gate recomputes block hashes, merkle
// roots, txids, sighashes and the connect_block verdict under EVERY backend
// the CPU offers and cross-checks them bit for bit against the scalar
// reference; any mismatch exits nonzero. Results land in BENCH_hashing.json.
//
// BCWAN_SMOKE=1 shrinks the workload for CI sanity runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "chain/blockchain.hpp"
#include "chain/mempool.hpp"
#include "chain/miner.hpp"
#include "chain/sigcache.hpp"
#include "chain/validation.hpp"
#include "chain/wallet.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_impl.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcwan;
using Clock = std::chrono::steady_clock;

struct AxisResult {
  std::string name;
  double ms_mean = 0.0;
};

template <typename Fn>
double time_ms(int reps, Fn&& fn) {
  // One untimed warm-up rep, then the mean over `reps`.
  fn();
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
}

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

/// Unsigned many-input transaction for the sighash axis (signature validity
/// is irrelevant to hashing cost; only the serialization shape matters).
chain::Transaction make_wide_tx(std::size_t inputs, util::Rng& rng) {
  chain::Transaction tx;
  for (std::size_t i = 0; i < inputs; ++i) {
    chain::TxIn in;
    const util::Bytes id = rng.bytes(32);
    std::copy(id.begin(), id.end(), in.prevout.txid.begin());
    in.prevout.index = static_cast<std::uint32_t>(i);
    in.script_sig = script::Script(rng.bytes(107));  // P2PKH-sized scriptSig
    tx.vin.push_back(std::move(in));
  }
  chain::TxOut out;
  out.value = 1000;
  out.script_pubkey = script::Script(rng.bytes(25));
  tx.vout.push_back(std::move(out));
  return tx;
}

}  // namespace

int main() {
  bench::print_header("HASH-TPUT", "hashing hot-path throughput");

  const bool smoke = std::getenv("BCWAN_SMOKE") != nullptr;
  const std::size_t kBlockTxs = smoke ? 12 : 48;
  const std::size_t kMerkleLeaves = smoke ? 1024 : 8192;
  const std::size_t kSighashInputs = 32;
  const std::size_t kStreamBytes = smoke ? (512u << 10) : (4u << 20);
  const int kReps = smoke ? 3 : 20;

  const std::string detected = crypto::sha256_backend_name();
  std::vector<std::string> backends;
  for (const char* name : {"scalar", "shani", "avx2"}) {
    if (crypto::sha256_select_backend(name)) backends.push_back(name);
  }
  crypto::sha256_select_backend("auto");
  std::printf("detected backend: %s (available:", detected.c_str());
  for (const auto& b : backends) std::printf(" %s", b.c_str());
  std::printf("; %u hardware threads)\n", std::thread::hardware_concurrency());

  // --- A block of real signed spends for the equivalence gate -------------
  chain::ChainParams params;
  params.pow_zero_bits = 4;
  params.coinbase_maturity = 2;
  chain::Blockchain bc(params);
  chain::Mempool pool(params);
  const chain::Wallet miner_wallet = chain::Wallet::from_seed("hash-miner");
  const chain::Wallet alice = chain::Wallet::from_seed("hash-alice");
  const chain::Miner miner(params, miner_wallet.pkh());

  std::uint64_t now = 0;
  auto mine = [&] {
    const chain::Block block = miner.mine(bc, pool, ++now);
    bc.accept_block(block);
    pool.remove_confirmed(block);
  };
  for (int i = 0; i < 6; ++i) mine();
  for (int i = 0; i < 4; ++i) {
    const auto tx = miner_wallet.create_payment(bc, &pool, alice.pkh(),
                                                40 * chain::kCoin, 1000);
    if (tx) pool.accept(*tx, bc.utxo(), bc.height() + 1);
    mine();
  }

  const script::Script alice_script = script::make_p2pkh(alice.pkh());
  chain::Mempool block_pool(params);
  std::size_t queued = 0;
  for (const auto& [outpoint, coin] : alice.spendable(bc)) {
    chain::OutPoint cursor = outpoint;
    chain::TxOut cursor_out = coin.out;
    while (queued < kBlockTxs) {
      chain::Transaction tx =
          make_spend(alice, cursor, cursor_out, alice_script, 1000);
      cursor = chain::OutPoint{tx.txid(), 0};
      cursor_out = tx.vout[0];
      if (!block_pool.accept(tx, bc.utxo(), bc.height() + 1).ok()) break;
      ++queued;
      if (queued % 16 == 0) break;  // bounded chains; move to the next coin
    }
    if (queued >= kBlockTxs) break;
  }
  chain::Block block = miner.assemble(bc, block_pool, ++now);
  chain::solve_pow(block.header);
  const int height = bc.height() + 1;
  util::Rng rng(0x4a5);
  const chain::Transaction wide = make_wide_tx(kSighashInputs, rng);
  const script::Script wide_spent(rng.bytes(25));
  std::printf("gate block: %zu transactions\n\n", block.txs.size());

  // --- Equivalence gate: every backend vs the scalar reference ------------
  // Caches off so each backend performs the full hashing + verification
  // work instead of short-circuiting on another backend's cached results.
  chain::sig_cache().set_enabled(false);
  chain::script_exec_cache().set_enabled(false);
  chain::sig_cache().clear();
  chain::script_exec_cache().clear();

  struct GateResult {
    chain::Hash256 block_hash{};
    chain::Hash256 merkle_serial{};
    chain::Hash256 merkle_parallel{};
    std::vector<chain::Hash256> txids;
    std::vector<crypto::Digest256> sighashes_naive;
    std::vector<crypto::Digest256> sighashes_midstate;
    bool connect_ok = false;
    std::size_t utxo_size = 0;
    chain::Amount utxo_value = 0;
  };
  auto run_gate = [&](const std::string& backend) {
    if (!crypto::sha256_select_backend(backend)) {
      std::printf("cannot select backend %s\n", backend.c_str());
      std::exit(1);
    }
    GateResult g;
    g.block_hash = block.hash();
    std::vector<chain::Hash256> leaves;
    for (const chain::Transaction& tx : block.txs) {
      // Deep-copy through the wire format and drop the seeded cache so the
      // txid really is recomputed under this backend.
      const auto copy = chain::Transaction::deserialize(tx.serialize());
      copy->invalidate_txid();
      g.txids.push_back(copy->txid());
      leaves.push_back(g.txids.back());
    }
    g.merkle_serial = chain::merkle_root(leaves, 1);
    g.merkle_parallel = chain::merkle_root(leaves, 4);
    const chain::PrecomputedTxData precomp(wide);
    for (std::size_t i = 0; i < wide.vin.size(); ++i) {
      g.sighashes_naive.push_back(
          crypto::sha256d(chain::signature_hash_message(wide, i, wide_spent)));
      g.sighashes_midstate.push_back(precomp.sighash(i, wide_spent));
    }
    chain::UtxoSet utxo = bc.utxo();
    chain::BlockUndo undo;
    const auto verdict = chain::connect_block(block, utxo, height, params, undo);
    g.connect_ok = verdict.ok();
    g.utxo_size = utxo.size();
    g.utxo_value = utxo.total_value();
    return g;
  };

  const GateResult ref = run_gate("scalar");
  bool equivalent = true;
  for (const auto& backend : backends) {
    const GateResult got = run_gate(backend);
    const bool same =
        got.block_hash == ref.block_hash &&
        got.merkle_serial == ref.merkle_serial &&
        got.merkle_parallel == ref.merkle_parallel &&
        got.txids == ref.txids &&
        got.sighashes_naive == ref.sighashes_naive &&
        got.sighashes_midstate == ref.sighashes_midstate &&
        got.sighashes_midstate == ref.sighashes_naive &&
        got.connect_ok == ref.connect_ok && got.connect_ok &&
        got.utxo_size == ref.utxo_size && got.utxo_value == ref.utxo_value;
    std::printf("equivalence [%6s]: %s\n", backend.c_str(),
                same ? "bit-identical" : "MISMATCH");
    equivalent &= same;
  }
  crypto::sha256_select_backend("auto");
  chain::sig_cache().set_enabled(true);
  chain::script_exec_cache().set_enabled(true);
  if (!equivalent) {
    std::printf("\nequivalence gate FAILED — not reporting timings\n");
    return 1;
  }

  // --- Timed axes ---------------------------------------------------------
  std::vector<AxisResult> results;
  auto record = [&](std::string name, double ms) {
    std::printf("%-34s : %10.4f ms\n", name.c_str(), ms);
    results.push_back({std::move(name), ms});
    return ms;
  };
  std::printf("\n");

  // Stream throughput per backend.
  const util::Bytes stream = rng.bytes(kStreamBytes);
  double stream_scalar_ms = 0.0, stream_best_ms = 0.0;
  for (const auto& backend : backends) {
    crypto::sha256_select_backend(backend);
    const double ms = time_ms(kReps, [&] {
      volatile std::uint8_t sink = crypto::sha256(stream)[0];
      (void)sink;
    });
    record("sha256_stream_" + backend, ms);
    if (backend == "scalar") stream_scalar_ms = ms;
    stream_best_ms = stream_best_ms == 0.0 ? ms : std::min(stream_best_ms, ms);
  }

  // Merkle: scalar backend vs SIMD batched vs SIMD + threads.
  std::vector<chain::Hash256> leaves(kMerkleLeaves);
  for (auto& leaf : leaves) {
    const util::Bytes b = rng.bytes(32);
    std::copy(b.begin(), b.end(), leaf.begin());
  }
  auto merkle_serial_ms = [&] {
    return time_ms(kReps, [&] {
      volatile std::uint8_t sink = chain::merkle_root(leaves, 1)[0];
      (void)sink;
    });
  };
  crypto::sha256_select_backend("scalar");
  const double merkle_scalar_ms =
      record("merkle_scalar_serial", merkle_serial_ms());
  // AVX2 is dispatched only on CPUs without SHA-NI; force it through the
  // seam so its batched kernel has a row on every AVX2 host.
  if (detected != "avx2" && crypto::sha256_select_backend("avx2"))
    record("merkle_avx2_serial", merkle_serial_ms());
  crypto::sha256_select_backend("auto");
  const double merkle_simd_ms = record(
      std::string("merkle_") + crypto::sha256_backend_name() + "_serial",
      merkle_serial_ms());
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const double merkle_par_ms = record(
      std::string("merkle_") + crypto::sha256_backend_name() + "_t" +
          std::to_string(hw),
      time_ms(kReps, [&] {
        volatile std::uint8_t sink = chain::merkle_root(leaves, hw)[0];
        (void)sink;
      }));
  const double merkle_best_ms = std::min(merkle_simd_ms, merkle_par_ms);
  const double merkle_speedup = merkle_scalar_ms / merkle_best_ms;

  // Sighash: naive per-input re-serialization vs midstate resume. The
  // midstate side includes PrecomputedTxData construction — that is the
  // real per-transaction cost a validator pays.
  const double sighash_naive_ms = record("sighash_naive_32in", time_ms(kReps, [&] {
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < wide.vin.size(); ++i) {
      acc ^= crypto::sha256d(
          chain::signature_hash_message(wide, i, wide_spent))[0];
    }
    volatile std::uint8_t sink = acc;
    (void)sink;
  }));
  const double sighash_mid_ms = record("sighash_midstate_32in", time_ms(kReps, [&] {
    const chain::PrecomputedTxData precomp(wide);
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < wide.vin.size(); ++i)
      acc ^= precomp.sighash(i, wide_spent)[0];
    volatile std::uint8_t sink = acc;
    (void)sink;
  }));
  const double sighash_speedup = sighash_naive_ms / sighash_mid_ms;

  // Txid: recomputed every call vs memoized.
  chain::Transaction txid_tx = *chain::Transaction::deserialize(wide.serialize());
  const int txid_reps = kReps * 50;
  const double txid_cold_ms = record("txid_cold", time_ms(txid_reps, [&] {
    txid_tx.invalidate_txid();
    volatile std::uint8_t sink = txid_tx.txid()[0];
    (void)sink;
  }));
  const double txid_memo_ms = record("txid_memoized", time_ms(txid_reps, [&] {
    volatile std::uint8_t sink = txid_tx.txid()[0];
    (void)sink;
  }));

  const double stream_speedup = stream_scalar_ms / stream_best_ms;
  std::printf("\nsha256 stream speedup vs scalar : %5.2fx\n", stream_speedup);
  std::printf("merkle speedup vs scalar serial : %5.2fx %s\n", merkle_speedup,
              merkle_speedup >= 2.0 ? "(target >= 2x met)" : "(TARGET MISSED)");
  std::printf("sighash speedup vs naive        : %5.2fx %s\n", sighash_speedup,
              sighash_speedup >= 2.0 ? "(target >= 2x met)" : "(TARGET MISSED)");
  std::printf("txid memoization speedup        : %5.2fx\n",
              txid_cold_ms / txid_memo_ms);

  std::FILE* f = std::fopen("BENCH_hashing.json", "w");
  if (f != nullptr) {
    bench::JsonWriter w(f);
    w.begin_object();
    w.str("experiment", "HASH-TPUT");
    w.boolean("smoke", smoke);
    w.str("detected_backend", detected);
    w.begin_array("available_backends");
    for (const std::string& backend : backends) w.str(nullptr, backend);
    w.end_array();
    w.uint("hardware_threads", hw);
    w.boolean("equivalence_ok", true);
    w.uint("merkle_leaves", kMerkleLeaves);
    w.uint("sighash_inputs", kSighashInputs);
    w.uint("stream_bytes", kStreamBytes);
    w.begin_array("axes");
    for (const auto& r : results) {
      w.begin_object();
      w.str("name", r.name);
      w.num("ms_mean", r.ms_mean, "%.5f");
      w.end_object();
    }
    w.end_array();
    w.num("stream_speedup_vs_scalar", stream_speedup, "%.3f");
    w.num("merkle_speedup_vs_scalar", merkle_speedup, "%.3f");
    w.num("sighash_speedup_vs_naive", sighash_speedup, "%.3f");
    w.num("txid_memo_speedup", txid_cold_ms / txid_memo_ms, "%.3f");
    w.boolean("merkle_target_2x_met", merkle_speedup >= 2.0);
    w.boolean("sighash_target_2x_met", sighash_speedup >= 2.0);
    w.uint("peak_rss_bytes", bench::peak_rss_bytes());
    w.end_object();
    w.finish();
    std::fclose(f);
    std::printf("results written to BENCH_hashing.json\n");
  }
  return 0;
}
