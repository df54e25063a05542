// STORE-REPLAY: durable chainstate persistence cost and recovery speed.
//
// Measures the three prices a store-backed daemon pays:
//   1. append overhead — blocks/s into the CRC'd block log, with and
//      without per-append fsync (daemon vs bulk-sim configuration);
//   2. snapshot cost — serialize + atomic tmp/fsync/rename publish;
//   3. recovery — cold ChainStore::open() replaying the full log vs
//      resuming from the newest snapshot, as replay blocks/s and MB/s.
//
// Results are printed and written to BENCH_store.json (schema checked by
// bench/check_bench_json.py in CI; the smoke run gates regressions on
// replay_blocks_per_s).
//
// BCWAN_SMOKE=1 shrinks the chain for CI sanity runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chain/miner.hpp"
#include "chain/wallet.hpp"
#include "store/snapshot.hpp"
#include "store/store.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

using namespace bcwan;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace { double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
} }  // namespace

namespace {

chain::ChainParams bench_params() {
  chain::ChainParams params;
  params.pow_zero_bits = 4;  // grinding is not what this bench measures
  params.coinbase_maturity = 2;
  return params;
}

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "bcwan-bench-store-XXXXXX").string();
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// Deterministic block source: every other block spends, so records carry
/// real undo data.
struct BlockFactory {
  chain::ChainParams params = bench_params();
  chain::Blockchain chain{params};
  chain::Mempool pool{params};
  chain::Wallet miner_wallet = chain::Wallet::from_seed("bench-miner");
  chain::Wallet alice = chain::Wallet::from_seed("bench-alice");
  chain::Miner miner{params, miner_wallet.pkh()};
  std::uint64_t now = 0;

  chain::Block next() {
    const int height = chain.height() + 1;
    if (height % 2 == 0 && height > params.coinbase_maturity + 1) {
      const auto tx = miner_wallet.create_payment(
          chain, &pool, alice.pkh(), chain::kCoin / 4, 1000);
      if (tx) pool.accept(*tx, chain.utxo(), height);
    }
    const chain::Block block = miner.mine(chain, pool, ++now);
    chain.accept_block(block);
    pool.remove_confirmed(block);
    return block;
  }
};

}  // namespace

int main() {
  bench::print_header("STORE-REPLAY", "durable chainstate: append, snapshot, "
                                      "crash recovery");

  const bool smoke = std::getenv("BCWAN_SMOKE") != nullptr;
  const int kBlocks = smoke ? 64 : 512;
  const int kReps = smoke ? 2 : 5;

  // Pre-mine the whole chain once; the store benches then re-drive the same
  // accepted blocks so PoW grinding never pollutes the timings.
  std::printf("pre-mining %d blocks...\n", kBlocks);
  BlockFactory factory;
  std::vector<chain::Block> blocks;
  std::vector<util::Bytes> bodies;  // serialized, as the chain stores them
  std::vector<util::Bytes> undos;   // write_undo encodings, likewise
  blocks.reserve(static_cast<std::size_t>(kBlocks));
  for (int i = 0; i < kBlocks; ++i) {
    blocks.push_back(factory.next());
    bodies.push_back(blocks.back().serialize());
    util::Writer undo_w;
    chain::write_undo(undo_w, *factory.chain.undo_for(blocks.back().hash()));
    undos.push_back(undo_w.take());
  }

  // --- 1. Append throughput, fsync on/off ---
  double append_fsync_ms = 0.0, append_nofsync_ms = 0.0;
  std::uint64_t log_bytes = 0;
  for (const bool fsync_each : {true, false}) {
    util::SampleStats per_rep;
    for (int rep = 0; rep < kReps; ++rep) {
      TempDir dir;
      store::StoreOptions options;
      options.dir = dir.str();
      options.snapshot_interval = 0;  // appends only
      options.fsync_each_append = fsync_each;
      auto st = store::ChainStore::open(factory.params, options);
      const auto t0 = Clock::now();
      for (int i = 0; i < kBlocks; ++i)
        st->append_block(blocks[static_cast<std::size_t>(i)],
                         bodies[static_cast<std::size_t>(i)],
                         &undos[static_cast<std::size_t>(i)]);
      per_rep.add(ms_since(t0));
      log_bytes = st->log_bytes();
    }
    (fsync_each ? append_fsync_ms : append_nofsync_ms) = per_rep.mean();
    std::printf("append %-9s : %8.2f ms for %d blocks (%.0f blocks/s)\n",
                fsync_each ? "(fsync)" : "(no-fsync)", per_rep.mean(), kBlocks,
                kBlocks / (per_rep.mean() / 1e3));
  }
  const double log_mib = static_cast<double>(log_bytes) / (1 << 20);

  // --- 2. Snapshot cost ---
  util::SampleStats snapshot_ms;
  std::uint64_t snapshot_bytes = 0;
  {
    TempDir dir;
    store::StoreOptions options;
    options.dir = dir.str();
    options.snapshot_interval = 0;
    options.fsync_each_append = false;
    auto st = store::ChainStore::open(factory.params, options);
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      st->write_snapshot(factory.chain);
      snapshot_ms.add(ms_since(t0));
    }
    for (const auto& info : store::list_snapshots(dir.str()))
      snapshot_bytes = std::max(snapshot_bytes, info.bytes);
    std::printf("snapshot         : %8.2f ms (%.2f MiB at height %d)\n",
                snapshot_ms.mean(),
                static_cast<double>(snapshot_bytes) / (1 << 20),
                factory.chain.height());
  }

  // --- 3. Recovery: full-log replay vs snapshot resume ---
  TempDir replay_dir;
  {
    store::StoreOptions options;
    options.dir = replay_dir.str();
    options.snapshot_interval = 0;
    options.fsync_each_append = false;
    auto st = store::ChainStore::open(factory.params, options);
    for (int i = 0; i < kBlocks; ++i)
      st->append_block(blocks[static_cast<std::size_t>(i)],
                       bodies[static_cast<std::size_t>(i)],
                       &undos[static_cast<std::size_t>(i)]);
    st->sync();
  }
  util::SampleStats replay_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    store::StoreOptions options;
    options.dir = replay_dir.str();
    const auto t0 = Clock::now();
    auto st = store::ChainStore::open(factory.params, options);
    replay_ms.add(ms_since(t0));
    if (st == nullptr || st->recovery().replayed_blocks !=
                             static_cast<std::size_t>(kBlocks)) {
      std::fprintf(stderr, "replay recovery failed\n");
      return 1;
    }
  }
  const double replay_blocks_per_s = kBlocks / (replay_ms.mean() / 1e3);
  const double replay_mib_per_s = log_mib / (replay_ms.mean() / 1e3);
  std::printf("cold replay      : %8.2f ms for %d blocks (%.0f blocks/s, "
              "%.1f MiB/s)\n",
              replay_ms.mean(), kBlocks, replay_blocks_per_s,
              replay_mib_per_s);

  // --- 4. Incremental elements: delta cost vs state size, compaction ---
  // Writes a base, appends a fixed window, writes a delta — once on a small
  // chain and once on a large one. A delta priced by *change* has the same
  // cost at both scales while the full base grows with the UTXO set.
  struct ElementProbe {
    std::uint64_t delta_bytes = 0;
    std::uint64_t base_bytes = 0;
    double compaction_ms = 0.0;
  };
  const int kWindow = smoke ? 8 : 16;
  const auto element_probe = [&](int premine) {
    ElementProbe p;
    TempDir dir;
    store::StoreOptions options;
    options.dir = dir.str();
    options.snapshot_interval = 0;  // elements written by hand below
    options.fsync_each_append = false;
    auto st = store::ChainStore::open(factory.params, options);
    chain::Blockchain chain = st->take_chain();
    st->attach(chain);
    for (int i = 0; i < premine; ++i)
      chain.accept_block(blocks[static_cast<std::size_t>(i)]);
    st->write_snapshot(chain);  // base element; arms the journal anchor
    for (const auto& info : store::list_snapshots(dir.str()))
      p.base_bytes = std::max(p.base_bytes, info.bytes);
    for (int i = premine; i < premine + kWindow; ++i)
      chain.accept_block(blocks[static_cast<std::size_t>(i)]);
    if (!st->write_delta(chain)) {
      std::fprintf(stderr, "delta element write failed\n");
      std::exit(1);
    }
    p.delta_bytes = st->last_delta_bytes();
    st->write_snapshot(chain);  // fold the chain: compaction cost
    p.compaction_ms = st->last_compaction_ms();
    return p;
  };
  const ElementProbe small_probe = element_probe(kBlocks / 8);
  ElementProbe large_probe = element_probe(kBlocks - kWindow);
  // A fold is one fsync'd file + directory publish, so a single sample is
  // at the mercy of the disk (0.8-31 ms for the same smoke fold across five
  // runs on one 4-core VM): report the median of five folds.
  util::SampleStats fold_ms;
  fold_ms.add(large_probe.compaction_ms);
  for (int i = 1; i < 5; ++i)
    fold_ms.add(element_probe(kBlocks - kWindow).compaction_ms);
  large_probe.compaction_ms = fold_ms.median();
  // Delta cost must track the window, not the state: flat across an ~8x
  // state-size jump while the full base at least doubles and dwarfs it.
  const bool snapshot_cost_independent =
      large_probe.delta_bytes < 2 * small_probe.delta_bytes &&
      2 * small_probe.base_bytes < large_probe.base_bytes &&
      4 * large_probe.delta_bytes < large_probe.base_bytes;
  std::printf("delta element    : %8.2f KiB small-state, %.2f KiB large-state "
              "(bases %.2f / %.2f KiB) -> cost independent: %s\n",
              static_cast<double>(small_probe.delta_bytes) / 1024.0,
              static_cast<double>(large_probe.delta_bytes) / 1024.0,
              static_cast<double>(small_probe.base_bytes) / 1024.0,
              static_cast<double>(large_probe.base_bytes) / 1024.0,
              snapshot_cost_independent ? "yes" : "NO");
  std::printf("compaction       : %8.2f ms folding the delta chain at height "
              "%d (median of 5)\n",
              large_probe.compaction_ms, kBlocks);

  // Snapshot the recovered state, then time recovery again: load + empty log.
  {
    store::StoreOptions options;
    options.dir = replay_dir.str();
    auto st = store::ChainStore::open(factory.params, options);
    chain::Blockchain recovered = st->take_chain();
    st->write_snapshot(recovered);
  }
  util::SampleStats resume_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    store::StoreOptions options;
    options.dir = replay_dir.str();
    const auto t0 = Clock::now();
    auto st = store::ChainStore::open(factory.params, options);
    resume_ms.add(ms_since(t0));
    if (st == nullptr || !st->recovery().snapshot_loaded) {
      std::fprintf(stderr, "snapshot recovery failed\n");
      return 1;
    }
  }
  std::printf("snapshot resume  : %8.2f ms (%.1fx faster than full replay)\n",
              resume_ms.mean(), replay_ms.mean() / resume_ms.mean());

  std::FILE* f = std::fopen("BENCH_store.json", "w");
  if (f != nullptr) {
    bench::JsonWriter w(f);
    w.begin_object();
    w.str("experiment", "STORE-REPLAY");
    w.boolean("smoke", smoke);
    w.integer("blocks", kBlocks);
    w.integer("repetitions", kReps);
    w.num("log_mib", log_mib, "%.3f");
    w.uint("snapshot_bytes", snapshot_bytes);
    w.num("append_fsync_ms", append_fsync_ms, "%.3f");
    w.num("append_nofsync_ms", append_nofsync_ms, "%.3f");
    w.num("snapshot_ms", snapshot_ms.mean(), "%.3f");
    w.num("replay_ms", replay_ms.mean(), "%.3f");
    w.num("replay_blocks_per_s", replay_blocks_per_s, "%.1f");
    w.num("replay_mib_per_s", replay_mib_per_s, "%.2f");
    w.uint("incremental_snapshot_bytes", large_probe.delta_bytes);
    w.uint("incremental_snapshot_bytes_small_state", small_probe.delta_bytes);
    w.uint("base_snapshot_bytes_small_state", small_probe.base_bytes);
    w.uint("base_snapshot_bytes_large_state", large_probe.base_bytes);
    w.num("compaction_ms", large_probe.compaction_ms, "%.3f");
    w.boolean("snapshot_cost_independent", snapshot_cost_independent);
    w.num("snapshot_resume_ms", resume_ms.mean(), "%.3f");
    w.num("resume_speedup_vs_replay", replay_ms.mean() / resume_ms.mean(),
          "%.2f");
    w.uint("peak_rss_bytes", bench::peak_rss_bytes());
    w.end_object();
    w.finish();
    std::fclose(f);
    std::printf("results written to BENCH_store.json\n");
  }
  return 0;
}
