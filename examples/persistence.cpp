// Persistent chain daemon, built for the CI kill-9 crash-recovery job.
//
// The workload is fully deterministic (fixed wallet seeds, block time ==
// block height, payment schedule derived from the height), so a run that is
// SIGKILLed anywhere — including mid-append, leaving a torn tail — and then
// restarted must converge on the exact same tip hash and UTXO state hash as
// one uninterrupted run. CI asserts exactly that:
//
//   ./persistence expected 120            # uninterrupted, in-memory
//   ./persistence run <dir> 120 &         # durable run; kill -9 mid-way
//   ./persistence run <dir> 120           # recover from disk, finish
//   ./persistence status <dir>            # print recovered tip/state
//
// Subcommands:
//   run <dir> <height> [throttle_ms]
//                         open-or-recover <dir>, mine/replay to <height>,
//                         print "TIP <hex>" / "STATE <hex>" and exit 0.
//                         throttle_ms sleeps after every block so a CI kill
//                         lands mid-run instead of after completion
//   expected <height>     same workload against an in-memory chain
//   status <dir>          open-or-recover only; print recovery stats + tip
//   tear <dir> <bytes>    shear bytes off the block log tail (torn write)
//   matrix <dir> <height> <trials> <seed>
//                         deterministic crash sweep: per trial, fork a
//                         throttled run under a randomly varied store
//                         config (element cadence, undo pruning), SIGKILL
//                         it at a seeded random offset, occasionally tear
//                         the log tail, restart until a run exits clean,
//                         and require the recovered tip + state hash to
//                         equal the uninterrupted run's and at least one
//                         compaction on disk. After every recovery each
//                         active block's body and undo must read back from
//                         disk matching its hash / CRC. Any failure exits 1.
//
// Store knobs (read by run/status): BCWAN_PERSIST_UNDO_DEPTH=<n>,
// BCWAN_PERSIST_SNAPSHOT_INTERVAL=<n>.
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <ctime>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "chain/miner.hpp"
#include "chain/wallet.hpp"
#include "store/snapshot.hpp"
#include "store/store.hpp"
#include "util/rng.hpp"

using namespace bcwan;

namespace {

chain::ChainParams demo_params() {
  chain::ChainParams params;
  params.pow_zero_bits = 8;
  params.coinbase_maturity = 2;
  return params;
}

/// Mine deterministically until `target` height. Every 5th block carries a
/// payment whose amount is a function of the height, so the UTXO set keeps
/// churning and undo records stay non-trivial. `throttle_ms` slows the loop
/// down (wall-clock only — the chain itself stays deterministic).
void mine_to(chain::Blockchain& chain, store::ChainStore* store, int target,
             int throttle_ms = 0) {
  const chain::ChainParams& params = chain.params();
  chain::Mempool pool(params);
  const chain::Wallet miner_wallet = chain::Wallet::from_seed("miner");
  const chain::Wallet alice = chain::Wallet::from_seed("alice");
  const chain::Miner miner(params, miner_wallet.pkh());

  while (chain.height() < target) {
    const int next = chain.height() + 1;
    if (next % 5 == 0) {
      const chain::Amount amount =
          (static_cast<chain::Amount>(next % 7) + 1) * chain::kCoin / 10;
      const auto tx =
          miner_wallet.create_payment(chain, &pool, alice.pkh(), amount, 1000);
      if (tx) pool.accept(*tx, chain.utxo(), next);
    }
    const chain::Block block =
        miner.mine(chain, pool, static_cast<std::uint64_t>(next));
    const auto result = chain.accept_block(block);
    if (result != chain::AcceptBlockResult::kConnected) {
      std::fprintf(stderr, "block at height %d rejected: %s\n", next,
                   chain::accept_block_result_name(result).c_str());
      std::exit(1);
    }
    pool.remove_confirmed(block);
    if (store != nullptr) store->maybe_snapshot(chain);
    if (throttle_ms > 0) {
      const timespec delay{throttle_ms / 1000,
                           (throttle_ms % 1000) * 1'000'000L};
      nanosleep(&delay, nullptr);
    }
    if (next % 20 == 0) {
      std::printf("height %d tip %s\n", chain.height(),
                  util::to_hex(chain.tip_hash()).c_str());
      std::fflush(stdout);
    }
  }
}

/// Every active block's body and undo read back from the store's files:
/// the chain checks each body against its hash and each undo against its
/// CRC-32C, and throws on a mismatch.
bool records_read_back(const chain::Blockchain& chain) {
  try {
    for (int h = 0; h <= chain.height(); ++h) {
      const chain::Hash256& hash =
          chain.active_chain()[static_cast<std::size_t>(h)];
      if (!chain.block_bytes_at(h) || !chain.undo_for(hash)) {
        std::fprintf(stderr, "stored records of height %d missing\n", h);
        return false;
      }
    }
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stored records do not read back: %s\n", e.what());
    return false;
  }
}

void print_tip(const chain::Blockchain& chain) {
  std::printf("HEIGHT %d\n", chain.height());
  std::printf("TIP %s\n", util::to_hex(chain.tip_hash()).c_str());
  std::printf("STATE %s\n", util::to_hex(chain.state_hash()).c_str());
}

long env_long(const char* name, long fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atol(value) : fallback;
}

store::StoreOptions options_from_env(const std::string& dir) {
  store::StoreOptions options;
  options.dir = dir;
  options.fsync_each_append = true;
  options.snapshot_interval = static_cast<std::uint64_t>(
      env_long("BCWAN_PERSIST_SNAPSHOT_INTERVAL", 32));
  options.undo_prune_depth =
      static_cast<int>(env_long("BCWAN_PERSIST_UNDO_DEPTH", -1));
  return options;
}

std::unique_ptr<store::ChainStore> open_or_die(
    const store::StoreOptions& options) {
  std::string error;
  auto store = store::ChainStore::open(demo_params(), options, &error);
  if (!store) {
    std::fprintf(stderr, "store refused to open: %s\n", error.c_str());
    std::exit(2);
  }
  const store::RecoveryStats& stats = store->recovery();
  std::printf(
      "recovered: snapshot=%s replayed=%zu truncated=%lluB tip_height=%d\n",
      stats.snapshot_loaded ? "yes" : "no", stats.replayed_blocks,
      static_cast<unsigned long long>(stats.truncated_bytes),
      stats.tip_height);
  return store;
}

int usage() {
  std::fprintf(stderr,
               "usage: persistence run <dir> <height> [throttle_ms]\n"
               "       persistence expected <height>\n"
               "       persistence status <dir>\n"
               "       persistence tear <dir> <bytes>\n"
               "       persistence matrix <dir> <height> <trials> <seed>\n");
  return 64;
}

/// One matrix attempt in a forked child: open-or-recover, mine to target,
/// exit 0. The child is what gets SIGKILLed, so the parent's state (expected
/// hashes, RNG stream) never dies with it.
[[noreturn]] void matrix_child(const store::StoreOptions& options,
                               int target) {
  // The per-height progress lines are noise times fifty attempts; keep the
  // child quiet and let stderr through for real failures.
  if (std::freopen("/dev/null", "w", stdout) == nullptr) _exit(3);
  std::string error;
  auto store = store::ChainStore::open(demo_params(), options, &error);
  if (!store) {
    std::fprintf(stderr, "matrix child: store refused to open: %s\n",
                 error.c_str());
    _exit(2);
  }
  chain::Blockchain chain = store->take_chain();
  if (!records_read_back(chain)) _exit(4);
  store->attach(chain);
  mine_to(chain, store.get(), target, /*throttle_ms=*/1);
  _exit(0);
}

int run_matrix(const std::string& dir, int height, int trials,
               std::uint64_t seed) {
  // The ground truth every trial must converge to, whatever got killed.
  chain::Blockchain expected(demo_params());
  mine_to(expected, nullptr, height);
  const std::string expected_tip = util::to_hex(expected.tip_hash());
  const std::string expected_state = util::to_hex(expected.state_hash());
  std::printf("matrix: expected tip %s\n", expected_tip.c_str());
  // Forked children inherit the stdio buffer; flush so their freopen does
  // not replay this line once per attempt.
  std::fflush(stdout);

  util::Rng rng(seed);
  int total_kills = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string trial_dir = dir + "/trial-" + std::to_string(trial);
    store::StoreOptions options;
    options.dir = trial_dir;
    options.fsync_each_append = true;
    // Vary the persistence shape: element cadence and pruning take kills
    // at random offsets. An interval of at most 6 writes 20+ elements over
    // a 120-block run, so every trial crosses a compaction (one base plus
    // kCompactEvery deltas) even when kills restart the cadence count.
    options.snapshot_interval = rng.range(2, 6);
    options.undo_prune_depth = rng.chance(0.5) ? -1 : static_cast<int>(
                                   rng.range(8, 24));
    // Mining runs ~1 ms/block throttled; a kill offset across ~1.3x the
    // clean runtime also exercises "killed after finishing".
    const std::uint64_t window_us = static_cast<std::uint64_t>(height) * 1300;

    int attempts = 0;
    bool clean = false;
    while (!clean) {
      if (++attempts > 200) {
        std::fprintf(stderr, "matrix trial %d: no clean run in %d attempts\n",
                     trial, attempts);
        return 1;
      }
      const std::uint64_t kill_after_us = rng.below(window_us);
      const bool tear_after = rng.chance(0.2);
      const std::uint64_t tear_bytes = rng.range(1, 40);

      const pid_t pid = fork();
      if (pid < 0) {
        std::perror("fork");
        return 1;
      }
      if (pid == 0) matrix_child(options, height);

      const timespec delay{
          static_cast<time_t>(kill_after_us / 1'000'000),
          static_cast<long>(kill_after_us % 1'000'000) * 1000};
      nanosleep(&delay, nullptr);
      kill(pid, SIGKILL);
      int status = 0;
      if (waitpid(pid, &status, 0) != pid) {
        std::perror("waitpid");
        return 1;
      }
      if (WIFEXITED(status)) {
        if (WEXITSTATUS(status) != 0) {
          // Recovery refused the store or the workload broke: the sweep
          // found a real bug, not a crash to retry.
          std::fprintf(stderr, "matrix trial %d: child exited %d\n", trial,
                       WEXITSTATUS(status));
          return 1;
        }
        clean = true;
      } else {
        ++total_kills;
        if (tear_after) {
          store::tear_log_tail(store::log_file_path(trial_dir), tear_bytes);
        }
      }
    }

    // The survivor must match the uninterrupted run exactly.
    std::string error;
    auto store = store::ChainStore::open(demo_params(), options, &error);
    if (!store) {
      std::fprintf(stderr, "matrix trial %d: final open refused: %s\n", trial,
                   error.c_str());
      return 1;
    }
    const chain::Blockchain recovered = store->take_chain();
    if (!records_read_back(recovered)) {
      std::fprintf(stderr, "matrix trial %d: records do not read back\n",
                   trial);
      return 1;
    }
    const std::string tip = util::to_hex(recovered.tip_hash());
    const std::string state = util::to_hex(recovered.state_hash());
    if (recovered.height() != height || tip != expected_tip ||
        state != expected_state) {
      std::fprintf(stderr,
                   "matrix trial %d DIVERGED: height %d tip %s state %s\n",
                   trial, recovered.height(), tip.c_str(), state.c_str());
      return 1;
    }
    // Only the first base is written without a predecessor; a second one
    // on disk is a compaction that folded the delta chain.
    const std::size_t bases = store::list_snapshots(trial_dir).size();
    if (bases < 2) {
      std::fprintf(stderr, "matrix trial %d never compacted (%zu base)\n",
                   trial, bases);
      return 1;
    }
    std::printf(
        "matrix trial %d ok: %d attempts (interval=%llu undo_depth=%d)\n",
        trial, attempts,
        static_cast<unsigned long long>(options.snapshot_interval),
        options.undo_prune_depth);
    std::fflush(stdout);
  }
  std::printf("matrix: %d trials converged (%d kills absorbed)\n", trials,
              total_kills);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "expected" && argc == 3) {
    chain::Blockchain chain(demo_params());
    mine_to(chain, nullptr, std::atoi(argv[2]));
    print_tip(chain);
    return 0;
  }

  if (cmd == "run" && (argc == 4 || argc == 5)) {
    auto store = open_or_die(options_from_env(argv[2]));
    chain::Blockchain chain = store->take_chain();
    if (!records_read_back(chain)) return 2;
    store->attach(chain);
    mine_to(chain, store.get(), std::atoi(argv[3]),
            argc == 5 ? std::atoi(argv[4]) : 0);
    print_tip(chain);
    return 0;
  }

  if (cmd == "status" && argc == 3) {
    auto store = open_or_die(options_from_env(argv[2]));
    const chain::Blockchain chain = store->take_chain();
    print_tip(chain);
    return records_read_back(chain) ? 0 : 2;
  }

  if (cmd == "matrix" && argc == 6) {
    return run_matrix(argv[2], std::atoi(argv[3]), std::atoi(argv[4]),
                      static_cast<std::uint64_t>(std::atoll(argv[5])));
  }

  if (cmd == "tear" && argc == 4) {
    const std::uint64_t torn = store::tear_log_tail(
        store::log_file_path(argv[2]),
        static_cast<std::uint64_t>(std::atoll(argv[3])));
    std::printf("sheared %llu bytes\n", static_cast<unsigned long long>(torn));
    return torn > 0 ? 0 : 1;
  }

  return usage();
}
