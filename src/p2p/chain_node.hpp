// A federation host's blockchain daemon: chainstate + mempool + gossip.
//
// This is the paper's per-gateway "Blockchain module" (the Multichain
// daemon wrapped by the Golang BcWAN daemon, §5.1). Transactions and blocks
// flood over the SimNet; watcher hooks let the BcWAN agents react to
// mempool arrivals (the fast path of the fair exchange) and to block
// connections. The Fig. 6 effect is reproduced by `block_verification_stall`:
// each block arrival freezes the whole daemon for a sampled verification
// time, so every queued message — including DELIVER requests and gossip —
// waits behind it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>

#include "chain/blockchain.hpp"
#include "chain/mempool.hpp"
#include "p2p/transport.hpp"
#include "store/store.hpp"
#include "util/rng.hpp"

namespace bcwan::p2p {

struct ChainNodeConfig {
  /// Fig. 6 mode: stall the daemon on every block arrival.
  bool block_verification_stall = false;
  /// Lognormal stall duration (seconds); calibrated so the with-verification
  /// exchange latency lands in the paper's ~30 s regime.
  double stall_median_s = 9.0;
  double stall_sigma = 0.5;
  /// CPU charged per transaction validated into the mempool.
  util::SimTime tx_processing = 4 * util::kMillisecond;
  /// CPU charged per block connected (besides any stall).
  util::SimTime block_processing = 20 * util::kMillisecond;
  /// Durable chainstate directory. Empty (the default) keeps the daemon
  /// fully in-memory; non-empty opens-or-recovers a ChainStore there and
  /// every accepted block is logged before it is relayed.
  std::string store_dir;
  /// fsync the block log on every append (see StoreOptions).
  bool store_fsync = true;
  /// Blocks between automatic chainstate snapshots.
  std::uint64_t snapshot_interval = 16;
};

/// Gossiped transactions whose inputs are not yet known are parked, as
/// Bitcoin Core's orphanage does; the oldest is evicted beyond this. A
/// confirmed tx whose outputs are all spent looks the same (its inputs are
/// gone), so re-gossip of old history lands here too and must age out.
inline constexpr std::size_t kMaxOrphanTxs = 100;

class ChainNode {
 public:
  /// Transport-agnostic form: `net` is either the SimNet backend or a real
  /// TcpTransport; the node's timers (sync back-off) read `net.now()`.
  ChainNode(Transport& net, HostId host, const chain::ChainParams& params,
            ChainNodeConfig config, std::uint64_t seed);

  HostId host() const noexcept { return host_; }
  chain::Blockchain& chain() noexcept { return chain_; }
  const chain::Blockchain& chain() const noexcept { return chain_; }
  chain::Mempool& mempool() noexcept { return mempool_; }
  const chain::Mempool& mempool() const noexcept { return mempool_; }

  /// Local submission by a co-located agent: validate into the mempool and
  /// gossip on success.
  chain::MempoolAcceptResult submit_tx(const chain::Transaction& tx);

  /// Local block submission (the master node's miner).
  chain::AcceptBlockResult submit_block(const chain::Block& block);

  /// Entry point for all SimNet traffic to this host. "tx"/"block" messages
  /// are consumed; anything else goes to the app handler (BcWAN daemon
  /// protocol).
  void handle_message(const Message& msg);

  void set_app_handler(std::function<void(const Message&)> handler) {
    app_handler_ = std::move(handler);
  }

  /// Fires whenever a transaction enters this node's mempool (local or
  /// gossiped) — the fair-exchange watchers hang off this. Watchers cannot
  /// be removed: whatever they capture must outlive the node's event
  /// processing.
  void add_tx_watcher(std::function<void(const chain::Transaction&)> watcher) {
    tx_watchers_.push_back(std::move(watcher));
  }

  /// Fires for every block that joins the active chain here, in height
  /// order, once the accept that connected it (with any orphan descendants
  /// it released) has finished: the chain may already be taller.
  void add_block_watcher(std::function<void(const chain::Block&)> watcher) {
    block_watchers_.push_back(std::move(watcher));
  }

  /// Fires after a reorganization completed on this node, including one
  /// completed by orphan descendants of a side-chain block: the losing
  /// branch is disconnected and its transactions resurrected before the
  /// call.
  /// Chain-derived caches (the gateway directory) must resync here —
  /// anything ingested from a disconnected block would otherwise survive
  /// with a dead height. Runs before the block watchers for the winning
  /// branch.
  void add_reorg_watcher(std::function<void()> watcher) {
    reorg_watchers_.push_back(
        [w = std::move(watcher)](int /*fork_height*/) { w(); });
  }

  /// Reorg watcher that also learns the fork height — the height of the
  /// last block common to the chains before and after the accept
  /// (chain().last_fork_height()).
  /// Indexed caches unwind to this height instead of rescanning.
  void add_reorg_watcher(std::function<void(int)> watcher) {
    reorg_watchers_.push_back(std::move(watcher));
  }

  /// Fires at the end of every successful restart(), after recovery and
  /// resurrection. Chain-derived caches rebuild-or-reload here: the reorg
  /// watchers alone cannot cover a restart, because replay may land on a
  /// different branch without ever reporting a reorg.
  void add_restart_watcher(std::function<void()> watcher) {
    restart_watchers_.push_back(std::move(watcher));
  }

  /// Fires for every transaction *message* this host receives, before and
  /// regardless of mempool acceptance — an on-the-wire tap. The §6 attacker
  /// uses this to pull eSk out of a redeem transaction its own mempool
  /// would reject.
  void set_raw_tx_tap(std::function<void(const chain::Transaction&)> tap) {
    raw_tx_tap_ = std::move(tap);
  }

  std::uint64_t txs_seen() const noexcept { return txs_seen_; }
  /// Gossiped transactions parked for a missing input (at most
  /// kMaxOrphanTxs).
  std::size_t orphan_tx_count() const noexcept { return orphan_txs_.size(); }
  std::uint64_t blocks_seen() const noexcept { return blocks_seen_; }
  /// Headers-first-style catch-up requests issued / blocks served to peers.
  std::uint64_t sync_requests() const noexcept { return sync_requests_; }
  std::uint64_t sync_blocks_served() const noexcept { return sync_served_; }

  // -- Durability & crash-stop (chaos layer / daemon lifecycle). --

  /// True when this daemon journals to disk.
  bool persistent() const noexcept { return !config_.store_dir.empty(); }
  /// The open store; nullptr for in-memory nodes and while crashed.
  store::ChainStore* store() noexcept { return store_.get(); }

  /// Crash-stop: the process dies mid-whatever. All volatile state
  /// (mempool, orphan pools, gossip dedupe) is lost and the store file
  /// handle closes without any final snapshot — exactly what SIGKILL
  /// leaves behind. The node ignores all traffic until restart().
  void crash();
  /// Come back up. A persistent node re-opens its store and runs real disk
  /// recovery (snapshot + log replay + torn-tail truncation); an in-memory
  /// node resets to genesis. Both rely on gossip catch-up sync for
  /// whatever the disk doesn't cover. Returns false — node stays down —
  /// only if a persistent store refuses to open (mid-file corruption).
  bool restart();
  bool crashed() const noexcept { return crashed_; }
  /// Stats from the most recent open-or-recover (construction or restart).
  const store::RecoveryStats& last_recovery() const noexcept {
    return last_recovery_;
  }

  /// Chaos hook: shear `bytes` off the store's block log tail, emulating a
  /// torn write. Only meaningful while crashed. Returns bytes removed.
  std::uint64_t tear_store_tail(std::uint64_t bytes);

 private:
  bool open_store_and_recover(std::string* error);
  void relay_tx(const chain::Transaction& tx);
  void relay_block(const chain::Block& block);
  void accept_gossip_tx(const chain::Transaction& tx);
  /// In the pool or with an output still unspent.
  bool known_tx(const chain::Transaction& tx) const;
  /// Bookkeeping after accepting `block` moved the active chain (`result`
  /// kConnected or kReorganized; the tip was at `old_height`): every block
  /// that joined it leaves the pool, then the watchers run.
  void on_chain_advanced(const chain::Block& block, int old_height,
                         chain::AcceptBlockResult result);
  /// Park a tx whose inputs are unknown, once, evicting the oldest.
  void park_orphan_tx(const chain::Transaction& tx);
  void accept_gossip_block(const chain::Block& block, HostId from);
  void drain_orphan_txs();
  /// Re-accept and relay the losing branch's transactions after a reorg.
  void resurrect_disconnected();
  /// Ask `peer` for the blocks between our chains (sent when a gossiped
  /// block's parent is unknown — we missed history during a partition,
  /// crash, or side-branch reorg that was never relayed).
  void request_sync(HostId peer);
  /// Answer a "getblocks" locator: stream our active chain from the highest
  /// locator hash we recognise up to our tip.
  void serve_sync(HostId peer, const util::Bytes& locator);
  util::Bytes build_locator() const;

  Transport& net_;
  HostId host_;
  ChainNodeConfig config_;
  util::Rng rng_;
  std::unique_ptr<store::ChainStore> store_;
  chain::Blockchain chain_;
  chain::Mempool mempool_;
  bool crashed_ = false;
  store::RecoveryStats last_recovery_;
  std::function<void(const Message&)> app_handler_;
  std::function<void(const chain::Transaction&)> raw_tx_tap_;
  std::vector<std::function<void(const chain::Transaction&)>> tx_watchers_;
  std::vector<std::function<void(const chain::Block&)>> block_watchers_;
  std::vector<std::function<void(int)>> reorg_watchers_;
  std::vector<std::function<void()>> restart_watchers_;
  std::unordered_set<chain::Hash256, chain::Hash256Hasher> seen_blocks_;
  // Transactions whose inputs are not yet known (gossip reordered a chain
  // of unconfirmed spends), oldest first; retried after every tx/block
  // acceptance, as Bitcoin's mapOrphanTransactions does.
  std::vector<chain::Transaction> orphan_txs_;
  bool draining_orphans_ = false;
  util::SimTime last_sync_request_ = -(1 << 30);
  std::uint64_t txs_seen_ = 0;
  std::uint64_t blocks_seen_ = 0;
  std::uint64_t sync_requests_ = 0;
  std::uint64_t sync_served_ = 0;
};

}  // namespace bcwan::p2p
