#include "p2p/chain_node.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/metrics.hpp"

namespace bcwan::p2p {

using chain::Block;
using chain::Transaction;

ChainNode::ChainNode(Transport& net, HostId host,
                     const chain::ChainParams& params, ChainNodeConfig config,
                     std::uint64_t seed)
    : net_(net),
      host_(host),
      config_(std::move(config)),
      rng_(seed),
      chain_(params),
      mempool_(chain_.params()) {
  if (persistent()) {
    std::string error;
    if (!open_store_and_recover(&error)) {
      // Construction-time refusal means the operator pointed the daemon at
      // a store with mid-file corruption; nothing sane to fall back to.
      throw std::runtime_error("chain store: " + error);
    }
    resurrect_disconnected();
  }
  net_.set_handler(host_, [this](const Message& msg) { handle_message(msg); });
}

bool ChainNode::open_store_and_recover(std::string* error) {
  store::StoreOptions opts;
  opts.dir = config_.store_dir;
  opts.fsync_each_append = config_.store_fsync;
  opts.snapshot_interval = config_.snapshot_interval;
  auto opened = store::ChainStore::open(chain_.params(), std::move(opts), error);
  if (!opened) return false;
  store_ = std::move(opened);
  last_recovery_ = store_->recovery();
  chain_ = store_->take_chain();
  store_->attach(chain_);
  return true;
}

void ChainNode::crash() {
  crashed_ = true;
  // Process death: the sink's captured store pointer dies with us.
  chain_.set_block_sink(nullptr);
  store_.reset();
  mempool_.clear();
  orphan_txs_.clear();
  seen_blocks_.clear();
  if (telemetry::enabled()) {
    telemetry::registry()
        .counter("bcwan_node_crashes_total", "Chain daemon crash-stops")
        .add();
  }
}

bool ChainNode::restart() {
  if (!crashed_) return true;
  if (persistent()) {
    std::string error;
    if (!open_store_and_recover(&error)) return false;
  } else {
    // No disk: reboot at genesis and let gossip catch-up sync refill us.
    chain_ = chain::Blockchain(chain_.params());
  }
  crashed_ = false;
  // Replay can end in a reorg whose losing branch carried live exchanges;
  // resurrect them exactly like an online reorg would.
  resurrect_disconnected();
  for (const auto& watcher : restart_watchers_) watcher();
  if (telemetry::enabled()) {
    telemetry::registry()
        .counter("bcwan_node_restarts_total", "Chain daemon restarts")
        .add();
  }
  return true;
}

std::uint64_t ChainNode::tear_store_tail(std::uint64_t bytes) {
  if (!persistent()) return 0;
  return store::tear_log_tail(store::log_file_path(config_.store_dir), bytes);
}

chain::MempoolAcceptResult ChainNode::submit_tx(const Transaction& tx) {
  if (crashed_) {
    chain::MempoolAcceptResult dead;
    dead.error = chain::MempoolError::kInvalid;
    return dead;
  }
  const auto result = mempool_.accept(tx, chain_.utxo(), chain_.height() + 1);
  if (result.ok()) {
    ++txs_seen_;
    for (const auto& watcher : tx_watchers_) watcher(tx);
    relay_tx(tx);
    drain_orphan_txs();
  }
  return result;
}

chain::AcceptBlockResult ChainNode::submit_block(const Block& block) {
  if (crashed_) return chain::AcceptBlockResult::kInvalid;
  const int old_height = chain_.height();
  const auto result = chain_.accept_block(block);
  if (result == chain::AcceptBlockResult::kConnected ||
      result == chain::AcceptBlockResult::kReorganized) {
    seen_blocks_.insert(block.hash());
    ++blocks_seen_;
    on_chain_advanced(block, old_height, result);
    relay_block(block);
  }
  return result;
}

void ChainNode::handle_message(const Message& msg) {
  if (crashed_) return;  // a dead process receives nothing
  if (telemetry::enabled()) {
    telemetry::registry()
        .counter("bcwan_p2p_messages_in_total", "type", msg.type,
                 "Messages delivered to chain daemons by type")
        .add();
  }
  if (msg.type == "tx") {
    const auto tx = Transaction::deserialize(msg.payload);
    if (tx) {
      if (raw_tx_tap_) raw_tx_tap_(*tx);
      accept_gossip_tx(*tx);
    }
    return;
  }
  if (msg.type == "block") {
    const auto block = Block::deserialize(msg.payload);
    if (block) accept_gossip_block(*block, msg.from);
    return;
  }
  if (msg.type == "getblocks") {
    serve_sync(msg.from, msg.payload);
    return;
  }
  if (app_handler_) app_handler_(msg);
}

void ChainNode::on_chain_advanced(const Block& block, int old_height,
                                  chain::AcceptBlockResult result) {
  const bool reorganized = result == chain::AcceptBlockResult::kReorganized;
  const int fork = reorganized ? chain_.last_fork_height() : old_height;
  // Orphan descendants may have joined behind `block`, and a reorg's
  // winning branch has more blocks than its tip: read those from the chain.
  const chain::Hash256 hash = block.hash();
  std::vector<Block> read;
  std::vector<const Block*> joined;
  read.reserve(static_cast<std::size_t>(chain_.height() - fork));
  for (int h = fork + 1; h <= chain_.height(); ++h) {
    if (chain_.active_chain()[static_cast<std::size_t>(h)] == hash) {
      joined.push_back(&block);
    } else {
      read.push_back(*chain_.block_at(h));
      joined.push_back(&read.back());
    }
  }
  for (const Block* b : joined) mempool_.remove_confirmed(*b);
  if (reorganized) {
    resurrect_disconnected();
    for (const auto& watcher : reorg_watchers_) watcher(fork);
  }
  for (const Block* b : joined) {
    for (const auto& watcher : block_watchers_) watcher(*b);
  }
  if (store_) store_->maybe_snapshot(chain_);
}

bool ChainNode::known_tx(const Transaction& tx) const {
  // No per-transaction index or seen-set: either would grow by a node per
  // transaction forever. A confirmed tx whose outputs are all spent is
  // validated again, fails on its spent inputs and is parked until the
  // orphan cap evicts it. Txids are unique (BIP34), so a live output names
  // its tx.
  const chain::Hash256 txid = tx.txid();
  if (mempool_.contains(txid)) return true;
  for (std::uint32_t v = 0; v < tx.vout.size(); ++v) {
    if (chain_.utxo().contains(chain::OutPoint{txid, v})) return true;
  }
  return false;
}

void ChainNode::park_orphan_tx(const Transaction& tx) {
  const chain::Hash256 txid = tx.txid();
  for (const Transaction& orphan : orphan_txs_) {
    if (orphan.txid() == txid) return;
  }
  if (orphan_txs_.size() == kMaxOrphanTxs)
    orphan_txs_.erase(orphan_txs_.begin());
  orphan_txs_.push_back(tx);
}

void ChainNode::accept_gossip_tx(const Transaction& tx) {
  if (known_tx(tx)) return;
  // Charge validation CPU: everything behind this message waits.
  net_.stall(host_, config_.tx_processing);
  const auto result = mempool_.accept(tx, chain_.utxo(), chain_.height() + 1);
  if (!result.ok()) {
    // Gossip can reorder a chain of unconfirmed spends; park the child
    // until its parent shows up.
    if (result.error == chain::MempoolError::kInvalid &&
        result.validation.error == chain::TxError::kMissingInput) {
      park_orphan_tx(tx);
    }
    return;
  }
  ++txs_seen_;
  for (const auto& watcher : tx_watchers_) watcher(tx);
  relay_tx(tx);
  drain_orphan_txs();
}

void ChainNode::drain_orphan_txs() {
  if (draining_orphans_ || orphan_txs_.empty()) return;
  draining_orphans_ = true;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    std::vector<Transaction> still_orphans;
    for (const Transaction& orphan : orphan_txs_) {
      const auto result =
          mempool_.accept(orphan, chain_.utxo(), chain_.height() + 1);
      if (result.ok()) {
        ++txs_seen_;
        for (const auto& watcher : tx_watchers_) watcher(orphan);
        relay_tx(orphan);
        progressed = true;
      } else if (result.error == chain::MempoolError::kInvalid &&
                 result.validation.error == chain::TxError::kMissingInput) {
        still_orphans.push_back(orphan);
      }
      // Other failures (conflict, already known) drop the orphan for good.
    }
    orphan_txs_ = std::move(still_orphans);
  }
  draining_orphans_ = false;
}

void ChainNode::accept_gossip_block(const Block& block, HostId from) {
  const chain::Hash256 hash = block.hash();
  // A seen block that is neither stored nor parked was an orphan the cap
  // evicted: catch-up sync must be able to deliver it again. It was relayed
  // when first seen and is not relayed again, or two nodes missing the same
  // parent would trade evicted orphans for ever.
  const bool first_seen = seen_blocks_.count(hash) == 0;
  if (!first_seen && (chain_.have_block(hash) || chain_.has_orphan(hash))) {
    return;
  }

  // Block verification cost. In Fig. 6 mode the daemon freezes for a long
  // sampled verification period on *every* block arrival.
  net_.stall(host_, config_.block_processing);
  if (config_.block_verification_stall) {
    const double stall_s =
        rng_.lognormal(std::log(config_.stall_median_s), config_.stall_sigma);
    net_.stall(host_, util::from_seconds(stall_s));
  }

  const int old_height = chain_.height();
  const auto result = chain_.accept_block(block);
  if (result == chain::AcceptBlockResult::kInvalid ||
      result == chain::AcceptBlockResult::kDuplicate) {
    return;
  }
  if (first_seen) {
    seen_blocks_.insert(hash);
    ++blocks_seen_;
  }
  if (result == chain::AcceptBlockResult::kConnected ||
      result == chain::AcceptBlockResult::kReorganized) {
    on_chain_advanced(block, old_height, result);
    drain_orphan_txs();
  }
  if (result == chain::AcceptBlockResult::kOrphan) {
    // We're missing ancestors: a partition/crash made us skip history, or
    // the sender reorganised onto a branch whose early blocks were never
    // relayed (side-branch blocks aren't gossiped). Ask the sender to
    // stream the gap; without this the node parks orphans forever.
    request_sync(from);
  }
  if (first_seen) relay_block(block);
}

void ChainNode::resurrect_disconnected() {
  // A reorg just orphaned part of the old chain. Its transactions are in
  // dependency order; re-accept what is still valid against the new chain
  // (anything re-mined on the winning branch fails harmlessly) and relay,
  // so in-flight exchanges survive the reorg instead of timing out.
  for (const Transaction& tx : chain_.take_disconnected_txs()) {
    const auto result =
        mempool_.accept(tx, chain_.utxo(), chain_.height() + 1);
    if (!result.ok()) continue;
    for (const auto& watcher : tx_watchers_) watcher(tx);
    relay_tx(tx);
  }
}

void ChainNode::request_sync(HostId peer) {
  if (peer < 0 || peer == host_) return;
  // One catch-up request per window: each gossiped descendant of a missing
  // block would otherwise trigger its own full resync.
  if (net_.now() - last_sync_request_ < 2 * util::kSecond) return;
  last_sync_request_ = net_.now();
  ++sync_requests_;
  if (telemetry::enabled()) {
    telemetry::registry()
        .counter("bcwan_p2p_sync_requests_total",
                 "Catch-up sync rounds requested from a peer")
        .add();
  }
  net_.send(host_, peer, Message{"getblocks", build_locator(), host_});
}

util::Bytes ChainNode::build_locator() const {
  // Bitcoin-style exponential locator over our active chain, newest first:
  // the serving peer finds the highest hash it shares and streams from
  // there, so deep divergences still converge in O(log n) locator entries.
  util::Bytes locator;
  const int tip = chain_.height();
  int step = 1;
  int count = 0;
  for (int h = tip; h > 0 && count < 31; h -= step, ++count) {
    const auto& hash = chain_.active_chain()[static_cast<std::size_t>(h)];
    locator.insert(locator.end(), hash.begin(), hash.end());
    if (count >= 8) step *= 2;
  }
  const auto& genesis = chain_.active_chain().front();
  locator.insert(locator.end(), genesis.begin(), genesis.end());
  return locator;
}

void ChainNode::serve_sync(HostId peer, const util::Bytes& locator) {
  if (peer < 0 || peer == host_) return;
  if (locator.empty() || locator.size() % 32 != 0) return;
  // Highest locator entry on our active chain = the fork point.
  int ancestor = 0;
  const auto& active = chain_.active_chain();
  bool found = false;
  for (std::size_t i = 0; i < locator.size() && !found; i += 32) {
    chain::Hash256 hash;
    std::copy(locator.begin() + static_cast<std::ptrdiff_t>(i),
              locator.begin() + static_cast<std::ptrdiff_t>(i) + 32,
              hash.begin());
    for (int h = chain_.height(); h >= 0; --h) {
      if (active[static_cast<std::size_t>(h)] == hash) {
        ancestor = h;
        found = true;
        break;
      }
    }
  }
  if (!found) return;  // disjoint chains (different genesis) — nothing to do
  constexpr int kMaxBlocksPerResponse = 256;
  const int last =
      std::min(chain_.height(), ancestor + kMaxBlocksPerResponse);
  for (int h = ancestor + 1; h <= last; ++h) {
    std::optional<util::Bytes> body = chain_.block_bytes_at(h);
    if (!body) break;
    net_.send(host_, peer, Message{"block", *std::move(body), host_});
    ++sync_served_;
    if (telemetry::enabled()) {
      telemetry::registry()
          .counter("bcwan_p2p_sync_blocks_served_total",
                   "Blocks streamed to peers during catch-up sync")
          .add();
    }
  }
}

void ChainNode::relay_tx(const Transaction& tx) {
  net_.broadcast(host_, Message{"tx", tx.serialize(), host_});
}

void ChainNode::relay_block(const Block& block) {
  net_.broadcast(host_, Message{"block", block.serialize(), host_});
}

}  // namespace bcwan::p2p
