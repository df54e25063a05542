#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <functional>

#include "chain/miner.hpp"
#include "chain/wallet.hpp"
#include "p2p/chain_node.hpp"
#include "p2p/confirmations.hpp"
#include "p2p/event_loop.hpp"
#include "p2p/framing.hpp"
#include "p2p/network.hpp"
#include "p2p/tcp_transport.hpp"
#include "util/rng.hpp"

namespace bcwan::p2p {
namespace {

using util::SimTime;
using util::kMillisecond;
using util::kSecond;

TEST(EventLoop, OrdersByTime) {
  EventLoop loop;
  std::vector<int> order;
  loop.at(30, [&] { order.push_back(3); });
  loop.at(10, [&] { order.push_back(1); });
  loop.at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, FifoAtEqualTimes) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) loop.at(42, [&order, i] { order.push_back(i); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, NestedScheduling) {
  EventLoop loop;
  std::vector<int> order;
  loop.at(10, [&] {
    order.push_back(1);
    loop.after(5, [&] { order.push_back(2); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), 15);
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop;
  SimTime seen = -1;
  loop.at(100, [&] {
    loop.at(50, [&] { seen = loop.now(); });  // in the past
  });
  loop.run();
  EXPECT_EQ(seen, 100);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.at(10, [&] { ++fired; });
  loop.at(20, [&] { ++fired; });
  loop.at(30, [&] { ++fired; });
  loop.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, StopHaltsRun) {
  EventLoop loop;
  int fired = 0;
  loop.at(1, [&] {
    ++fired;
    loop.stop();
  });
  loop.at(2, [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, RunResumesAfterStop) {
  EventLoop loop;
  std::vector<int> order;
  loop.at(1, [&] {
    order.push_back(1);
    loop.stop();
  });
  loop.at(2, [&] { order.push_back(2); });
  loop.at(3, [&] { order.push_back(3); });
  loop.run();
  ASSERT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(loop.pending(), 2u);
  // A fresh run() clears the stop flag and drains the remaining queue in
  // the original order.
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, RunUntilAdvancesClockToDeadline) {
  EventLoop loop;
  loop.at(10, [] {});
  // The clock lands on the deadline even though the last event was earlier
  // (and even when nothing at all is scheduled).
  loop.run_until(100);
  EXPECT_EQ(loop.now(), 100);
  loop.run_until(250);
  EXPECT_EQ(loop.now(), 250);
  // run() by contrast stops the clock on the last executed event.
  loop.at(300, [] {});
  loop.run();
  EXPECT_EQ(loop.now(), 300);
}

// stop() inside run_until() must not jump the clock past events that are
// still queued before the deadline: the next run executes them, and the
// clock would otherwise move backwards.
TEST(EventLoop, RunUntilAfterStopKeepsClockMonotone) {
  EventLoop loop;
  std::vector<SimTime> seen;
  loop.at(10, [&] {
    seen.push_back(loop.now());
    loop.stop();
  });
  loop.at(20, [&] { seen.push_back(loop.now()); });
  loop.run_until(100);
  EXPECT_EQ(loop.now(), 10);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_until(100);
  EXPECT_EQ(loop.now(), 100);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20}));
}

TEST(EventLoop, CodedEventsDispatchWithPayloadWords) {
  EventLoop loop;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
  const std::uint32_t code =
      loop.register_code([&](std::uint64_t a, std::uint64_t b) {
        seen.emplace_back(a, b);
      });
  loop.post(20, code, 7, 8);
  loop.post(10, code, 5, 6);
  loop.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_pair(std::uint64_t{5}, std::uint64_t{6}));
  EXPECT_EQ(seen[1], std::make_pair(std::uint64_t{7}, std::uint64_t{8}));
  EXPECT_EQ(loop.events_executed(), 2u);
}

TEST(EventLoop, CodedAndCallbackEventsInterleaveBySeq) {
  EventLoop loop;
  std::vector<int> order;
  const std::uint32_t code = loop.register_code(
      [&](std::uint64_t a, std::uint64_t) { order.push_back(static_cast<int>(a)); });
  // Same timestamp: insertion order must hold across both event flavors.
  loop.at(42, [&] { order.push_back(0); });
  loop.post(42, code, 1);
  loop.at(42, [&] { order.push_back(2); });
  loop.post(42, code, 3);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimNet, DeliversWithLatency) {
  EventLoop loop;
  SimNet net(loop, 1);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  net.set_processing_time(b, 0);

  SimTime arrival = -1;
  net.set_handler(b, [&](const Message& msg) {
    EXPECT_EQ(msg.type, "ping");
    EXPECT_EQ(msg.from, a);
    arrival = loop.now();
  });
  net.send(a, b, Message{"ping", {}, -1});
  loop.run();
  EXPECT_GT(arrival, 0);  // nonzero latency
  EXPECT_LT(arrival, kSecond);
}

TEST(SimNet, LatencyIsSampledPerMessage) {
  EventLoop loop;
  SimNet net(loop, 2);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  net.set_processing_time(b, 0);
  std::vector<SimTime> arrivals;
  net.set_handler(b, [&](const Message&) { arrivals.push_back(loop.now()); });
  for (int i = 0; i < 10; ++i) net.send(a, b, Message{"m", {}, -1});
  loop.run();
  ASSERT_EQ(arrivals.size(), 10u);
  // Not all equal (lognormal samples differ).
  EXPECT_NE(std::adjacent_find(arrivals.begin(), arrivals.end(),
                               std::not_equal_to<>()),
            arrivals.end());
}

TEST(SimNet, SerialProcessingQueues) {
  EventLoop loop;
  SimNet net(loop, 3);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  // Zero-latency link, heavy processing: arrivals serialize.
  net.set_latency(a, b, LatencyModel{0.001, 0.0, 0.001});
  net.set_processing_time(b, 100 * kMillisecond);
  std::vector<SimTime> handled;
  net.set_handler(b, [&](const Message&) { handled.push_back(loop.now()); });
  for (int i = 0; i < 3; ++i) net.send(a, b, Message{"m", {}, -1});
  loop.run();
  ASSERT_EQ(handled.size(), 3u);
  EXPECT_GE(handled[1] - handled[0], 100 * kMillisecond);
  EXPECT_GE(handled[2] - handled[1], 100 * kMillisecond);
}

TEST(SimNet, StallDelaysDelivery) {
  EventLoop loop;
  SimNet net(loop, 4);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  net.set_latency(a, b, LatencyModel{1.0, 0.0, 1.0});
  net.set_processing_time(b, 0);
  SimTime handled = -1;
  net.set_handler(b, [&](const Message&) { handled = loop.now(); });
  // Stall b for 10 virtual seconds, then send.
  net.stall(b, 10 * kSecond);
  net.send(a, b, Message{"m", {}, -1});
  loop.run();
  EXPECT_GE(handled, 10 * kSecond);
}

TEST(SimNet, PartitionDropsTraffic) {
  EventLoop loop;
  SimNet net(loop, 5);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  int received = 0;
  net.set_handler(b, [&](const Message&) { ++received; });
  net.set_partitioned(b, true);
  net.send(a, b, Message{"m", {}, -1});
  loop.run();
  EXPECT_EQ(received, 0);
  net.set_partitioned(b, false);
  net.send(a, b, Message{"m", {}, -1});
  loop.run();
  EXPECT_EQ(received, 1);
}

// broadcast() must share one payload buffer across all receivers instead of
// deep-copying the bytes per host (the old per-receiver copy was O(hosts *
// payload) allocations per gossip round).
TEST(SimNet, BroadcastSharesOnePayloadBuffer) {
  EventLoop loop;
  SimNet net(loop, 8);
  const HostId a = net.add_host("a");
  util::Bytes blob(512, 0xab);
  Message original{"blob", std::move(blob), -1};
  const std::uint8_t* shared_data = original.payload.data();

  std::vector<const std::uint8_t*> seen_data;
  std::vector<long> seen_use_counts;
  for (int i = 0; i < 4; ++i) {
    const HostId h = net.add_host("h" + std::to_string(i));
    net.set_handler(h, [&](const Message& msg) {
      seen_data.push_back(msg.payload.data());
      seen_use_counts.push_back(msg.payload.use_count());
      EXPECT_EQ(msg.payload.size(), 512u);
      EXPECT_EQ(msg.payload[0], 0xab);
    });
  }
  net.broadcast(a, original);
  loop.run();

  ASSERT_EQ(seen_data.size(), 4u);
  for (const std::uint8_t* data : seen_data) EXPECT_EQ(data, shared_data);
  // The first delivery happens while later deliveries are still in flight,
  // each holding a reference to the same buffer (plus the caller's copy).
  EXPECT_GT(seen_use_counts.front(), 1);
}

TEST(SimNet, BroadcastReachesAllOthers) {
  EventLoop loop;
  SimNet net(loop, 6);
  const HostId a = net.add_host("a");
  std::vector<HostId> others;
  int received = 0;
  for (int i = 0; i < 4; ++i) {
    const HostId h = net.add_host("h" + std::to_string(i));
    net.set_handler(h, [&](const Message&) { ++received; });
    others.push_back(h);
  }
  net.set_handler(a, [&](const Message&) { FAIL() << "self-delivery"; });
  net.broadcast(a, Message{"m", {}, -1});
  loop.run();
  EXPECT_EQ(received, 4);
}

// --- ChainNode gossip ---

struct GossipHarness {
  chain::ChainParams params = [] {
    chain::ChainParams p;
    p.pow_zero_bits = 4;
    p.coinbase_maturity = 1;
    return p;
  }();
  EventLoop loop;
  SimNet net{loop, 7};
  std::vector<std::unique_ptr<ChainNode>> nodes;
  chain::Wallet miner_wallet = chain::Wallet::from_seed("miner");
  chain::Miner miner{params, miner_wallet.pkh()};

  explicit GossipHarness(int n, ChainNodeConfig config = {}) {
    for (int i = 0; i < n; ++i) {
      const HostId h = net.add_host("node" + std::to_string(i));
      nodes.push_back(
          std::make_unique<ChainNode>(net, h, params, config, 100 + i));
    }
  }

  void mine_and_submit(int node_index) {
    auto& node = *nodes[node_index];
    const chain::Block block = miner.mine(
        node.chain(), node.mempool(),
        static_cast<std::uint64_t>(loop.now() / util::kSecond));
    node.submit_block(block);
  }
};

TEST(ChainNode, BlockGossipSyncsAllNodes) {
  GossipHarness h(4);
  h.mine_and_submit(0);
  h.loop.run();
  for (const auto& node : h.nodes) {
    EXPECT_EQ(node->chain().height(), 1);
    EXPECT_EQ(node->chain().tip_hash(), h.nodes[0]->chain().tip_hash());
  }
}

TEST(ChainNode, TxGossipReachesAllMempools) {
  GossipHarness h(4);
  // Fund the miner wallet on node 0 and let blocks propagate.
  h.mine_and_submit(0);
  h.loop.run();
  h.mine_and_submit(0);
  h.loop.run();

  const chain::Wallet alice = chain::Wallet::from_seed("alice");
  const auto tx = h.miner_wallet.create_payment(
      h.nodes[0]->chain(), &h.nodes[0]->mempool(), alice.pkh(),
      chain::kCoin, 1000);
  ASSERT_TRUE(tx.has_value());
  ASSERT_TRUE(h.nodes[0]->submit_tx(*tx).ok());
  h.loop.run();
  for (const auto& node : h.nodes) {
    EXPECT_TRUE(node->mempool().contains(tx->txid()));
  }
}

TEST(ChainNode, TxWatcherFires) {
  GossipHarness h(2);
  h.mine_and_submit(0);
  h.loop.run();
  h.mine_and_submit(0);
  h.loop.run();

  int fired = 0;
  h.nodes[1]->add_tx_watcher([&](const chain::Transaction&) { ++fired; });
  const chain::Wallet alice = chain::Wallet::from_seed("alice");
  const auto tx = h.miner_wallet.create_payment(
      h.nodes[0]->chain(), nullptr, alice.pkh(), chain::kCoin, 1000);
  ASSERT_TRUE(tx.has_value());
  ASSERT_TRUE(h.nodes[0]->submit_tx(*tx).ok());
  h.loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(ChainNode, VerificationStallFreezesDaemon) {
  ChainNodeConfig stall_config;
  stall_config.block_verification_stall = true;
  stall_config.stall_median_s = 5.0;
  stall_config.stall_sigma = 0.0;  // deterministic for the assertion
  GossipHarness h(2, stall_config);

  h.mine_and_submit(0);
  h.loop.run();
  // Node 1 received and verified the block: its daemon must have been busy
  // for ~5 virtual seconds.
  EXPECT_GE(h.net.busy_until(h.nodes[1]->host()), 5 * kSecond);
  EXPECT_EQ(h.nodes[1]->chain().height(), 1);
}

TEST(ChainNode, PartitionedNodeCatchesUpViaOrphans) {
  GossipHarness h(3);
  h.net.set_partitioned(h.nodes[2]->host(), true);
  h.mine_and_submit(0);
  h.loop.run();
  h.net.set_partitioned(h.nodes[2]->host(), false);
  h.mine_and_submit(0);
  h.loop.run();
  // Node 2 missed block 1 and receives block 2 as an orphan; parking it
  // triggers a "getblocks" catch-up request to the sender, which streams
  // the gap. The node ends fully synced, not stuck holding orphans.
  EXPECT_EQ(h.nodes[2]->chain().height(), 2);
  EXPECT_EQ(h.nodes[2]->chain().tip_hash(), h.nodes[0]->chain().tip_hash());
  EXPECT_GE(h.nodes[2]->sync_requests(), 1u);
  // Node 1 has both blocks.
  EXPECT_EQ(h.nodes[1]->chain().height(), 2);
}

TEST(ChainNode, OrphanFloodStaysCappedAndCatchUpConverges) {
  GossipHarness h(3);
  h.net.set_partitioned(h.nodes[2]->host(), true);
  const std::size_t n = chain::kMaxOrphanBlocks + 10;
  std::vector<chain::Block> blocks;
  for (std::size_t i = 0; i < n; ++i) {
    h.mine_and_submit(0);
    h.loop.run();
    blocks.push_back(
        *h.nodes[0]->chain().block_at(h.nodes[0]->chain().height()));
  }
  h.net.set_partitioned(h.nodes[2]->host(), false);
  // Node 2 missed all of it and gets everything but the first block as
  // gossip: orphans beyond the cap evict the oldest.
  for (std::size_t i = 1; i < n; ++i) {
    h.nodes[2]->handle_message(
        Message{"block", blocks[i].serialize(), h.nodes[1]->host()});
  }
  EXPECT_EQ(h.nodes[2]->chain().orphan_count(), chain::kMaxOrphanBlocks);
  EXPECT_EQ(h.nodes[2]->chain().orphans_evicted(),
            n - 1 - chain::kMaxOrphanBlocks);
  // The getblocks catch-up re-delivers the evicted blocks, which the node
  // had seen. SimNet samples every message's latency, so a catch-up burst
  // arrives reordered and parks (and evicts) blocks again; the next gossiped
  // block asks for the rest from the new tip, and the node converges.
  h.loop.run();
  EXPECT_GT(h.nodes[2]->chain().height(), 0);
  EXPECT_LE(h.nodes[2]->chain().orphan_count(), chain::kMaxOrphanBlocks);
  h.loop.run_until(h.loop.now() + 3 * kSecond);  // past the sync back-off
  h.mine_and_submit(0);
  h.loop.run();
  EXPECT_EQ(h.nodes[2]->chain().tip_hash(), h.nodes[0]->chain().tip_hash());
  EXPECT_EQ(h.nodes[2]->chain().orphan_count(), 0u);
  EXPECT_GE(h.nodes[2]->sync_requests(), 1u);
}

TEST(ChainNode, EvictedOrphansAreNotRelayedAgain) {
  // Neither node has the parent of a chain of more orphans than the pool
  // holds. Each relays every block once; one evicted and handed back by the
  // peer is parked again but not relayed again, so the gossip dies out.
  // A fixed latency keeps the blocks in order, the case where relaying a
  // re-parked block would evict exactly the one the peer sends next.
  GossipHarness h(2);
  h.net.set_default_latency(LatencyModel{45.0, 0.0, 2.0});
  chain::Blockchain source(h.params);
  chain::Mempool source_pool(h.params);
  const std::size_t n = chain::kMaxOrphanBlocks + 2;
  std::vector<chain::Block> blocks;
  for (std::size_t i = 0; i < n; ++i) {
    blocks.push_back(h.miner.mine(source, source_pool, i + 1));
    ASSERT_EQ(source.accept_block(blocks.back()),
              chain::AcceptBlockResult::kConnected);
  }
  for (int target = 0; target < 2; ++target) {
    for (std::size_t i = 1; i < n; ++i) {
      h.nodes[target]->handle_message(Message{
          "block", blocks[i].serialize(), h.nodes[1 - target]->host()});
    }
  }
  h.loop.run_until(h.loop.now() + 60 * kSecond);
  EXPECT_EQ(h.loop.pending(), 0u);
  // Every node forwards each block to its peer at most once, plus a few
  // rate-limited getblocks requests.
  EXPECT_LE(h.net.messages_delivered(), 2 * (n - 1) + 2 * 30);
  for (const auto& node : h.nodes) {
    EXPECT_EQ(node->chain().height(), 0);
    EXPECT_EQ(node->chain().orphan_count(), chain::kMaxOrphanBlocks);
  }
}

TEST(ChainNode, AppMessagesRouted) {
  GossipHarness h(2);
  std::string seen_type;
  h.nodes[1]->set_app_handler(
      [&](const Message& msg) { seen_type = msg.type; });
  h.net.send(h.nodes[0]->host(), h.nodes[1]->host(),
             Message{"DELIVER", util::str_bytes("hi"), -1});
  h.loop.run();
  EXPECT_EQ(seen_type, "DELIVER");
}

// -- Known-tx check and confirmation tracking (no tx index in the chain). --

// Node `n` pays `to` one whole matured coinbase (less the fee): a tx with
// one output and no change. The tx reaches every mempool.
chain::Transaction gossip_payment(GossipHarness& h, int n,
                                  const chain::Wallet& from,
                                  const script::PubKeyHash& to) {
  const chain::Amount whole = from.spendable(h.nodes[n]->chain())
                                  .front()
                                  .second.out.value;
  const auto tx = from.create_payment(h.nodes[n]->chain(),
                                      &h.nodes[n]->mempool(), to,
                                      whole - 1000, 1000);
  EXPECT_TRUE(tx.has_value());
  EXPECT_EQ(tx->vout.size(), 1u);
  EXPECT_TRUE(h.nodes[n]->submit_tx(*tx).ok());
  h.loop.run();
  return *tx;
}

// `count` empty blocks on the first `fork` blocks of `base`'s active chain.
std::vector<chain::Block> branch_from(GossipHarness& h,
                                      const chain::Blockchain& base, int fork,
                                      int count, std::uint64_t time) {
  chain::Blockchain branch(h.params);
  for (int height = 1; height <= fork; ++height)
    EXPECT_EQ(branch.accept_block(*base.block_at(height)),
              chain::AcceptBlockResult::kConnected);
  const chain::Mempool empty(h.params);
  std::vector<chain::Block> blocks;
  for (int i = 0; i < count; ++i) {
    blocks.push_back(h.miner.mine(branch, empty, time + i));
    EXPECT_EQ(branch.accept_block(blocks.back()),
              chain::AcceptBlockResult::kConnected);
  }
  return blocks;
}

TEST(ChainNode, ConfirmedTxGossipIsKnownWithoutTxIndex) {
  GossipHarness h(2);
  ChainNode& node = *h.nodes[1];
  const auto mine = [&] {
    h.mine_and_submit(0);
    h.loop.run();
  };
  // Replace the tip block with two empty ones: a reorg.
  std::uint64_t branch_time = 1000;
  const auto reorg = [&] {
    const int tip = node.chain().height();
    for (const chain::Block& b :
         branch_from(h, node.chain(), tip - 1, 2, branch_time += 10)) {
      node.submit_block(b);
    }
    h.loop.run();
    ASSERT_EQ(node.chain().height(), tip + 1);
  };
  const auto costs_validation = [&](const chain::Transaction& t) {
    const util::SimTime before = h.net.busy_until(node.host());
    node.handle_message(Message{"tx", t.serialize(), h.nodes[0]->host()});
    return h.net.busy_until(node.host()) > before;
  };
  for (int i = 0; i < 3; ++i) mine();
  const chain::Wallet alice = chain::Wallet::from_seed("alice");
  const chain::Transaction tx =
      gossip_payment(h, 0, h.miner_wallet, alice.pkh());
  mine();
  ASSERT_FALSE(node.mempool().contains(tx.txid()));

  // Confirmed, and confirmed below a reorg's fork: its output is unspent,
  // so it is known.
  EXPECT_FALSE(costs_validation(tx));
  mine();
  reorg();
  EXPECT_FALSE(costs_validation(tx));

  // Once its output is spent, the old tx is validated again and fails on
  // its spent input: it never reaches the pool, and it is parked once like
  // a child whose parent is missing.
  const chain::Wallet bob = chain::Wallet::from_seed("bob");
  gossip_payment(h, 1, alice, bob.pkh());
  mine();
  ASSERT_FALSE(node.chain().utxo().contains(chain::OutPoint{tx.txid(), 0}));
  EXPECT_TRUE(costs_validation(tx));
  EXPECT_TRUE(costs_validation(tx));
  EXPECT_FALSE(node.mempool().contains(tx.txid()));
  EXPECT_EQ(node.orphan_tx_count(), 1u);

  // Such txs age out oldest first: a pool full of unresolvable orphans
  // still parks a reordered child and connects it when its parent comes.
  for (std::uint8_t i = 0; i < kMaxOrphanTxs; ++i) {
    chain::Transaction junk = tx;
    junk.vin[0].prevout.txid[0] ^= 0x80;
    junk.vin[0].prevout.txid[1] = i;
    node.handle_message(Message{"tx", junk.serialize(), h.nodes[0]->host()});
  }
  h.loop.run();
  EXPECT_EQ(node.orphan_tx_count(), kMaxOrphanTxs);
  const chain::Transaction parent = *h.miner_wallet.create_payment(
      node.chain(), &node.mempool(), alice.pkh(), 50'000, 1000);
  chain::Mempool staged(h.params);
  ASSERT_TRUE(
      staged.accept(parent, node.chain().utxo(), node.chain().height() + 1)
          .ok());
  const chain::Transaction child =
      *alice.create_payment(node.chain(), &staged, bob.pkh(), 10'000, 1000);
  node.handle_message(Message{"tx", child.serialize(), h.nodes[0]->host()});
  node.handle_message(Message{"tx", parent.serialize(), h.nodes[0]->host()});
  h.loop.run();
  EXPECT_TRUE(node.mempool().contains(parent.txid()));
  EXPECT_TRUE(node.mempool().contains(child.txid()));
  EXPECT_EQ(node.orphan_tx_count(), kMaxOrphanTxs - 1);
}

TEST(ChainNode, ChainMovesMadeByOrphanDescendantsAreReported) {
  GossipHarness h(1);
  ChainNode& node = *h.nodes[0];
  for (int i = 0; i < 3; ++i) h.mine_and_submit(0);
  TxConfirmations confs(node);
  std::vector<chain::Hash256> joined;
  std::vector<int> forks;
  node.add_block_watcher(
      [&](const chain::Block& b) { joined.push_back(b.hash()); });
  node.add_reorg_watcher([&](int fork) { forks.push_back(fork); });
  const auto gossip = [&](const chain::Block& b) {
    node.handle_message(Message{"block", b.serialize(), node.host()});
    h.loop.run();
  };
  const chain::Transaction tx = gossip_payment(
      h, 0, h.miner_wallet, chain::Wallet::from_seed("alice").pkh());
  confs.watch(tx.txid());

  // Block 5, carrying the pooled payment, arrives before block 4: block 4
  // connects and releases it. Both blocks are reported, in height order.
  chain::Blockchain ahead = node.chain();
  const chain::Mempool empty(h.params);
  const chain::Block b4 = h.miner.mine(ahead, empty, 500);
  ASSERT_EQ(ahead.accept_block(b4), chain::AcceptBlockResult::kConnected);
  const chain::Block b5 = h.miner.mine(ahead, node.mempool(), 501);
  ASSERT_EQ(b5.txs.size(), 2u);
  gossip(b5);
  EXPECT_EQ(node.chain().height(), 3);
  gossip(b4);
  ASSERT_EQ(node.chain().tip_hash(), b5.hash());
  EXPECT_EQ(joined, (std::vector<chain::Hash256>{b4.hash(), b5.hash()}));
  EXPECT_FALSE(node.mempool().contains(tx.txid()));
  EXPECT_EQ(confs.confirmations(tx.txid()), 1);

  // A side-chain block whose parked descendants complete a reorg: a branch
  // forking at 3 whose blocks 5 and 6 arrive before its block 4. The reorg
  // is reported with its fork and the payment goes back to the pool.
  const std::vector<chain::Block> b = branch_from(h, node.chain(), 3, 3, 1000);
  joined.clear();
  gossip(b[1]);
  gossip(b[2]);
  gossip(b[0]);
  ASSERT_EQ(node.chain().tip_hash(), b[2].hash());
  EXPECT_EQ(forks, std::vector<int>{3});
  EXPECT_EQ(joined, (std::vector<chain::Hash256>{b[0].hash(), b[1].hash(),
                                                 b[2].hash()}));
  EXPECT_TRUE(node.mempool().contains(tx.txid()));

  // A second reorg forking above the first, at the height the payment once
  // confirmed at: the payment is still unconfirmed, until it is mined.
  for (const chain::Block& c : branch_from(h, node.chain(), 5, 2, 2000))
    gossip(c);
  ASSERT_EQ(node.chain().height(), 7);
  EXPECT_EQ(forks, (std::vector<int>{3, 5}));
  EXPECT_FALSE(confs.confirmations(tx.txid()).has_value());
  ASSERT_TRUE(node.mempool().contains(tx.txid()));
  h.mine_and_submit(0);
  EXPECT_EQ(confs.confirmations(tx.txid()), 1);
}

TEST(TxConfirmations, CountsGrowAndFollowReorgAndRestart) {
  GossipHarness h(1);
  ChainNode& node = *h.nodes[0];
  for (int i = 0; i < 3; ++i) h.mine_and_submit(0);
  TxConfirmations confs(node);
  const chain::Wallet alice = chain::Wallet::from_seed("alice");
  const chain::Transaction tx =
      gossip_payment(h, 0, h.miner_wallet, alice.pkh());
  const chain::Hash256 txid = tx.txid();
  confs.watch(txid);
  EXPECT_FALSE(confs.confirmations(txid).has_value());  // pooled only

  h.mine_and_submit(0);
  const int confirmed_at = node.chain().height();
  ASSERT_EQ(confs.confirmations(txid), 1);
  h.mine_and_submit(0);
  h.mine_and_submit(0);
  h.mine_and_submit(0);
  EXPECT_EQ(confs.confirmations(txid), 4);

  // A longer branch forking below the confirming block: the tx is
  // unconfirmed again (back in the pool), then re-mined on the new branch.
  for (const chain::Block& b :
       branch_from(h, node.chain(), confirmed_at - 1, 5, 1000)) {
    node.submit_block(b);
  }
  ASSERT_EQ(node.chain().height(), confirmed_at + 4);
  EXPECT_FALSE(confs.confirmations(txid).has_value());
  ASSERT_TRUE(node.mempool().contains(txid));
  h.mine_and_submit(0);
  EXPECT_EQ(confs.confirmations(txid), 1);
  h.mine_and_submit(0);
  EXPECT_EQ(confs.confirmations(txid), 2);

  // An in-memory restart comes back at genesis; catch-up rebuilds the
  // depth. Unwatched txids are never reported.
  std::vector<chain::Block> history;
  for (int height = 1; height <= node.chain().height(); ++height)
    history.push_back(*node.chain().block_at(height));
  node.crash();
  ASSERT_TRUE(node.restart());
  EXPECT_FALSE(confs.confirmations(txid).has_value());
  for (const chain::Block& b : history) node.submit_block(b);
  EXPECT_EQ(confs.confirmations(txid), 2);
  confs.forget(txid);
  EXPECT_FALSE(confs.confirmations(txid).has_value());
  EXPECT_EQ(confs.watched(), 0u);
}

// -- Wire framing (TCP transport). --

Message make_msg(const std::string& type, std::size_t payload_len,
                 HostId from) {
  util::Bytes payload(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  return Message{type, std::move(payload), from};
}

TEST(Framing, RoundTrip) {
  const Message in = make_msg("block", 1234, 3);
  FrameDecoder dec;
  dec.feed(encode_frame(in, in.from));
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, in.type);
  EXPECT_EQ(static_cast<const util::Bytes&>(out->payload),
            static_cast<const util::Bytes&>(in.payload));
  EXPECT_EQ(out->from, 3);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.poisoned());
}

TEST(Framing, EmptyPayloadAndEmptyType) {
  FrameDecoder dec;
  dec.feed(encode_frame(Message{"", util::Bytes{}, 0}, 0));
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type.str(), "");
  EXPECT_EQ(out->payload.size(), 0u);
}

TEST(Framing, ReassemblesAcrossArbitrarySplitBoundaries) {
  // Three frames concatenated, then fed in every chunk size from 1 byte up:
  // the decoder must reproduce the same sequence regardless of where the
  // reads land.
  std::vector<Message> msgs;
  msgs.push_back(make_msg("tx", 0, 1));
  msgs.push_back(make_msg("block", 777, 2));
  msgs.push_back(make_msg("getblocks", 64, 3));
  util::Bytes wire;
  for (const Message& m : msgs) {
    const util::Bytes f = encode_frame(m, m.from);
    wire.insert(wire.end(), f.begin(), f.end());
  }
  for (std::size_t chunk = 1; chunk <= 97; chunk += 16) {
    FrameDecoder dec;
    std::vector<Message> got;
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      const std::size_t len = std::min(chunk, wire.size() - off);
      dec.feed(util::ByteView(wire.data() + off, len));
      while (auto m = dec.next()) got.push_back(std::move(*m));
    }
    ASSERT_EQ(got.size(), msgs.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(got[i].type, msgs[i].type);
      EXPECT_EQ(static_cast<const util::Bytes&>(got[i].payload),
                static_cast<const util::Bytes&>(msgs[i].payload));
      EXPECT_EQ(got[i].from, msgs[i].from);
    }
    EXPECT_FALSE(dec.poisoned());
  }
}

TEST(Framing, TruncatedFrameYieldsNothing) {
  const util::Bytes f = encode_frame(make_msg("block", 100, 1), 1);
  for (std::size_t cut : {std::size_t{1}, kFrameHeaderSize - 1,
                          kFrameHeaderSize, f.size() - 1}) {
    FrameDecoder dec;
    dec.feed(util::ByteView(f.data(), cut));
    EXPECT_FALSE(dec.next().has_value()) << "cut=" << cut;
    EXPECT_FALSE(dec.poisoned()) << "cut=" << cut;  // just incomplete
  }
}

TEST(Framing, BadMagicPoisons) {
  util::Bytes f = encode_frame(make_msg("tx", 8, 1), 1);
  f[0] ^= 0xFF;
  FrameDecoder dec;
  dec.feed(f);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.poisoned());
  EXPECT_EQ(dec.error(), FrameError::kBadMagic);
  // A poisoned decoder stays poisoned: later valid bytes are not resynced.
  dec.feed(encode_frame(make_msg("tx", 8, 1), 1));
  EXPECT_FALSE(dec.next().has_value());
}

TEST(Framing, BadVersionPoisons) {
  util::Bytes f = encode_frame(make_msg("tx", 8, 1), 1);
  f[4] ^= 0xFF;
  FrameDecoder dec;
  dec.feed(f);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.error(), FrameError::kBadVersion);
}

TEST(Framing, OversizedLengthsPoison) {
  // Claimed payload_len beyond the cap must be rejected from the header
  // alone — the decoder can never be made to buffer unbounded garbage.
  util::Bytes f = encode_frame(make_msg("tx", 8, 1), 1);
  f[8] = 0xFF; f[9] = 0xFF; f[10] = 0xFF; f[11] = 0x7F;
  FrameDecoder dec;
  dec.feed(f);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.error(), FrameError::kOversized);

  util::Bytes g = encode_frame(make_msg("tx", 8, 1), 1);
  g[6] = 0xFF; g[7] = 0xFF;  // type_len 65535 > kMaxFrameTypeLen
  FrameDecoder dec2;
  dec2.feed(g);
  EXPECT_FALSE(dec2.next().has_value());
  EXPECT_EQ(dec2.error(), FrameError::kOversized);
}

TEST(Framing, CorruptBodyFailsChecksum) {
  util::Bytes f = encode_frame(make_msg("block", 64, 1), 1);
  f[kFrameHeaderSize + 10] ^= 0x01;
  FrameDecoder dec;
  dec.feed(f);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.error(), FrameError::kBadChecksum);
  EXPECT_TRUE(dec.poisoned());
}

TEST(Framing, RandomGarbageNeverCrashes) {
  // Fuzz-ish: random byte soup must only ever produce "no frame" or a
  // poisoned decoder — never UB (ASan/UBSan jobs run this too).
  util::Rng rng(0xF00D);
  for (int trial = 0; trial < 200; ++trial) {
    FrameDecoder dec;
    const std::size_t len = 1 + rng.below(512);
    util::Bytes junk(len);
    for (auto& b : junk)
      b = static_cast<std::uint8_t>(rng.below(256));
    dec.feed(junk);
    while (dec.next().has_value()) {
    }
  }
}

TEST(Framing, ReconnectBackoffDeterministicAndBounded) {
  util::Rng a(42), b(42);
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    const util::SimTime da = reconnect_backoff(attempt, a);
    const util::SimTime db = reconnect_backoff(attempt, b);
    EXPECT_EQ(da, db) << "same seed must give the same jitter";
  }
  // Bounds: jitter is 0.7x..1.3x of the doubling schedule, capped at 5 s.
  util::Rng c(7);
  for (unsigned attempt = 0; attempt < 20; ++attempt) {
    const util::SimTime d = reconnect_backoff(attempt, c);
    const util::SimTime sched = std::min<util::SimTime>(
        5 * kSecond, 100 * kMillisecond << std::min(attempt, 20u));
    EXPECT_GE(d, static_cast<util::SimTime>(0.69 * sched));
    EXPECT_LE(d, static_cast<util::SimTime>(1.31 * sched));
  }
}

// -- TcpTransport over real localhost sockets. --

/// Pump both transports until `done` or the deadline. Real time, so the
/// deadline is generous; the normal path finishes in milliseconds.
bool pump_until(TcpTransport& a, TcpTransport& b,
                const std::function<bool()>& done, int deadline_ms = 10000) {
  for (int waited = 0; waited < deadline_ms && !done(); waited += 2) {
    a.poll(1);
    b.poll(1);
  }
  return done();
}

TEST(TcpTransport, LoopbackRoundTrip) {
  TcpTransportConfig ca;
  ca.self = 0;
  TcpTransportConfig cb;
  cb.self = 1;
  TcpTransport a(ca), b(cb);
  a.set_peer_address(1, "127.0.0.1:" + std::to_string(b.listen_port()));
  b.set_peer_address(0, "127.0.0.1:" + std::to_string(a.listen_port()));

  std::vector<Message> at_a, at_b;
  a.set_handler(0, [&](const Message& m) { at_a.push_back(m); });
  b.set_handler(1, [&](const Message& m) { at_b.push_back(m); });

  const Message ping = make_msg("ping", 512, 0);
  const Message pong = make_msg("pong", 64 * 1024, 1);  // multi-read frame
  a.send(0, 1, ping);
  b.send(1, 0, pong);
  ASSERT_TRUE(pump_until(a, b,
                         [&] { return !at_a.empty() && !at_b.empty(); }));
  EXPECT_EQ(at_b[0].type.str(), "ping");
  EXPECT_EQ(at_b[0].from, 0);
  EXPECT_EQ(at_b[0].payload.size(), 512u);
  EXPECT_EQ(at_a[0].type.str(), "pong");
  EXPECT_EQ(at_a[0].payload.size(), 64u * 1024u);
  EXPECT_EQ(static_cast<const util::Bytes&>(at_a[0].payload),
            static_cast<const util::Bytes&>(pong.payload));
  EXPECT_GE(a.stats().frames_out, 1u);
  EXPECT_GE(a.stats().frames_in, 1u);
}

TEST(TcpTransport, SelfSendDeliversLocally) {
  TcpTransportConfig cfg;
  cfg.self = 4;
  TcpTransport t(cfg);
  std::vector<Message> got;
  t.set_handler(4, [&](const Message& m) { got.push_back(m); });
  t.send(4, 4, make_msg("note", 9, 4));
  t.poll(0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type.str(), "note");
}

TEST(TcpTransport, GarbageStreamRejectedWithoutCrash) {
  // A "peer" that talks garbage costs one disconnect, never a crash: dial
  // the victim's listen port raw and write junk.
  TcpTransportConfig cfg;
  cfg.self = 0;
  TcpTransport victim(cfg);
  victim.set_handler(0, [](const Message&) { FAIL() << "garbage decoded"; });

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(victim.listen_port());
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char junk[] = "GET / HTTP/1.1\r\nHost: not-a-bcwan-peer\r\n\r\n";
  ASSERT_GT(write(fd, junk, sizeof(junk) - 1), 0);

  for (int waited = 0; waited < 5000 && victim.stats().frames_rejected == 0;
       waited += 2) {
    victim.poll(2);
  }
  EXPECT_EQ(victim.stats().frames_rejected, 1u);
  close(fd);
}

TEST(TcpTransport, OversizedSendDroppedAtSource) {
  TcpTransportConfig cfg;
  cfg.self = 0;
  TcpTransport t(cfg);
  Message huge = make_msg("blob", kMaxFramePayload + 1, 0);
  t.send(0, 1, std::move(huge));
  EXPECT_EQ(t.stats().queue_drops, 1u);
  EXPECT_EQ(t.stats().frames_out, 0u);
}

TEST(TcpTransport, ReconnectsAfterPeerRestart) {
  // Peer b dies (transport destroyed), a keeps retrying with backoff, a new
  // b comes up on the same port, traffic flows again.
  TcpTransportConfig ca;
  ca.self = 0;
  ca.backoff_base = 5 * kMillisecond;  // keep the test fast
  TcpTransport a(ca);

  std::uint16_t port = 0;
  std::vector<Message> got;
  {
    TcpTransportConfig cb;
    cb.self = 1;
    TcpTransport b(cb);
    port = b.listen_port();
    a.set_peer_address(1, "127.0.0.1:" + std::to_string(port));
    b.set_peer_address(0, "127.0.0.1:" + std::to_string(a.listen_port()));
    b.set_handler(1, [&](const Message& m) { got.push_back(m); });
    a.send(0, 1, make_msg("one", 4, 0));
    ASSERT_TRUE(pump_until(a, b, [&] { return got.size() == 1; }));
  }  // b is gone; its port is free again

  for (int i = 0; i < 50; ++i) a.poll(1);  // notice the EOF, start retrying

  TcpTransportConfig cb2;
  cb2.self = 1;
  cb2.listen = "127.0.0.1:" + std::to_string(port);
  TcpTransport b2(cb2);
  b2.set_peer_address(0, "127.0.0.1:" + std::to_string(a.listen_port()));
  b2.set_handler(1, [&](const Message& m) { got.push_back(m); });

  // a's frames queue until the redial lands, then flush in order.
  a.send(0, 1, make_msg("two", 4, 0));
  ASSERT_TRUE(pump_until(a, b2, [&] { return got.size() == 2; }));
  EXPECT_EQ(got[1].type.str(), "two");
  EXPECT_GE(a.stats().reconnect_attempts, 1u);
}

}  // namespace
}  // namespace bcwan::p2p
