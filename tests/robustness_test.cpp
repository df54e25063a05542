// Robustness sweeps: every wire-format decoder in the system must reject
// malformed input gracefully (no crash, no exception escaping, no partial
// state) — attackers control gossip payloads, LoRa frames and DELIVER
// messages. Inputs are seeded-random garbage plus truncation/bit-flip
// mutations of valid encodings.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "bcwan/directory.hpp"
#include "bcwan/envelope.hpp"
#include "bcwan/recipient_agent.hpp"
#include "chain/block.hpp"
#include "p2p/network.hpp"
#include "chain/miner.hpp"
#include "chain/transaction.hpp"
#include "chain/validation.hpp"
#include "crypto/base58.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/rsa.hpp"
#include "lora/frame.hpp"
#include "script/script.hpp"
#include "util/rng.hpp"

namespace bcwan {
namespace {

using util::Bytes;
using util::Rng;

/// Random garbage buffers across a spread of sizes.
std::vector<Bytes> garbage_corpus(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<Bytes> corpus;
  corpus.push_back({});
  for (std::size_t i = 0; i < count; ++i) {
    corpus.push_back(rng.bytes(rng.below(300)));
  }
  return corpus;
}

/// Truncations and single-bit flips of a valid encoding.
std::vector<Bytes> mutations(const Bytes& valid, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> out;
  for (std::size_t cut = 0; cut < valid.size();
       cut += 1 + valid.size() / 17) {
    out.emplace_back(valid.begin(), valid.begin() + static_cast<long>(cut));
  }
  for (int i = 0; i < 32 && !valid.empty(); ++i) {
    Bytes flipped = valid;
    flipped[rng.below(flipped.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    out.push_back(std::move(flipped));
  }
  return out;
}

class DecoderRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderRobustness, TransactionDecoder) {
  for (const Bytes& data : garbage_corpus(GetParam(), 60)) {
    const auto result = chain::Transaction::deserialize(data);
    if (result) {
      // Anything accepted must re-serialize canonically.
      EXPECT_EQ(chain::Transaction::deserialize(result->serialize()), result);
    }
  }
}

TEST_P(DecoderRobustness, BlockDecoder) {
  for (const Bytes& data : garbage_corpus(GetParam() + 1, 60)) {
    const auto result = chain::Block::deserialize(data);
    if (result) {
      EXPECT_EQ(chain::Block::deserialize(result->serialize()), result);
    }
  }
}

TEST_P(DecoderRobustness, ScriptDecoderAndDisassembler) {
  for (const Bytes& data : garbage_corpus(GetParam() + 2, 60)) {
    const script::Script s(data);
    const auto decoded = s.decode();      // may be nullopt; must not crash
    const std::string text = s.disassemble();
    EXPECT_FALSE(text.empty() && !data.empty() && decoded.has_value());
  }
}

TEST_P(DecoderRobustness, FrameDecoders) {
  for (const Bytes& data : garbage_corpus(GetParam() + 3, 60)) {
    (void)lora::UplinkRequestFrame::decode(data);
    (void)lora::EphemeralKeyFrame::decode(data);
    (void)lora::UplinkDataFrame::decode(data);
    (void)lora::DataAckFrame::decode(data);
    (void)lora::InnerBlob::decode(data);
    (void)lora::peek_frame_type(data);
  }
}

TEST_P(DecoderRobustness, CryptoAndDirectoryDecoders) {
  for (const Bytes& data : garbage_corpus(GetParam() + 4, 60)) {
    (void)crypto::RsaPublicKey::deserialize(data);
    (void)crypto::RsaPrivateKey::deserialize(data);
    (void)crypto::EcdsaSignature::deserialize(data);
    (void)crypto::ec_pubkey_decode(data);
    (void)core::decode_directory_entry(data);
    (void)core::DeliverPayload::deserialize(data);
    (void)crypto::base58_decode(util::bytes_str(data));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderRobustness,
                         ::testing::Values(11u, 22u, 33u, 44u));

TEST(MutationRobustness, ValidTransactionMutants) {
  Rng rng(5);
  chain::Transaction tx;
  chain::TxIn in;
  in.prevout.txid[3] = 9;
  in.script_sig = script::Script(rng.bytes(40));
  tx.vin.push_back(in);
  chain::TxOut out;
  out.value = 12345;
  out.script_pubkey = script::make_p2pkh(script::PubKeyHash{});
  tx.vout.push_back(out);
  const Bytes valid = tx.serialize();
  for (const Bytes& mutant : mutations(valid, 6)) {
    const auto result = chain::Transaction::deserialize(mutant);
    if (result) {
      EXPECT_EQ(result->serialize().size(), mutant.size());
    }
  }
}

TEST(MutationRobustness, ValidDeliverPayloadMutants) {
  Rng rng(7);
  core::DeliverPayload payload;
  payload.device_id = 3;
  payload.em = rng.bytes(64);
  payload.sig = rng.bytes(64);
  const crypto::RsaKeyPair kp = crypto::rsa_generate(rng, 512);
  payload.ephemeral_pub = kp.pub;
  payload.price_quote = 1000;
  const Bytes valid = payload.serialize();
  // The untampered encoding must survive a round trip bit-for-bit — the
  // DELIVER retry path depends on the ACK handle (the serialized ePk)
  // matching across re-encodes.
  const auto round = core::DeliverPayload::deserialize(valid);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->serialize(), valid);
  for (const Bytes& mutant : mutations(valid, 8)) {
    (void)core::DeliverPayload::deserialize(mutant);  // must not crash
  }
}

TEST(MutationRobustness, ValidDirectoryEntryMutants) {
  // The directory parses OP_RETURN payloads straight off gossip: anyone can
  // publish an announcement-shaped transaction, so the decoder faces fully
  // attacker-controlled bytes.
  script::PubKeyHash owner{};
  for (std::size_t i = 0; i < owner.size(); ++i) {
    owner[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const Bytes valid = core::encode_directory_entry(owner, 0x0a000042, 8333);
  const auto round = core::decode_directory_entry(valid);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->owner, owner);
  EXPECT_EQ(round->ip, 0x0a000042u);
  EXPECT_EQ(round->port, 8333);
  for (const Bytes& mutant : mutations(valid, 10)) {
    const auto decoded = core::decode_directory_entry(mutant);
    if (decoded && mutant.size() == valid.size()) {
      // A bit flip may still parse (payload is unauthenticated at this
      // layer) but must re-encode to exactly the mutant bytes: the decoder
      // cannot invent or drop fields.
      EXPECT_EQ(core::encode_directory_entry(decoded->owner, decoded->ip,
                                             decoded->port),
                mutant);
    }
  }
}

TEST(MutationRobustness, ValidDataAckFrameMutants) {
  lora::DataAckFrame ack;
  ack.device_id = 0x0102;
  const Bytes valid = ack.encode();
  const auto round = lora::DataAckFrame::decode(valid);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->device_id, ack.device_id);
  for (const Bytes& mutant : mutations(valid, 13)) {
    (void)lora::DataAckFrame::decode(mutant);  // must not crash
  }
}

TEST(MutationRobustness, ValidBlockMutants) {
  chain::ChainParams params;
  const chain::Block genesis = chain::make_genesis(params);
  const Bytes valid = genesis.serialize();
  for (const Bytes& mutant : mutations(valid, 9)) {
    const auto result = chain::Block::deserialize(mutant);
    if (result && !(*result == genesis)) {
      // The block hash covers only the header; a body mutation must be
      // caught by structural validation (merkle mismatch — or PoW, since
      // the genesis header was never mined against params' difficulty).
      if (result->hash() == genesis.hash()) {
        EXPECT_NE(chain::check_block(*result, params).error,
                  chain::BlockError::kOk);
      }
    }
  }
}

}  // namespace
}  // namespace bcwan

namespace bcwan {

// --- Reclaim rebroadcast-budget exhaustion ---
//
// A reclaim can be knocked out of existence after submission (node crash
// wipes the mempool; a reorg evicts the block it rode in). The recipient's
// revisit loop re-broadcasts it up to max_rebroadcasts times; when the
// budget is spent, the exchange must be *abandoned* — counted in
// exchanges_abandoned() and dropped from pending state — never leaked as a
// forever-pending entry that keeps resubmitting.

namespace {

struct ReclaimTempDir {
  std::filesystem::path path;
  ReclaimTempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "bcwan-reclaim-XXXXXX")
            .string();
    path = ::mkdtemp(tmpl.data());
  }
  ~ReclaimTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

TEST(ReclaimRobustness, BudgetExhaustedReclaimIsAbandonedNotLeaked) {
  chain::ChainParams params;
  params.pow_zero_bits = 4;
  params.coinbase_maturity = 2;

  ReclaimTempDir dir;
  p2p::EventLoop loop;
  p2p::SimNet net{loop, 7};
  // Persistent daemon: crash()/restart() goes through real disk recovery,
  // so the chain (offer included) survives while the mempool (reclaim
  // included) is wiped — exactly the eviction this test needs.
  p2p::ChainNodeConfig node_config;
  node_config.store_dir = (dir.path / "node").string();
  p2p::ChainNode node(net, net.add_host("recipient"), params, node_config,
                      100);
  const p2p::HostId gateway_host = net.add_host("gateway");

  chain::Wallet recipient_wallet = chain::Wallet::from_seed("reclaim-buyer");
  chain::Miner miner{params, recipient_wallet.pkh()};
  core::RecipientConfig config;
  config.timeout_blocks = 3;
  config.max_rebroadcasts = 0;  // the budget under test
  core::RecipientAgent recipient(loop, net, node, recipient_wallet,
                                 core::TimingModel{}, config, 7);

  std::uint64_t now = 0;
  const auto mine = [&] {
    const chain::Block block =
        miner.mine(node.chain(), node.mempool(), ++now);
    ASSERT_EQ(node.submit_block(block), chain::AcceptBlockResult::kConnected);
    loop.run();
  };

  // Fund the recipient: block rewards mature after coinbase_maturity.
  for (int i = 0; i < params.coinbase_maturity + 1; ++i) mine();
  ASSERT_GT(recipient_wallet.balance(node.chain()), 0);

  // Hand-craft the DELIVER a gateway would forward (Fig. 3 step 7).
  util::Rng rng(9);
  const core::NodeProvisioning prov =
      core::provision_node(7, recipient_wallet.pkh(), rng);
  recipient.register_device(prov);
  const crypto::RsaKeyPair ephemeral = crypto::rsa_generate(rng, 512);
  core::DeliverPayload payload;
  payload.device_id = prov.device_id;
  const core::Envelope envelope =
      core::seal_reading(prov, util::str_bytes("42"), ephemeral.pub, rng);
  payload.em = envelope.em;
  payload.sig = envelope.sig;
  payload.ephemeral_pub = ephemeral.pub;
  payload.gateway = chain::Wallet::from_seed("reclaim-gateway").pkh();
  payload.price_quote = chain::kCoin / 100;
  recipient.handle_message(
      p2p::Message{"DELIVER", payload.serialize(), gateway_host});
  loop.run_until(loop.now() + util::kSecond);
  ASSERT_EQ(recipient.offers_posted(), 1u);

  // Confirm the offer, then mine past the CLTV height with the gateway
  // silent: the recipient reclaims.
  mine();
  while (recipient.reclaims_submitted() == 0 &&
         node.chain().height() < 10) {
    mine();
  }
  ASSERT_EQ(recipient.reclaims_submitted(), 1u);
  ASSERT_EQ(recipient.pending_exchange_count(), 1u);

  // Crash-stop the daemon: disk recovery restores the chain, the mempool
  // (and the reclaim in it) is gone.
  node.crash();
  ASSERT_TRUE(node.restart());
  ASSERT_FALSE(node.mempool().contains(chain::Hash256{}));  // sanity: empty

  // Next block triggers the revisit sweep. With a zero budget the evicted
  // reclaim cannot be re-broadcast: the exchange is written off — once —
  // and the pending entry is released rather than leaked.
  mine();
  loop.run();
  EXPECT_EQ(recipient.exchanges_abandoned(), 1u);
  EXPECT_EQ(recipient.pending_exchange_count(), 0u);
  EXPECT_EQ(recipient.reclaim_rebroadcasts(), 0u);

  // And the abandonment is terminal: further blocks change nothing.
  mine();
  EXPECT_EQ(recipient.exchanges_abandoned(), 1u);
  EXPECT_EQ(recipient.pending_exchange_count(), 0u);
}

}  // namespace bcwan
