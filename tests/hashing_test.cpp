// Differential and equivalence tests for the hashing hot path: SHA-256
// backend dispatch, batched sha256d64, parallel merkle, sighash midstates
// and txid memoization. Every SIMD/parallel/midstate fast path is pinned
// bit-for-bit to its scalar/naive reference here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "chain/block.hpp"
#include "chain/transaction.hpp"
#include "chain/wallet.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_impl.hpp"
#include "util/rng.hpp"

namespace bcwan::chain {
namespace {

using crypto::Digest256;
using crypto::Sha256;
using crypto::sha256;
using crypto::sha256d;
using util::Bytes;
using util::ByteView;
using util::Rng;
using util::str_bytes;
using util::to_hex;

std::string hex256(const Digest256& d) {
  return to_hex(crypto::digest_bytes(d));
}

/// Backends the running CPU supports, "scalar" always first. Restores the
/// auto-detected backend when destroyed so tests don't leak a forced one.
struct BackendSweep {
  std::vector<const char*> names;
  BackendSweep() {
    for (const char* name : {"scalar", "shani", "avx2"}) {
      if (crypto::sha256_select_backend(name)) names.push_back(name);
    }
    crypto::sha256_select_backend("auto");
  }
  ~BackendSweep() { crypto::sha256_select_backend("auto"); }
};

// --- Per-backend NIST vectors ---

TEST(Sha256Dispatch, NistVectorsOnEveryBackend) {
  BackendSweep sweep;
  ASSERT_GE(sweep.names.size(), 1u);
  for (const char* name : sweep.names) {
    ASSERT_TRUE(crypto::sha256_select_backend(name));
    EXPECT_STREQ(crypto::sha256_backend_name(), name);
    EXPECT_EQ(
        hex256(sha256({})),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << name;
    EXPECT_EQ(
        hex256(sha256(str_bytes("abc"))),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << name;
    EXPECT_EQ(
        hex256(sha256(str_bytes(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << name;
    EXPECT_EQ(
        hex256(sha256(Bytes(1000000, 'a'))),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << name;
  }
  crypto::sha256_select_backend("auto");
}

TEST(Sha256Dispatch, UnknownBackendRejected) {
  const std::string before = crypto::sha256_backend_name();
  EXPECT_FALSE(crypto::sha256_select_backend("quantum"));
  EXPECT_EQ(crypto::sha256_backend_name(), before);  // dispatch unchanged
}

// --- Randomized stream differential: every backend vs scalar ---

TEST(Sha256Dispatch, StreamsMatchScalarOnRandomInput) {
  BackendSweep sweep;
  Rng rng(7001);
  for (int round = 0; round < 50; ++round) {
    const Bytes data = rng.bytes(1 + rng.below(2048));
    ASSERT_TRUE(crypto::sha256_select_backend("scalar"));
    const Digest256 ref = sha256(data);
    const Digest256 refd = sha256d(data);
    for (const char* name : sweep.names) {
      ASSERT_TRUE(crypto::sha256_select_backend(name));
      EXPECT_EQ(sha256(data), ref) << name << " round " << round;
      EXPECT_EQ(sha256d(data), refd) << name << " round " << round;
      // Irregular chunking exercises the buffered multi-block path.
      Sha256 ctx;
      std::size_t off = 0;
      while (off < data.size()) {
        const std::size_t take =
            std::min<std::size_t>(1 + rng.below(200), data.size() - off);
        ctx.update(ByteView(data.data() + off, take));
        off += take;
      }
      EXPECT_EQ(ctx.finalize(), ref) << name << " round " << round;
    }
  }
  crypto::sha256_select_backend("auto");
}

// --- sha256d64: batched kernel vs per-element reference ---

TEST(Sha256Dispatch, D64MatchesPerElementReference) {
  BackendSweep sweep;
  Rng rng(7002);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{7}, std::size_t{8}, std::size_t{9},
                              std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{33}}) {
    const Bytes in = rng.bytes(n * 64);
    std::vector<Digest256> ref(n);
    ASSERT_TRUE(crypto::sha256_select_backend("scalar"));
    for (std::size_t i = 0; i < n; ++i)
      ref[i] = sha256d(ByteView(in.data() + 64 * i, 64));
    for (const char* name : sweep.names) {
      ASSERT_TRUE(crypto::sha256_select_backend(name));
      Bytes out(n * 32);
      crypto::sha256d64(out.data(), in.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(0, std::memcmp(out.data() + 32 * i, ref[i].data(), 32))
            << name << " n=" << n << " i=" << i;
      }
    }
  }
  crypto::sha256_select_backend("auto");
}

// --- Merkle: parallel/batched vs the naive definition ---

/// The definition, straight from the old serial implementation.
Hash256 naive_merkle(const std::vector<Hash256>& leaves) {
  if (leaves.empty()) return Hash256{};
  std::vector<Hash256> level = leaves;
  while (level.size() > 1) {
    std::vector<Hash256> next;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      const Hash256& left = level[i];
      const Hash256& right = i + 1 < level.size() ? level[i + 1] : level[i];
      Bytes combined(left.begin(), left.end());
      combined.insert(combined.end(), right.begin(), right.end());
      next.push_back(sha256d(combined));
    }
    level = std::move(next);
  }
  return level[0];
}

TEST(Merkle, MatchesNaiveForAllShapesBackendsAndThreadCounts) {
  BackendSweep sweep;
  Rng rng(7003);
  std::vector<std::size_t> shapes;
  for (std::size_t n = 0; n <= 17; ++n) shapes.push_back(n);
  for (std::size_t n : {63, 64, 65, 1000}) shapes.push_back(n);

  for (const std::size_t n : shapes) {
    std::vector<Hash256> leaves(n);
    for (auto& leaf : leaves) {
      const Bytes b = rng.bytes(32);
      std::copy(b.begin(), b.end(), leaf.begin());
    }
    ASSERT_TRUE(crypto::sha256_select_backend("scalar"));
    const Hash256 ref = naive_merkle(leaves);
    for (const char* name : sweep.names) {
      ASSERT_TRUE(crypto::sha256_select_backend(name));
      for (const unsigned threads : {0u, 1u, 2u, 4u}) {
        EXPECT_EQ(merkle_root(leaves, threads), ref)
            << name << " n=" << n << " threads=" << threads;
      }
    }
  }
  crypto::sha256_select_backend("auto");
}

// --- Sighash midstates vs naive message hashing ---

Transaction random_tx(Rng& rng, std::size_t nin, std::size_t nout) {
  Transaction tx;
  tx.version = static_cast<std::uint32_t>(rng.below(3) + 1);
  tx.locktime = static_cast<std::uint32_t>(rng.below(1000));
  for (std::size_t i = 0; i < nin; ++i) {
    TxIn in;
    const Bytes id = rng.bytes(32);
    std::copy(id.begin(), id.end(), in.prevout.txid.begin());
    in.prevout.index = static_cast<std::uint32_t>(rng.below(8));
    in.script_sig = script::Script(rng.bytes(rng.below(120)));
    in.sequence = rng.below(2) ? kSequenceFinal : 7;
    tx.vin.push_back(std::move(in));
  }
  for (std::size_t i = 0; i < nout; ++i) {
    TxOut out;
    out.value = static_cast<Amount>(rng.below(100000));
    out.script_pubkey = script::Script(rng.bytes(rng.below(80)));
    tx.vout.push_back(std::move(out));
  }
  return tx;
}

TEST(SighashMidstate, MatchesNaiveMessageOnRandomTransactions) {
  Rng rng(7004);
  for (int round = 0; round < 40; ++round) {
    const std::size_t nin = 1 + rng.below(8);
    const Transaction tx = random_tx(rng, nin, 1 + rng.below(4));
    const PrecomputedTxData precomp(tx);
    ASSERT_EQ(precomp.input_count(), nin);
    for (std::size_t i = 0; i < nin; ++i) {
      const script::Script spent(rng.bytes(rng.below(100)));
      const Digest256 naive =
          sha256d(signature_hash_message(tx, i, spent));
      EXPECT_EQ(precomp.sighash(i, spent), naive)
          << "round " << round << " input " << i;
    }
  }
}

TEST(SighashMidstate, SurvivesScriptSigMutation) {
  // The template blanks every scriptSig, so a precomp built before signing
  // stays valid while signatures land input by input — the wallet relies
  // on this to sign a whole transaction off one midstate set.
  Rng rng(7005);
  Transaction tx = random_tx(rng, 4, 2);
  const PrecomputedTxData precomp(tx);
  const script::Script spent(rng.bytes(40));
  const Digest256 before = precomp.sighash(2, spent);
  tx.vin[0].script_sig = script::Script(rng.bytes(64));
  tx.vin[3].script_sig = script::Script();
  tx.invalidate_txid();
  EXPECT_EQ(precomp.sighash(2, spent), before);
  EXPECT_EQ(sha256d(signature_hash_message(tx, 2, spent)), before);
}

// --- Txid memoization ---

TEST(TxidCache, MemoizedAndInvalidatedOnMutation) {
  Rng rng(7006);
  Transaction tx = random_tx(rng, 2, 2);
  const Hash256 id1 = tx.txid();
  EXPECT_EQ(tx.txid(), id1);  // stable on repeat

  tx.vout[0].value += 1;
  tx.invalidate_txid();
  const Hash256 id2 = tx.txid();
  EXPECT_NE(id2, id1);
  EXPECT_EQ(sha256d(tx.serialize()), id2);  // cache matches serialization
}

TEST(TxidCache, CopyAndMoveCarryTheCache) {
  Rng rng(7007);
  Transaction tx = random_tx(rng, 1, 1);
  const Hash256 id = tx.txid();

  const Transaction copy = tx;
  EXPECT_EQ(copy.txid(), id);
  EXPECT_TRUE(copy == tx);

  Transaction moved = std::move(tx);
  EXPECT_EQ(moved.txid(), id);

  // Copy taken BEFORE the id was computed must still agree.
  Transaction fresh = random_tx(rng, 1, 1);
  Transaction fresh_copy = fresh;
  EXPECT_EQ(fresh.txid(), fresh_copy.txid());
}

TEST(TxidCache, DeserializeSeedsTheCache) {
  Rng rng(7008);
  const Transaction tx = random_tx(rng, 3, 2);
  const Bytes wire = tx.serialize();
  const auto back = Transaction::deserialize(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->txid(), tx.txid());
  EXPECT_EQ(back->txid(), sha256d(wire));
}

TEST(TxidCache, WalletSigningInvalidates) {
  // sign_p2pkh_input mutates the scriptSig; a txid observed before signing
  // must not leak through the cache afterwards.
  const Wallet wallet = Wallet::from_seed("memo-test");
  Rng rng(7009);
  Transaction tx = random_tx(rng, 1, 1);
  tx.vin[0].script_sig = script::Script();
  const Hash256 unsigned_id = tx.txid();
  wallet.sign_p2pkh_input(tx, 0, script::Script(rng.bytes(25)));
  EXPECT_NE(tx.txid(), unsigned_id);
  EXPECT_EQ(tx.txid(), sha256d(tx.serialize()));
}

}  // namespace
}  // namespace bcwan::chain
