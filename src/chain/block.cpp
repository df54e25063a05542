#include "chain/block.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "util/serial.hpp"
#include "util/threadpool.hpp"

namespace bcwan::chain {

util::Bytes BlockHeader::serialize() const {
  util::Writer w;
  w.u32(version);
  w.bytes(util::ByteView(prev_block.data(), prev_block.size()));
  w.bytes(util::ByteView(merkle_root.data(), merkle_root.size()));
  w.u64(time);
  w.u32(target_zero_bits);
  w.u32(nonce);
  w.var_bytes(proposer_pubkey);
  w.var_bytes(pos_signature);
  return w.take();
}

Hash256 BlockHeader::hash() const { return crypto::sha256d(serialize()); }

util::Bytes Block::serialize() const {
  util::Writer w;
  w.bytes(header.serialize());
  w.varint(txs.size());
  for (const Transaction& tx : txs) w.var_bytes(tx.serialize());
  return w.take();
}

std::optional<Block> Block::deserialize(util::ByteView data,
                                        bool compute_txids) {
  try {
    util::Reader r(data);
    Block b;
    b.header.version = r.u32();
    std::memcpy(b.header.prev_block.data(), r.view(32).data(), 32);
    std::memcpy(b.header.merkle_root.data(), r.view(32).data(), 32);
    b.header.time = r.u64();
    b.header.target_zero_bits = r.u32();
    b.header.nonce = r.u32();
    b.header.proposer_pubkey = r.var_bytes();
    b.header.pos_signature = r.var_bytes();
    const std::uint64_t ntx = r.varint();
    // Each tx is at least a handful of bytes; the min() keeps a corrupt
    // count from reserving unbounded memory before the parse fails.
    b.txs.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(ntx, r.remaining() / 8 + 1)));
    for (std::uint64_t i = 0; i < ntx; ++i) {
      const util::ByteView raw = r.var_view();
      auto tx = Transaction::deserialize(raw, compute_txids);
      if (!tx) return std::nullopt;
      b.txs.push_back(*std::move(tx));
    }
    r.expect_done();
    return b;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

std::optional<Hash256> block_hash_of(util::ByteView body) {
  try {
    util::Reader r(body);
    r.view(4 + 32 + 32 + 8 + 4 + 4);
    r.var_view();  // proposer_pubkey
    r.var_view();  // pos_signature
    return crypto::sha256d(body.first(body.size() - r.remaining()));
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

namespace {

/// Below this many pairs a level is hashed on the calling thread; pool
/// dispatch overhead would eat the win on small levels (and every tree
/// shrinks under the threshold within a few levels anyway).
constexpr std::size_t kMinPairsPerWorker = 64;

}  // namespace

Hash256 merkle_root(const std::vector<Hash256>& leaves, unsigned threads) {
  if (leaves.empty()) return Hash256{};
  std::vector<Hash256> level = leaves;
  while (level.size() > 1) {
    // Duplicate the last node on odd levels up front so every pair is one
    // contiguous 64-byte input: Hash256 is std::array<uint8_t, 32>, so the
    // level's vector storage IS the packed input buffer for sha256d64.
    if (level.size() & 1) level.push_back(level.back());
    const std::size_t pairs = level.size() / 2;
    std::vector<Hash256> next(pairs);
    const std::uint8_t* in = level[0].data();
    std::uint8_t* out = next[0].data();

    if (threads > 1 && pairs >= 2 * kMinPairsPerWorker) {
      // Split the level into equal slices; each worker runs the batched
      // kernel on its own disjoint range, so the output is bitwise the
      // same as the serial pass regardless of scheduling.
      const std::size_t slices =
          std::min<std::size_t>(threads, pairs / kMinPairsPerWorker);
      const std::size_t per = (pairs + slices - 1) / slices;
      std::vector<std::function<void()>> tasks;
      tasks.reserve(slices);
      for (std::size_t begin = 0; begin < pairs; begin += per) {
        const std::size_t count = std::min(per, pairs - begin);
        tasks.push_back([in, out, begin, count] {
          crypto::sha256d64(out + 32 * begin, in + 64 * begin, count);
        });
      }
      util::ThreadPool::shared(threads - 1).run(std::move(tasks));
    } else {
      crypto::sha256d64(out, in, pairs);
    }
    level = std::move(next);
  }
  return level[0];
}

Hash256 compute_merkle_root(const std::vector<Transaction>& txs,
                            unsigned threads) {
  std::vector<Hash256> leaves;
  leaves.reserve(txs.size());
  for (const Transaction& tx : txs) leaves.push_back(tx.txid());
  return merkle_root(leaves, threads);
}

bool hash_meets_target(const Hash256& hash, unsigned zero_bits) noexcept {
  unsigned checked = 0;
  for (std::uint8_t byte : hash) {
    if (checked + 8 <= zero_bits) {
      if (byte != 0) return false;
      checked += 8;
    } else if (checked < zero_bits) {
      const unsigned rem = zero_bits - checked;
      if (byte >> (8 - rem) != 0) return false;
      return true;
    } else {
      return true;
    }
  }
  return true;
}

bool solve_pow(BlockHeader& header) {
  for (std::uint64_t nonce = 0; nonce <= 0xffffffffULL; ++nonce) {
    header.nonce = static_cast<std::uint32_t>(nonce);
    if (hash_meets_target(header.hash(), header.target_zero_bits)) return true;
  }
  return false;
}

}  // namespace bcwan::chain
