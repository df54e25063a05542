// Blocks, headers, merkle trees and proof-of-work checks.
#pragma once

#include <optional>
#include <vector>

#include "chain/transaction.hpp"

namespace bcwan::chain {

struct BlockHeader {
  std::uint32_t version = 1;
  Hash256 prev_block{};
  Hash256 merkle_root{};
  /// Simulation timestamp (virtual seconds since genesis).
  std::uint64_t time = 0;
  /// Required leading zero bits (simplified difficulty encoding).
  std::uint32_t target_zero_bits = 0;
  std::uint32_t nonce = 0;
  /// Proof-of-stake fields (empty under proof-of-work): SEC1 proposer key
  /// and its ECDSA signature over the header with this field blanked.
  util::Bytes proposer_pubkey;
  util::Bytes pos_signature;

  util::Bytes serialize() const;
  Hash256 hash() const;

  friend bool operator==(const BlockHeader&, const BlockHeader&) = default;
};

struct Block {
  BlockHeader header;
  std::vector<Transaction> txs;

  util::Bytes serialize() const;
  /// `compute_txids = false` leaves every transaction's txid cache empty —
  /// for callers (the store's trusted log decoder) that seed recorded ids
  /// instead of re-hashing.
  static std::optional<Block> deserialize(util::ByteView data,
                                          bool compute_txids = true);

  Hash256 hash() const { return header.hash(); }

  friend bool operator==(const Block&, const Block&) = default;
};

/// Hash of a serialized block, taken over its header bytes without
/// decoding the transactions. std::nullopt when the header is truncated.
std::optional<Hash256> block_hash_of(util::ByteView body);

/// Merkle root over txids (Bitcoin's duplicate-last-on-odd-level scheme).
/// Empty input yields the zero hash.
///
/// Each level is hashed through the batched sha256d64 kernel (pairs of
/// 32-byte nodes are exactly its 64-byte input shape). `threads` > 1 splits
/// large levels across the shared thread pool; the result is identical for
/// any thread count.
Hash256 merkle_root(const std::vector<Hash256>& leaves, unsigned threads = 0);

Hash256 compute_merkle_root(const std::vector<Transaction>& txs,
                            unsigned threads = 0);

/// True if `hash` has at least `zero_bits` leading zero bits.
bool hash_meets_target(const Hash256& hash, unsigned zero_bits) noexcept;

/// Grind the nonce until the header meets its own target. Returns false if
/// the 32-bit nonce space is exhausted (practically impossible at simulation
/// difficulty).
bool solve_pow(BlockHeader& header);

}  // namespace bcwan::chain
