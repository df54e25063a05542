// Transactions: Bitcoin-0.10-shaped inputs/outputs with script locks.
//
// Every BcWAN on-chain artifact is one of these: directory announcements
// (OP_RETURN outputs), fair-exchange offers (Listing-1 outputs), gateway
// redeems (scriptSigs revealing eSk), payments, and coinbases.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "chain/params.hpp"
#include "crypto/sha256.hpp"
#include "script/interpreter.hpp"
#include "script/script.hpp"
#include "util/bytes.hpp"

namespace bcwan::chain {

/// 32-byte id (double SHA-256 of the serialized object).
using Hash256 = crypto::Digest256;

std::string hash_hex(const Hash256& h);

struct Hash256Hasher {
  std::size_t operator()(const Hash256& h) const noexcept {
    std::size_t out;
    static_assert(sizeof out <= 32);
    std::memcpy(&out, h.data(), sizeof out);
    return out;
  }
};

/// Reference to a transaction output.
struct OutPoint {
  Hash256 txid{};
  std::uint32_t index = 0;

  friend bool operator==(const OutPoint&, const OutPoint&) = default;
};

struct OutPointHasher {
  std::size_t operator()(const OutPoint& o) const noexcept {
    // splitmix64 finalization over (txid word ^ index): the txid word alone
    // is uniform, but adjacent outputs of the same transaction differ only
    // in `index`, and a shift-xor mix sends them to adjacent buckets.
    std::uint64_t x = 0;
    static_assert(sizeof x <= 32);
    std::memcpy(&x, o.txid.data(), sizeof x);
    x ^= static_cast<std::uint64_t>(o.index) + 0x9e3779b97f4a7c15ULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

/// Sequence value that opts an input out of locktime semantics.
constexpr std::uint32_t kSequenceFinal = 0xffffffff;

struct TxIn {
  OutPoint prevout;
  script::Script script_sig;
  std::uint32_t sequence = kSequenceFinal;

  friend bool operator==(const TxIn&, const TxIn&) = default;
};

struct TxOut {
  Amount value = 0;
  script::Script script_pubkey;

  friend bool operator==(const TxOut&, const TxOut&) = default;
};

struct Transaction {
  std::uint32_t version = 1;
  std::vector<TxIn> vin;
  std::vector<TxOut> vout;
  /// Interpreted as a block height before which the tx cannot be mined.
  std::uint32_t locktime = 0;

  Transaction() = default;
  Transaction(const Transaction& other);
  Transaction(Transaction&& other) noexcept;
  Transaction& operator=(const Transaction& other);
  Transaction& operator=(Transaction&& other) noexcept;

  bool is_coinbase() const noexcept {
    return vin.size() == 1 && vin[0].prevout.txid == Hash256{} &&
           vin[0].prevout.index == kSequenceFinal;
  }

  util::Bytes serialize() const;
  /// `compute_txid = false` skips seeding the txid cache from the wire
  /// bytes — for callers that already know the id (the store's trusted log
  /// records it) and will seed_txid() it, avoiding a SHA-256d per tx.
  static std::optional<Transaction> deserialize(util::ByteView data,
                                                bool compute_txid = true);

  /// Install a txid obtained from a trusted source (the CRC-protected
  /// block log) without hashing. The caller owns the claim that `id` is
  /// the double SHA-256 of this transaction's serialization.
  void seed_txid(const Hash256& id) const noexcept {
    cached_txid_ = id;
    txid_state_.store(2, std::memory_order_release);
  }

  /// Double SHA-256 of the serialization; memoized. The first call hashes
  /// and caches, later calls return the cached id. Concurrent readers are
  /// safe (the script-check workers hash the same block's transactions);
  /// mutation requires the same external synchronization the field vectors
  /// already do, plus an invalidate_txid() call.
  Hash256 txid() const;

  /// Drop the memoized txid. MUST be called after mutating any serialized
  /// field (version/vin/vout/locktime) on a transaction whose txid may
  /// already have been observed — a stale id is not just wrong, it can
  /// alias the script-exec and signature caches (keyed by txid) and skip
  /// validation of the mutated bytes.
  void invalidate_txid() const noexcept {
    txid_state_.store(0, std::memory_order_relaxed);
  }

  Amount total_output() const;

  /// Logical equality: serialized fields only, cache state ignored.
  friend bool operator==(const Transaction& a, const Transaction& b) {
    return a.version == b.version && a.locktime == b.locktime &&
           a.vin == b.vin && a.vout == b.vout;
  }

 private:
  // Lazy txid cache: 0 = empty, 1 = one thread is filling it, 2 = valid.
  // The CAS winner alone writes cached_txid_ and publishes with a release
  // store; losers return their locally computed copy. That keeps concurrent
  // first calls race-free without a lock in the hot path.
  mutable Hash256 cached_txid_{};
  mutable std::atomic<std::uint8_t> txid_state_{0};
};

/// Canonical coinbase prevout.
OutPoint coinbase_prevout();

/// The message that an input's ECDSA signature commits to (SIGHASH_ALL
/// semantics): the transaction with every scriptSig blanked except the
/// signed input's, which carries the scriptPubKey being spent, plus the
/// input index.
util::Bytes signature_hash_message(const Transaction& tx,
                                   std::size_t input_index,
                                   const script::Script& script_pubkey_spent);

/// Per-transaction sighash midstates: turns the O(inputs × tx-size)
/// re-serialization of signature_hash_message into O(tx-size + inputs ×
/// suffix) hashing.
///
/// The SIGHASH_ALL message for input i is the serialized transaction with
/// every scriptSig slot blanked except slot i, which carries the spent
/// scriptPubKey, followed by the input index and the 0x01 tag. All messages
/// for one transaction therefore share a template — the fully-blanked
/// serialization — and differ only in what sits in slot i and in the
/// trailer. We build that template once, record each slot's byte offset,
/// and snapshot a SHA-256 midstate over the template prefix ending just
/// before each slot. sighash(i, spk) resumes midstate i, absorbs the spent
/// script and the template suffix after slot i, appends the trailer, and
/// double-hashes — bit-identical to hashing the naive message.
///
/// Validity: the template blanks ALL scriptSigs, so signing input j (which
/// mutates tx.vin[j].script_sig) does not perturb any input's message —
/// one instance serves a whole wallet signing pass and a whole block's
/// script checks. Outputs/locktime/sequence mutations DO invalidate it.
class PrecomputedTxData {
 public:
  explicit PrecomputedTxData(const Transaction& tx);

  /// SHA-256d sighash digest for `input_index` spending
  /// `script_pubkey_spent` — exactly
  /// sha256d(signature_hash_message(tx, input_index, script_pubkey_spent)).
  crypto::Digest256 sighash(std::size_t input_index,
                            const script::Script& script_pubkey_spent) const;

  std::size_t input_count() const noexcept { return prefixes_.size(); }

 private:
  util::Bytes template_;                  // all-blank message, no trailer
  std::vector<std::size_t> slot_end_;     // offset just past input i's blank
  std::vector<crypto::Sha256> prefixes_;  // midstate up to input i's slot
};

/// script::SignatureChecker bound to a (transaction, input) pair. When a
/// PrecomputedTxData for the same transaction is supplied, sighashes come
/// from its midstates instead of re-serializing the transaction per input.
/// `cache_valid` = false consults the signature cache but never adds to
/// it: mempool admission, whose passing transactions are remembered whole
/// in the script-execution cache, which every later check reads first.
class TxSignatureChecker : public script::SignatureChecker {
 public:
  TxSignatureChecker(const Transaction& tx, std::size_t input_index,
                     const script::Script& script_pubkey_spent,
                     const PrecomputedTxData* precomp = nullptr,
                     bool cache_valid = true)
      : tx_(tx), input_index_(input_index),
        script_pubkey_spent_(script_pubkey_spent), precomp_(precomp),
        cache_valid_(cache_valid) {}

  bool check_sig(util::ByteView sig, util::ByteView pubkey) const override;
  std::int64_t tx_locktime() const override { return tx_.locktime; }
  bool input_sequence_final() const override {
    return tx_.vin[input_index_].sequence == kSequenceFinal;
  }

 private:
  const Transaction& tx_;
  std::size_t input_index_;
  const script::Script& script_pubkey_spent_;
  const PrecomputedTxData* precomp_;
  bool cache_valid_;
};

}  // namespace bcwan::chain
