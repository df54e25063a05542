// Wallet: key custody, address derivation, coin selection and construction
// of every transaction type in the BcWAN protocol.
//
// A wallet's Base58Check address is the blockchain address (@R) of the
// paper: the identifier nodes send over LoRa and the key under which the
// directory publishes IP addresses.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/mempool.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/rsa.hpp"
#include "script/templates.hpp"

namespace bcwan::chain {

/// Version byte for federation addresses.
constexpr std::uint8_t kAddressVersion = 0x19;

/// Base58Check address from a pubkey hash.
std::string encode_address(const script::PubKeyHash& pkh);
std::optional<script::PubKeyHash> decode_address(const std::string& address);

class Wallet {
 public:
  explicit Wallet(crypto::EcKeyPair identity);
  /// Deterministic identity from a human-readable name (simulation actors).
  static Wallet from_seed(std::string_view name);

  const script::PubKeyHash& pkh() const noexcept { return pkh_; }
  const util::Bytes& pubkey() const noexcept { return pubkey_; }
  /// The wallet's blockchain address (@R).
  const std::string& address() const noexcept { return address_; }

  /// Confirmed, mature coins owned by this wallet and not already spent by
  /// an in-pool transaction (when a pool is supplied), plus own outputs of
  /// in-pool transactions. Sorted value-desc, equal values by outpoint.
  /// Costs O(own coins + pool): the wallet keeps its confirmed coins in a
  /// private cache synced against `chain` on each call — block by block
  /// while the chain only extends from the synced tip, by one UTXO walk on
  /// first use, for a different chain, or once the synced tip has left the
  /// active chain. Not safe to call on one wallet from two threads.
  std::vector<std::pair<OutPoint, Coin>> spendable(
      const Blockchain& chain, const Mempool* pool = nullptr) const;

  /// Full UTXO walks the coin cache has made (first use, chain switches,
  /// reorgs past the synced tip).
  std::uint64_t coin_rebuilds() const noexcept { return coins_.rebuilds; }

  Amount balance(const Blockchain& chain, const Mempool* pool = nullptr) const;

  /// Plain payment to a pubkey hash. std::nullopt when funds are
  /// insufficient.
  std::optional<Transaction> create_payment(const Blockchain& chain,
                                            const Mempool* pool,
                                            const script::PubKeyHash& dest,
                                            Amount amount, Amount fee) const;

  /// Funded OP_RETURN announcement (directory entries). The data rides in
  /// output 0; change returns to this wallet.
  std::optional<Transaction> create_announcement(const Blockchain& chain,
                                                 const Mempool* pool,
                                                 util::ByteView data,
                                                 Amount fee) const;

  /// Fair-exchange offer (paper step 9): locks `amount` under the Listing-1
  /// script. This wallet is the buyer; `gateway` is paid for revealing the
  /// ephemeral key; `timeout_height` gates the reclaim branch.
  std::optional<Transaction> create_key_release_offer(
      const Blockchain& chain, const Mempool* pool,
      const crypto::RsaPublicKey& ephemeral_pub,
      const script::PubKeyHash& gateway, Amount amount, Amount fee,
      std::int64_t timeout_height) const;

  /// Gateway redeem (paper step 10): spends the offer output, revealing the
  /// ephemeral secret key on-chain. Pays this wallet.
  Transaction create_redeem(const OutPoint& offer_outpoint,
                            const TxOut& offer_out,
                            const crypto::RsaPrivateKey& ephemeral_priv,
                            Amount fee) const;

  /// Buyer reclaim after timeout: spends the offer output via the CLTV
  /// branch. `timeout_height` becomes the transaction's nLockTime.
  Transaction create_reclaim(const OutPoint& offer_outpoint,
                             const TxOut& offer_out,
                             std::int64_t timeout_height, Amount fee) const;

  /// Sign input `index` of `tx` (P2PKH shape) against the given spent
  /// script; fills the input's scriptSig (and drops any memoized txid —
  /// the signature changes the serialization). `precomp`, when supplied,
  /// must be built from `tx` and provides the sighash digest via midstates;
  /// it stays valid across the whole signing pass because the sighash
  /// template blanks every scriptSig.
  void sign_p2pkh_input(Transaction& tx, std::size_t index,
                        const script::Script& spent_script,
                        const PrecomputedTxData* precomp = nullptr) const;

 private:
  struct Funding {
    std::vector<std::pair<OutPoint, Coin>> inputs;
    Amount total = 0;
  };
  /// Bring the coin cache to `chain`'s tip.
  void sync_coins(const Blockchain& chain) const;
  /// Greedy selection of at least `target` value.
  std::optional<Funding> select_coins(const Blockchain& chain,
                                      const Mempool* pool,
                                      Amount target) const;
  /// Assemble inputs + outputs (+change), then sign all inputs.
  Transaction build_and_sign(const Funding& funding,
                             std::vector<TxOut> outputs, Amount change) const;

  crypto::EcKeyPair identity_;
  util::Bytes pubkey_;
  script::PubKeyHash pkh_;
  std::string address_;
  script::Script own_script_;

  // Confirmed coins paying own_script_ as of the active-chain block `tip`
  // at `height` of `chain` (height -1: never synced).
  struct CoinCache {
    const Blockchain* chain = nullptr;
    int height = -1;
    Hash256 tip{};
    std::unordered_map<OutPoint, Coin, OutPointHasher> coins;
    std::uint64_t rebuilds = 0;
  };
  mutable CoinCache coins_;
};

}  // namespace bcwan::chain
