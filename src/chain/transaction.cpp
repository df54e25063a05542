#include "chain/transaction.hpp"

#include <algorithm>
#include <cstring>

#include "chain/sigcache.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/serial.hpp"

namespace bcwan::chain {

std::string hash_hex(const Hash256& h) {
  return util::to_hex(util::ByteView(h.data(), h.size()));
}

OutPoint coinbase_prevout() { return OutPoint{Hash256{}, kSequenceFinal}; }

namespace {

void write_outpoint(util::Writer& w, const OutPoint& o) {
  w.bytes(util::ByteView(o.txid.data(), o.txid.size()));
  w.u32(o.index);
}

OutPoint read_outpoint(util::Reader& r) {
  OutPoint o;
  const util::Bytes raw = r.bytes(32);
  std::memcpy(o.txid.data(), raw.data(), 32);
  o.index = r.u32();
  return o;
}

void write_tx(util::Writer& w, const Transaction& tx) {
  w.u32(tx.version);
  w.varint(tx.vin.size());
  for (const TxIn& in : tx.vin) {
    write_outpoint(w, in.prevout);
    w.var_bytes(in.script_sig.bytes());
    w.u32(in.sequence);
  }
  w.varint(tx.vout.size());
  for (const TxOut& out : tx.vout) {
    w.u64(static_cast<std::uint64_t>(out.value));
    w.var_bytes(out.script_pubkey.bytes());
  }
  w.u32(tx.locktime);
}

}  // namespace

Transaction::Transaction(const Transaction& other)
    : version(other.version), vin(other.vin), vout(other.vout),
      locktime(other.locktime) {
  if (other.txid_state_.load(std::memory_order_acquire) == 2) {
    cached_txid_ = other.cached_txid_;
    txid_state_.store(2, std::memory_order_relaxed);
  }
}

Transaction::Transaction(Transaction&& other) noexcept
    : version(other.version), vin(std::move(other.vin)),
      vout(std::move(other.vout)), locktime(other.locktime) {
  if (other.txid_state_.load(std::memory_order_acquire) == 2) {
    cached_txid_ = other.cached_txid_;
    txid_state_.store(2, std::memory_order_relaxed);
  }
  // The moved-from shell no longer serializes to the cached id.
  other.invalidate_txid();
}

Transaction& Transaction::operator=(const Transaction& other) {
  if (this == &other) return *this;
  version = other.version;
  vin = other.vin;
  vout = other.vout;
  locktime = other.locktime;
  if (other.txid_state_.load(std::memory_order_acquire) == 2) {
    cached_txid_ = other.cached_txid_;
    txid_state_.store(2, std::memory_order_relaxed);
  } else {
    invalidate_txid();
  }
  return *this;
}

Transaction& Transaction::operator=(Transaction&& other) noexcept {
  if (this == &other) return *this;
  version = other.version;
  vin = std::move(other.vin);
  vout = std::move(other.vout);
  locktime = other.locktime;
  if (other.txid_state_.load(std::memory_order_acquire) == 2) {
    cached_txid_ = other.cached_txid_;
    txid_state_.store(2, std::memory_order_relaxed);
  } else {
    invalidate_txid();
  }
  other.invalidate_txid();
  return *this;
}

util::Bytes Transaction::serialize() const {
  util::Writer w;
  write_tx(w, *this);
  return w.take();
}

std::optional<Transaction> Transaction::deserialize(util::ByteView data,
                                                    bool compute_txid) {
  try {
    util::Reader r(data);
    Transaction tx;
    tx.version = r.u32();
    const std::uint64_t nin = r.varint();
    // An input is ≥ 41 bytes on the wire; bound the reserve so a corrupt
    // count cannot balloon memory before the parse fails.
    tx.vin.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(nin, r.remaining() / 41 + 1)));
    for (std::uint64_t i = 0; i < nin; ++i) {
      TxIn in;
      in.prevout = read_outpoint(r);
      in.script_sig = script::Script(r.var_bytes());
      in.sequence = r.u32();
      tx.vin.push_back(std::move(in));
    }
    const std::uint64_t nout = r.varint();
    tx.vout.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(nout, r.remaining() / 13 + 1)));
    for (std::uint64_t i = 0; i < nout; ++i) {
      TxOut out;
      out.value = static_cast<Amount>(r.u64());
      out.script_pubkey = script::Script(r.var_bytes());
      tx.vout.push_back(std::move(out));
    }
    tx.locktime = r.u32();
    r.expect_done();
    // Canonical varints + expect_done guarantee serialize(tx) == data, so
    // the wire bytes already in hand ARE the txid preimage — seed the cache
    // and the gossip path never re-serializes.
    if (compute_txid) {
      tx.cached_txid_ = crypto::sha256d(data);
      tx.txid_state_.store(2, std::memory_order_relaxed);
    }
    return tx;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

Hash256 Transaction::txid() const {
  if (txid_state_.load(std::memory_order_acquire) == 2) return cached_txid_;
  const Hash256 h = crypto::sha256d(serialize());
  std::uint8_t expected = 0;
  if (txid_state_.compare_exchange_strong(expected, 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
    cached_txid_ = h;
    txid_state_.store(2, std::memory_order_release);
  }
  return h;
}

Amount Transaction::total_output() const {
  Amount total = 0;
  for (const TxOut& out : vout) total += out.value;
  return total;
}

util::Bytes signature_hash_message(const Transaction& tx,
                                   std::size_t input_index,
                                   const script::Script& script_pubkey_spent) {
  util::Writer w;
  w.u32(tx.version);
  w.varint(tx.vin.size());
  for (std::size_t i = 0; i < tx.vin.size(); ++i) {
    write_outpoint(w, tx.vin[i].prevout);
    if (i == input_index) {
      w.var_bytes(script_pubkey_spent.bytes());
    } else {
      w.var_bytes({});
    }
    w.u32(tx.vin[i].sequence);
  }
  w.varint(tx.vout.size());
  for (const TxOut& out : tx.vout) {
    w.u64(static_cast<std::uint64_t>(out.value));
    w.var_bytes(out.script_pubkey.bytes());
  }
  w.u32(tx.locktime);
  w.u32(static_cast<std::uint32_t>(input_index));
  w.u8(0x01);  // SIGHASH_ALL tag
  return w.take();
}

PrecomputedTxData::PrecomputedTxData(const Transaction& tx) {
  util::Writer w;
  std::vector<std::size_t> slot_start;
  slot_start.reserve(tx.vin.size());
  slot_end_.reserve(tx.vin.size());
  w.u32(tx.version);
  w.varint(tx.vin.size());
  for (const TxIn& in : tx.vin) {
    write_outpoint(w, in.prevout);
    slot_start.push_back(w.data().size());
    w.var_bytes({});  // blank scriptSig: one 0x00 length byte
    slot_end_.push_back(w.data().size());
    w.u32(in.sequence);
  }
  w.varint(tx.vout.size());
  for (const TxOut& out : tx.vout) {
    w.u64(static_cast<std::uint64_t>(out.value));
    w.var_bytes(out.script_pubkey.bytes());
  }
  w.u32(tx.locktime);
  template_ = w.take();

  // One rolling context absorbs the template left to right; the snapshot
  // taken just before input i's slot is i's prefix midstate.
  crypto::Sha256 rolling;
  std::size_t absorbed = 0;
  prefixes_.reserve(slot_start.size());
  for (const std::size_t start : slot_start) {
    rolling.update(
        util::ByteView(template_.data() + absorbed, start - absorbed));
    absorbed = start;
    prefixes_.push_back(rolling);
  }
}

crypto::Digest256 PrecomputedTxData::sighash(
    std::size_t input_index, const script::Script& script_pubkey_spent) const {
  crypto::Sha256 h = prefixes_[input_index];  // resume at this input's slot
  util::Writer spk;
  spk.var_bytes(script_pubkey_spent.bytes());
  h.update(spk.data());
  h.update(util::ByteView(template_.data() + slot_end_[input_index],
                          template_.size() - slot_end_[input_index]));
  std::uint8_t trailer[5];  // u32 input index (LE) + SIGHASH_ALL tag
  const auto idx = static_cast<std::uint32_t>(input_index);
  trailer[0] = static_cast<std::uint8_t>(idx);
  trailer[1] = static_cast<std::uint8_t>(idx >> 8);
  trailer[2] = static_cast<std::uint8_t>(idx >> 16);
  trailer[3] = static_cast<std::uint8_t>(idx >> 24);
  trailer[4] = 0x01;
  h.update(util::ByteView(trailer, sizeof trailer));
  const crypto::Digest256 first = h.finalize();
  return crypto::sha256(util::ByteView(first.data(), first.size()));
}

namespace {

// Bitcoin's LOW_S rule, enforced as consensus: (r, s) and (r, n - s) both
// verify, and the sighash blanks every scriptSig, so without it any relayer
// could flip s and mint a twin of a transaction under a different txid —
// stranding every spend built on the original outpoint (a Listing-1 offer's
// redeem and reclaim). The signer always emits the low form.
bool high_s(util::ByteView sig) {
  static const util::Bytes half_n =
      (crypto::Secp256k1::n() >> 1).to_bytes_be(32);
  return sig.size() == 64 &&
         std::memcmp(sig.data() + 32, half_n.data(), half_n.size()) > 0;
}

}  // namespace

bool TxSignatureChecker::check_sig(util::ByteView sig,
                                   util::ByteView pubkey) const {
  if (high_s(sig)) return false;

  // The SHA-256d sighash digest — from midstates when the caller supplied a
  // PrecomputedTxData, otherwise by materializing the message once.
  const crypto::Digest256 digest =
      precomp_ ? precomp_->sighash(input_index_, script_pubkey_spent_)
               : crypto::sha256d(signature_hash_message(
                     tx_, input_index_, script_pubkey_spent_));

  // Salted signature cache (Bitcoin has carried one since 0.7): a block
  // whose connection failed elsewhere, or a block on a competing branch,
  // re-checks signatures a block connection already verified. A hit also
  // skips pubkey decode + on-curve — the cached entry was only ever
  // written after the full check passed on identical bytes.
  const Hash256 key = sig_cache().key(
      {util::ByteView(digest.data(), digest.size()), pubkey, sig});
  if (sig_cache().contains(key)) {
    if (telemetry::enabled())
      telemetry::registry()
          .counter("bcwan_chain_sigverify_total", "result", "cached",
                   "Signature checks by outcome: sigcache hits vs cold "
                   "ECDSA verifications")
          .add(1);
    return true;
  }

  const auto decoded_sig = crypto::EcdsaSignature::deserialize(sig);
  if (!decoded_sig) return false;
  const auto decoded_pub = crypto::ec_pubkey_decode(pubkey);
  if (!decoded_pub) return false;

  telemetry::Histogram* cold_hist = nullptr;
  if (telemetry::enabled())
    cold_hist = &telemetry::registry().histogram(
        "bcwan_chain_sigverify_cold_seconds",
        "Wall-clock time of one cold (cache-miss) ECDSA verification");
  bool valid = false;
  {
    telemetry::Span span("chain.sigverify_cold", cold_hist);
    valid = crypto::ecdsa_verify_digest(*decoded_pub, digest, *decoded_sig);
  }
  if (telemetry::enabled())
    telemetry::registry()
        .counter("bcwan_chain_sigverify_total", "result",
                 valid ? "cold_valid" : "cold_invalid",
                 "Signature checks by outcome: sigcache hits vs cold "
                 "ECDSA verifications")
        .add(1);
  if (valid && cache_valid_) sig_cache().insert(key);
  return valid;
}

}  // namespace bcwan::chain
