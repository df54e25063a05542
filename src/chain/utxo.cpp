#include "chain/utxo.hpp"

#include <algorithm>
#include <cstring>

#include "util/serial.hpp"

namespace bcwan::chain {

void write_coin(util::Writer& w, const OutPoint& op, const Coin& coin) {
  w.bytes(util::ByteView(op.txid.data(), op.txid.size()));
  w.u32(op.index);
  w.u64(static_cast<std::uint64_t>(coin.out.value));
  w.var_bytes(coin.out.script_pubkey.bytes());
  w.u32(static_cast<std::uint32_t>(coin.height));
  w.u8(coin.coinbase ? 1 : 0);
}

std::pair<OutPoint, Coin> read_coin(util::Reader& r) {
  OutPoint op;
  const util::Bytes txid = r.bytes(op.txid.size());
  std::copy(txid.begin(), txid.end(), op.txid.begin());
  op.index = r.u32();
  Coin coin;
  coin.out.value = static_cast<Amount>(r.u64());
  coin.out.script_pubkey = script::Script(r.var_bytes());
  coin.height = static_cast<int>(r.u32());
  coin.coinbase = r.u8() != 0;
  return {op, std::move(coin)};
}

namespace {

bool outpoint_less(const OutPoint& a, const OutPoint& b) {
  const int cmp = std::memcmp(a.txid.data(), b.txid.data(), a.txid.size());
  if (cmp != 0) return cmp < 0;
  return a.index < b.index;
}

}  // namespace

std::optional<Coin> UtxoSet::get(const OutPoint& op) const {
  const auto it = coins_.find(op);
  if (it == coins_.end()) return std::nullopt;
  return it->second;
}

void UtxoSet::add(const OutPoint& op, Coin coin) {
  if (journaling_) record_baseline(op);
  coins_[op] = std::move(coin);
}

std::optional<Coin> UtxoSet::spend(const OutPoint& op) {
  const auto it = coins_.find(op);
  if (it == coins_.end()) return std::nullopt;
  if (journaling_) record_baseline(op);
  Coin coin = std::move(it->second);
  coins_.erase(it);
  return coin;
}

void UtxoSet::record_baseline(const OutPoint& op) {
  if (baseline_.find(op) != baseline_.end()) return;
  const auto it = coins_.find(op);
  baseline_.emplace(op, it == coins_.end()
                            ? std::optional<CoinTag>{}
                            : CoinTag{it->second.height, it->second.coinbase});
}

void UtxoSet::begin_journal() {
  journaling_ = true;
  baseline_.clear();
}

UtxoJournal UtxoSet::take_journal() {
  UtxoJournal out;
  for (const auto& [op, before] : baseline_) {
    const auto it = coins_.find(op);
    const bool exists = it != coins_.end();
    const bool changed = !before || !exists ||
                         it->second.height != before->height ||
                         it->second.coinbase != before->coinbase;
    if (before && (!exists || changed)) out.spent.push_back(op);
    if (exists && changed) out.added.emplace_back(op, it->second);
  }
  baseline_.clear();
  // Canonical order so two identical windows serialize identically.
  std::sort(out.spent.begin(), out.spent.end(), outpoint_less);
  std::sort(out.added.begin(), out.added.end(),
            [](const auto& a, const auto& b) {
              return outpoint_less(a.first, b.first);
            });
  return out;
}

Amount UtxoSet::total_value() const {
  Amount total = 0;
  for (const auto& [op, coin] : coins_) total += coin.out.value;
  return total;
}

std::vector<const std::pair<const OutPoint, Coin>*> UtxoSet::sorted() const {
  std::vector<const std::pair<const OutPoint, Coin>*> out;
  out.reserve(coins_.size());
  for (const auto& entry : coins_) out.push_back(&entry);
  std::sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    return outpoint_less(a->first, b->first);
  });
  return out;
}

util::Bytes UtxoSet::serialize() const {
  util::Writer w;
  w.varint(coins_.size());
  for (const auto* entry : sorted()) write_coin(w, entry->first, entry->second);
  return w.take();
}

void UtxoSet::write_var(util::Writer& w) const {
  const auto coins = sorted();
  // write_coin: txid, index, value, script, height, coinbase flag.
  constexpr std::size_t kFixedCoinBytes = 32 + 4 + 8 + 4 + 1;
  std::size_t bytes = util::varint_size(coins.size());
  for (const auto* entry : coins) {
    const std::size_t script = entry->second.out.script_pubkey.size();
    bytes += kFixedCoinBytes + util::varint_size(script) + script;
  }
  w.varint(bytes);
  w.varint(coins.size());
  for (const auto* entry : coins) {
    write_coin(w, entry->first, entry->second);
    w.boundary();
  }
}

std::optional<UtxoSet> UtxoSet::deserialize(util::ByteView data) {
  try {
    util::Reader r(data);
    UtxoSet set;
    const std::uint64_t count = r.varint();
    set.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      auto [op, coin] = read_coin(r);
      set.coins_.emplace(op, std::move(coin));
    }
    r.expect_done();
    if (set.coins_.size() != count) return std::nullopt;  // duplicate entry
    return set;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

Hash256 UtxoSet::state_hash() const { return crypto::sha256d(serialize()); }

}  // namespace bcwan::chain
