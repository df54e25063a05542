#include "chain/delta.hpp"

#include "util/serial.hpp"

namespace bcwan::chain {
namespace {

constexpr std::uint32_t kDeltaVersion = 1;

void write_hash(util::Writer& w, const Hash256& h) {
  w.bytes(util::ByteView(h.data(), h.size()));
}

Hash256 read_hash(util::Reader& r) {
  Hash256 h{};
  const util::ByteView raw = r.view(h.size());
  std::copy(raw.begin(), raw.end(), h.begin());
  return h;
}

void write_outpoint(util::Writer& w, const OutPoint& op) {
  write_hash(w, op.txid);
  w.u32(op.index);
}

OutPoint read_outpoint(util::Reader& r) {
  OutPoint op;
  op.txid = read_hash(r);
  op.index = r.u32();
  return op;
}

}  // namespace

namespace delta_wire {

void write_head(util::Writer& w, std::uint64_t parent_seq,
                std::uint64_t next_seq, std::size_t new_blocks) {
  w.u32(kDeltaVersion);
  w.u64(parent_seq);
  w.u64(next_seq);
  w.varint(new_blocks);
}

PayloadRange write_new_block(util::Writer& w, util::ByteView body,
                             int height) {
  const PayloadRange range{w.var_bytes(body),
                           static_cast<std::uint32_t>(body.size())};
  w.u32(static_cast<std::uint32_t>(height));
  return range;
}

void write_edit_head(util::Writer& w, std::uint32_t pop, std::size_t pushes) {
  w.u32(pop);
  w.varint(pushes);
}

PayloadRange write_push(util::Writer& w, const Hash256& hash,
                        util::ByteView undo) {
  write_hash(w, hash);
  return PayloadRange{w.var_bytes(undo),
                      static_cast<std::uint32_t>(undo.size())};
}

void write_tail(util::Writer& w, const std::vector<OutPoint>& spent,
                const std::vector<std::pair<OutPoint, Coin>>& added,
                int tip_height, const Hash256& tip_hash) {
  w.varint(spent.size());
  for (const OutPoint& op : spent) {
    write_outpoint(w, op);
    w.boundary();
  }
  w.varint(added.size());
  for (const auto& [op, coin] : added) {
    write_coin(w, op, coin);
    w.boundary();
  }
  w.u32(static_cast<std::uint32_t>(tip_height));
  write_hash(w, tip_hash);
}

}  // namespace delta_wire

util::Bytes encode_state_delta(const StateDelta& d) {
  util::Writer w;
  delta_wire::write_head(w, d.parent_seq, d.next_seq, d.new_blocks.size());
  for (const StateDelta::NewBlock& nb : d.new_blocks)
    delta_wire::write_new_block(w, nb.block.serialize(), nb.height);
  delta_wire::write_edit_head(w, d.pop, d.push.size());
  for (const StateDelta::PushedBlock& p : d.push) {
    util::Writer undo_w;
    write_undo(undo_w, p.undo);
    delta_wire::write_push(w, p.hash, undo_w.data());
  }
  delta_wire::write_tail(w, d.spent, d.added, d.tip_height, d.tip_hash);
  return w.take();
}

std::optional<StateDelta> decode_state_delta(util::ByteView data) {
  try {
    util::Reader r(data);
    if (r.u32() != kDeltaVersion) return std::nullopt;
    StateDelta d;
    d.parent_seq = r.u64();
    d.next_seq = r.u64();
    const std::uint64_t block_count = r.varint();
    d.new_blocks.reserve(static_cast<std::size_t>(block_count));
    // Where a view taken from `data` sits in it.
    const auto range_of = [&data](util::ByteView bytes) {
      return PayloadRange{
          static_cast<std::uint64_t>(bytes.data() - data.data()),
          static_cast<std::uint32_t>(bytes.size())};
    };
    for (std::uint64_t i = 0; i < block_count; ++i) {
      const util::ByteView body = r.var_view();
      auto block = Block::deserialize(body);
      if (!block) return std::nullopt;
      StateDelta::NewBlock nb;
      nb.block = *std::move(block);
      nb.body_at = range_of(body);
      nb.height = static_cast<int>(r.u32());
      d.new_blocks.push_back(std::move(nb));
    }
    d.pop = r.u32();
    const std::uint64_t push_count = r.varint();
    d.push.reserve(static_cast<std::size_t>(push_count));
    for (std::uint64_t i = 0; i < push_count; ++i) {
      StateDelta::PushedBlock p;
      p.hash = read_hash(r);
      const util::ByteView undo = r.var_view();
      util::Reader undo_r(undo);
      p.undo = read_undo(undo_r);
      p.undo_at = range_of(undo);
      undo_r.expect_done();
      d.push.push_back(std::move(p));
    }
    const std::uint64_t spent_count = r.varint();
    d.spent.reserve(static_cast<std::size_t>(spent_count));
    for (std::uint64_t i = 0; i < spent_count; ++i)
      d.spent.push_back(read_outpoint(r));
    const std::uint64_t added_count = r.varint();
    d.added.reserve(static_cast<std::size_t>(added_count));
    for (std::uint64_t i = 0; i < added_count; ++i)
      d.added.push_back(read_coin(r));
    d.tip_height = static_cast<int>(r.u32());
    d.tip_hash = read_hash(r);
    r.expect_done();
    return d;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

}  // namespace bcwan::chain
