#include "chain/blockchain.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "chain/pos.hpp"
#include "script/templates.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/bytes.hpp"
#include "util/crc32c.hpp"
#include "util/serial.hpp"

namespace bcwan::chain {

std::string accept_block_result_name(AcceptBlockResult r) {
  switch (r) {
    case AcceptBlockResult::kConnected: return "connected";
    case AcceptBlockResult::kReorganized: return "reorganized";
    case AcceptBlockResult::kSideChain: return "side-chain";
    case AcceptBlockResult::kOrphan: return "orphan";
    case AcceptBlockResult::kDuplicate: return "duplicate";
    case AcceptBlockResult::kInvalid: return "invalid";
  }
  return "unknown";
}

Block make_genesis(const ChainParams& params) {
  Block genesis;
  Transaction coinbase;
  TxIn in;
  in.prevout = coinbase_prevout();
  script::Script tag;
  tag.push(util::str_bytes("BcWAN federated LPWAN genesis"));
  in.script_sig = tag;
  coinbase.vin.push_back(std::move(in));
  TxOut out;
  out.value = params.block_reward;
  // Unspendable genesis output (no one owns the genesis reward).
  out.script_pubkey = script::make_op_return(util::str_bytes("genesis"));
  coinbase.vout.push_back(std::move(out));
  genesis.txs.push_back(std::move(coinbase));
  genesis.header.merkle_root = compute_merkle_root(genesis.txs);
  genesis.header.target_zero_bits = 0;  // genesis needs no work
  return genesis;
}

Blockchain::Blockchain(const ChainParams& params) : params_(params) {
  const Block genesis = make_genesis(params_);
  const Hash256 hash = genesis.hash();
  // Genesis coinbase outputs are OP_RETURN, so the UTXO set starts empty.
  StoredBlock& stored = blocks_[hash];
  stored.prev_block = genesis.header.prev_block;
  files_.assign(stored.body, files_.keep(genesis.serialize()));
  active_.push_back(hash);
}

namespace {

util::Bytes encode_undo(const BlockUndo& undo) {
  util::Writer w;
  write_undo(w, undo);
  util::Bytes out = w.take();
  out.shrink_to_fit();
  return out;
}

const util::Bytes& empty_undo() {
  static const util::Bytes kEmpty = encode_undo(BlockUndo{});
  return kEmpty;
}

/// An empty extent stands for the empty record's encoding.
bool is_empty_undo(util::ByteView undo) {
  const util::Bytes& empty = empty_undo();
  return std::equal(undo.begin(), undo.end(), empty.begin(), empty.end());
}

BlockUndo decode_undo(const util::Bytes& undo) {
  util::Reader r(undo);
  return read_undo(r);
}

}  // namespace

util::Bytes Blockchain::body_bytes(const Hash256& hash,
                                   const StoredBlock& stored) const {
  util::Bytes body = files_.read(stored.body);
  if (block_hash_of(body) != hash) {
    throw std::runtime_error("Blockchain: stored body of block " +
                             util::to_hex(hash) +
                             " does not hash to it (offset " +
                             std::to_string(stored.body.offset) + ", file " +
                             std::to_string(stored.body.file) + ")");
  }
  return body;
}

util::Bytes Blockchain::undo_bytes(const Hash256& hash,
                                   const StoredBlock& stored) const {
  if (stored.undo.empty()) return empty_undo();
  util::Bytes undo = files_.read(stored.undo);
  if (util::crc32c(undo) != stored.undo_crc) {
    throw std::runtime_error("Blockchain: stored undo of block " +
                             util::to_hex(hash) +
                             " fails its CRC (offset " +
                             std::to_string(stored.undo.offset) + ", file " +
                             std::to_string(stored.undo.file) + ")");
  }
  return undo;
}

Block Blockchain::decode(const Hash256& hash, const StoredBlock& stored) const {
  auto block = Block::deserialize(body_bytes(hash, stored));
  if (!block) throw std::logic_error("Blockchain: stored body does not decode");
  return *std::move(block);
}

void Blockchain::erase_stored(const Hash256& hash) {
  const auto it = blocks_.find(hash);
  if (it == blocks_.end()) return;
  files_.assign(it->second.body, {});
  files_.assign(it->second.undo, {});
  blocks_.erase(it);
}

std::optional<Block> Blockchain::get_block(const Hash256& hash) const {
  const auto it = blocks_.find(hash);
  if (it == blocks_.end()) return std::nullopt;
  return decode(hash, it->second);
}

std::optional<Block> Blockchain::block_at(int h) const {
  if (h < 0 || h >= static_cast<int>(active_.size())) return std::nullopt;
  return get_block(active_[static_cast<std::size_t>(h)]);
}

std::optional<util::Bytes> Blockchain::block_bytes_at(int h) const {
  if (h < 0 || h >= static_cast<int>(active_.size())) return std::nullopt;
  const Hash256& hash = active_[static_cast<std::size_t>(h)];
  return body_bytes(hash, blocks_.at(hash));
}

bool Blockchain::connect_tip(const Block& block, const Hash256& hash,
                             LoggedUndo* undo_hint) {
  // Telemetry is gated off during trusted log replay: four registry
  // lookups per block were a measurable slice of the recovery profile.
  const bool note = telemetry::enabled() && !replay_mode_;
  telemetry::Histogram* connect_hist = nullptr;
  if (note) {
    connect_hist = &telemetry::registry().histogram(
        "bcwan_chain_connect_block_seconds",
        "Wall-clock time to validate and connect one block at the tip");
  }
  telemetry::Span span("chain.connect_tip", connect_hist);
  auto& stored = blocks_.at(hash);
  if (undo_hint != nullptr) {
    // Trusted replay of a logged tip extension: re-apply the recorded UTXO
    // delta, no validation (the log's CRC owns integrity).
    apply_block_from_undo(block, undo_hint->undo, utxo_, stored.height);
    files_.assign(stored.undo, undo_hint->at);
    stored.undo_crc = undo_hint->crc;
  } else {
    BlockUndo undo;
    const BlockValidationResult result = connect_block(
        block, utxo_, stored.height, params_, undo, !replay_mode_);
    if (!result.ok()) {
      last_failure_ = result;
      return false;
    }
    util::Bytes bytes = encode_undo(undo);
    stored.undo_crc = util::crc32c(bytes);
    files_.assign(stored.undo, files_.keep(std::move(bytes)));
  }
  stored.undo_pruned = false;
  active_.push_back(hash);
  if (note) {
    auto& reg = telemetry::registry();
    reg.counter("bcwan_chain_blocks_connected_total",
                "Blocks connected to the active chain")
        .add();
    reg.counter("bcwan_chain_txs_connected_total",
                "Transactions (incl. coinbases) in connected blocks")
        .add(block.txs.size());
    reg.gauge("bcwan_chain_utxo_size",
              "Unspent outputs tracked by the most recently updated node")
        .set(static_cast<double>(utxo_.size()));
    reg.gauge("bcwan_chain_height",
              "Active chain height of the most recently updated node")
        .set(static_cast<double>(height()));
  }
  return true;
}

AcceptBlockResult Blockchain::accept_block(const Block& block) {
  return accept_reporting(Block(block), block.hash(), {}, nullptr);
}

AcceptBlockResult Blockchain::replay_block(Block&& block, const Hash256& hash,
                                           const Extent& body,
                                           LoggedUndo* undo) {
  replay_mode_ = true;
  const AcceptBlockResult result =
      accept_reporting(std::move(block), hash, body, undo);
  replay_mode_ = false;
  return result;
}

AcceptBlockResult Blockchain::accept_reporting(Block&& block,
                                               const Hash256& hash,
                                               Extent body,
                                               LoggedUndo* replay_undo) {
  const int old_height = height();
  call_fork_ = -1;
  const AcceptBlockResult result =
      accept_internal(std::move(block), hash, body, replay_undo);
  // Orphan descendants released by this block may have reorganized the
  // chain even when the block itself connected or landed on a side chain.
  if (call_fork_ < 0 || (result != AcceptBlockResult::kConnected &&
                         result != AcceptBlockResult::kSideChain &&
                         result != AcceptBlockResult::kReorganized)) {
    return result;
  }
  last_fork_height_ = std::min(old_height, call_fork_);
  return AcceptBlockResult::kReorganized;
}

void Blockchain::reserve_for_replay(std::size_t blocks) {
  blocks_.reserve(blocks_.size() + blocks);
  active_.reserve(active_.size() + blocks);
}

AcceptBlockResult Blockchain::accept_internal(Block&& block,
                                              const Hash256& hash,
                                              Extent body,
                                              LoggedUndo* replay_undo) {
  if (blocks_.find(hash) != blocks_.end()) return AcceptBlockResult::kDuplicate;

  if (!replay_mode_) {
    const BlockValidationResult structural = check_block(block, params_);
    if (!structural.ok()) {
      last_failure_ = structural;
      return AcceptBlockResult::kInvalid;
    }
  }

  const auto parent = blocks_.find(block.header.prev_block);
  if (parent == blocks_.end()) {
    add_orphan(hash, std::move(block));
    return AcceptBlockResult::kOrphan;
  }

  const int block_height = parent->second.height + 1;

  // Proof-of-stake election: the block must be signed by the validator the
  // slot-leader schedule picked for this (parent, height).
  if (!replay_mode_ && params_.consensus == ConsensusMode::kProofOfStake) {
    const std::size_t slot = scheduled_proposer(
        params_.validators, block.header.prev_block, block_height);
    if (!pos_verify_block(block.header, params_.validators[slot])) {
      last_failure_ = BlockValidationResult{};
      last_failure_.error = BlockError::kBadProposer;
      return AcceptBlockResult::kInvalid;
    }
  }
  if (body.empty()) body = files_.keep(block.serialize());
  StoredBlock& stored = blocks_[hash];
  stored.prev_block = block.header.prev_block;
  stored.height = block_height;
  files_.assign(stored.body, body);

  AcceptBlockResult result;
  if (block.header.prev_block == tip_hash()) {
    if (!connect_tip(block, hash, replay_undo)) {
      erase_stored(hash);
      return AcceptBlockResult::kInvalid;
    }
    result = AcceptBlockResult::kConnected;
  } else if (block_height > height()) {
    result = maybe_reorg(hash);
    if (result == AcceptBlockResult::kInvalid) {
      erase_stored(hash);
      return result;
    }
  } else {
    result = AcceptBlockResult::kSideChain;
  }

  // Persist before orphan descendants are promoted: the log must record a
  // parent ahead of every child so replay never sees an orphan. Outside
  // replay the new body and undo are still in memory; a sink that wrote
  // them to a file hands back where, and the memory copies go.
  if (!replay_mode_ && block_sink_) {
    const bool connected = result == AcceptBlockResult::kConnected;
    const util::Bytes* undo = nullptr;
    if (connected) {
      undo = stored.undo.empty() ? &empty_undo() : files_.memory(stored.undo);
    }
    const std::optional<BlockPlacement> placed =
        block_sink_(block, *files_.memory(stored.body), undo);
    if (placed) {
      files_.assign(stored.body, placed->body);
      if (connected && !stored.undo.empty())
        files_.assign(stored.undo, placed->undo);
    }
  }

  try_connect_orphans(hash);
  return result;
}

std::optional<BlockUndo> Blockchain::undo_for(const Hash256& hash) const {
  const auto it = blocks_.find(hash);
  if (it == blocks_.end()) return std::nullopt;
  const int h = it->second.height;
  if (h >= static_cast<int>(active_.size()) ||
      active_[static_cast<std::size_t>(h)] != hash) {
    return std::nullopt;
  }
  return decode_undo(undo_bytes(hash, it->second));
}

AcceptBlockResult Blockchain::maybe_reorg(const Hash256& new_tip) {
  // Walk back from the candidate tip to the fork point with the active
  // chain, collecting the branch to connect.
  std::vector<Hash256> branch;  // fork-child .. new_tip, reversed below
  Hash256 cursor = new_tip;
  auto on_active = [this](const Hash256& h) {
    const auto it = blocks_.find(h);
    if (it == blocks_.end()) return false;
    const int bh = it->second.height;
    return bh < static_cast<int>(active_.size()) &&
           active_[static_cast<std::size_t>(bh)] == h;
  };
  while (!on_active(cursor)) {
    branch.push_back(cursor);
    cursor = blocks_.at(cursor).prev_block;
  }
  std::reverse(branch.begin(), branch.end());
  const int fork_height = blocks_.at(cursor).height;

  // Undo pruning guard: a reorg that would disconnect a block whose undo
  // was pruned (beyond the configured reorg depth) is impossible — treat
  // the branch as a side chain rather than corrupting the UTXO set.
  for (int h = height(); h > fork_height; --h) {
    if (blocks_.at(active_[static_cast<std::size_t>(h)]).undo_pruned) {
      if (telemetry::enabled()) {
        telemetry::registry()
            .counter("bcwan_chain_reorgs_refused_pruned_total",
                     "Reorganizations refused because the losing branch's "
                     "undo data was pruned")
            .add();
      }
      return AcceptBlockResult::kSideChain;
    }
  }

  // Disconnect the current chain down to the fork point, remembering what
  // we removed in case the branch turns out to be invalid.
  std::vector<std::pair<Hash256, Block>> removed;
  while (height() > fork_height) {
    const Hash256 old_tip = active_.back();
    removed.emplace_back(old_tip, disconnect_tip());
  }
  std::reverse(removed.begin(), removed.end());  // ascending height order

  // Expose the losing branch's transactions (dependency order) so the node
  // can resurrect them into its mempool; a coinbase-only winning branch
  // would otherwise silently destroy every exchange the old branch carried.
  // A second reorg within one accept appends the branch it drops.
  if (call_fork_ < 0) disconnected_txs_.clear();
  const std::size_t kept_txs = disconnected_txs_.size();
  for (const auto& [h, old_block] : removed) {
    for (std::size_t i = 1; i < old_block.txs.size(); ++i)
      disconnected_txs_.push_back(old_block.txs[i]);
  }

  // Connect the branch.
  if (telemetry::enabled()) {
    telemetry::registry()
        .counter("bcwan_chain_reorgs_total",
                 "Chain reorganizations attempted (incl. rolled-back ones)")
        .add();
  }
  for (std::size_t i = 0; i < branch.size(); ++i) {
    if (!connect_tip(decode(branch[i], blocks_.at(branch[i])), branch[i])) {
      // Invalid branch: roll back whatever connected and restore the old
      // chain (its blocks were valid before and validate again).
      while (height() > fork_height) disconnect_tip();
      for (const auto& [h, old_block] : removed) {
        const bool ok = connect_tip(old_block, h);
        (void)ok;  // previously-active blocks reconnect by construction
      }
      disconnected_txs_.resize(kept_txs);  // nothing was lost after all
      return AcceptBlockResult::kInvalid;
    }
  }
  call_fork_ = call_fork_ < 0 ? fork_height : std::min(call_fork_, fork_height);
  return AcceptBlockResult::kReorganized;
}

Block Blockchain::disconnect_tip() {
  const Hash256& hash = active_.back();
  StoredBlock& stored = blocks_.at(hash);
  Block block = decode(hash, stored);
  disconnect_block(decode_undo(undo_bytes(hash, stored)), utxo_);
  files_.assign(stored.undo, {});
  active_.pop_back();
  return block;
}

Hash256 Blockchain::state_hash() const {
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(height()));
  const Hash256 tip = tip_hash();
  w.bytes(util::ByteView(tip.data(), tip.size()));
  const Hash256 utxo_hash = utxo_.state_hash();
  w.bytes(util::ByteView(utxo_hash.data(), utxo_hash.size()));
  return crypto::sha256d(w.take());
}

namespace {
// v2 carries a per-block flags byte (bit 0: undo pruned).
constexpr std::uint32_t kStateVersion = 2;
constexpr std::uint8_t kBlockFlagUndoPruned = 0x01;
}  // namespace

util::Bytes Blockchain::serialize_state(int undo_keep_depth) const {
  util::Writer w;
  write_state(w, undo_keep_depth);
  return w.take();
}

void Blockchain::write_state(util::Writer& w, int undo_keep_depth,
                             std::vector<Relocation>* moved) const {
  // Heights at or below this lose their undo data in the dump.
  const int prune_below =
      undo_keep_depth >= 0 ? height() - undo_keep_depth : -1;
  w.u32(kStateVersion);
  w.varint(blocks_.size());
  for (const auto& [hash, stored] : blocks_) {
    const util::Bytes body = body_bytes(hash, stored);
    const PayloadRange body_at{w.var_bytes(body),
                               static_cast<std::uint32_t>(body.size())};
    if (moved != nullptr) moved->push_back({hash, false, body_at});
    w.u32(static_cast<std::uint32_t>(stored.height));
    const bool on_active =
        stored.height < static_cast<int>(active_.size()) &&
        active_[static_cast<std::size_t>(stored.height)] == hash;
    const bool prune =
        stored.undo_pruned || (on_active && stored.height > 0 &&
                               stored.height <= prune_below);
    w.u8(prune ? kBlockFlagUndoPruned : 0);
    const util::Bytes undo = prune ? empty_undo() : undo_bytes(hash, stored);
    const PayloadRange undo_at{w.var_bytes(undo),
                               static_cast<std::uint32_t>(undo.size())};
    if (moved != nullptr && !prune && !stored.undo.empty())
      moved->push_back({hash, true, undo_at});
    w.boundary();
  }
  w.varint(active_.size());
  for (const Hash256& h : active_)
    w.bytes(util::ByteView(h.data(), h.size()));
  utxo_.write_var(w);
}

std::optional<Blockchain> Blockchain::restore_state(const ChainParams& params,
                                                    util::ByteView data,
                                                    const PayloadFile& file) {
  try {
    util::Reader r(data);
    if (r.u32() != kStateVersion) return std::nullopt;
    Blockchain chain(params);
    const Hash256 genesis_hash = chain.active_.front();
    chain.blocks_.clear();
    chain.active_.clear();
    chain.files_ = BlockFiles{};
    const std::uint32_t file_id = chain.files_.open(file.path);
    if (file_id == 0) return std::nullopt;
    // Where a record read from the dump sits in `file`.
    const auto place = [&](util::ByteView bytes) {
      const PayloadRange range{
          static_cast<std::uint64_t>(bytes.data() - data.data()),
          static_cast<std::uint32_t>(bytes.size())};
      return file.extent(file_id, range);
    };

    const std::uint64_t block_count = r.varint();
    chain.blocks_.reserve(static_cast<std::size_t>(block_count));
    for (std::uint64_t i = 0; i < block_count; ++i) {
      const util::ByteView body = r.var_view();
      const auto block = Block::deserialize(body);
      if (!block) return std::nullopt;
      const int block_height = static_cast<int>(r.u32());
      const std::uint8_t flags = r.u8();
      const util::ByteView undo = r.var_view();
      util::Reader undo_r(undo);
      read_undo(undo_r);
      undo_r.expect_done();
      const Hash256 hash = block->hash();
      StoredBlock& stored = chain.blocks_[hash];
      stored.prev_block = block->header.prev_block;
      stored.height = block_height;
      stored.undo_pruned = (flags & kBlockFlagUndoPruned) != 0;
      chain.files_.assign(stored.body, place(body));
      if (!is_empty_undo(undo)) {
        stored.undo_crc = util::crc32c(undo);
        chain.files_.assign(stored.undo, place(undo));
      }
    }

    const std::uint64_t active_count = r.varint();
    chain.active_.reserve(static_cast<std::size_t>(active_count));
    for (std::uint64_t i = 0; i < active_count; ++i) {
      Hash256 h{};
      const util::Bytes raw = r.bytes(h.size());
      std::copy(raw.begin(), raw.end(), h.begin());
      chain.active_.push_back(h);
    }

    auto utxo = UtxoSet::deserialize(r.var_bytes());
    if (!utxo) return std::nullopt;
    chain.utxo_ = *std::move(utxo);
    r.expect_done();

    // Structural consistency: the active chain must start at this
    // federation's deterministic genesis and every entry must be a stored
    // block whose recorded height matches its position.
    if (chain.active_.empty() || chain.active_.front() != genesis_hash) {
      return std::nullopt;
    }
    for (std::size_t h = 0; h < chain.active_.size(); ++h) {
      const auto it = chain.blocks_.find(chain.active_[h]);
      if (it == chain.blocks_.end()) return std::nullopt;
      if (it->second.height != static_cast<int>(h)) return std::nullopt;
      if (h > 0 && it->second.prev_block != chain.active_[h - 1]) {
        return std::nullopt;
      }
      if (it->second.undo_pruned)
        chain.undo_pruned_floor_ = static_cast<int>(h) + 1;
    }
    return chain;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

int Blockchain::fork_height_of(const Hash256& tip) const {
  // Genesis is always active, so the walk terminates.
  auto on_active = [this](const Hash256& h) {
    const int bh = blocks_.at(h).height;
    return bh < static_cast<int>(active_.size()) &&
           active_[static_cast<std::size_t>(bh)] == h;
  };
  Hash256 cursor = tip;
  while (!on_active(cursor))
    cursor = blocks_.at(cursor).prev_block;
  return blocks_.at(cursor).height;
}

bool Blockchain::write_state_delta(util::Writer& w, std::uint64_t parent_seq,
                                   std::uint64_t next_seq,
                                   const Hash256& anchor_tip,
                                   int anchor_height,
                                   const std::vector<Hash256>& pending,
                                   std::vector<Relocation>* moved) {
  if (!utxo_.journal_enabled()) return false;
  const auto anchor_it = blocks_.find(anchor_tip);
  if (anchor_it == blocks_.end() ||
      anchor_it->second.height != anchor_height) {
    return false;
  }
  for (const Hash256& h : pending) {
    if (blocks_.find(h) == blocks_.end()) return false;
  }

  delta_wire::write_head(w, parent_seq, next_seq, pending.size());
  for (const Hash256& h : pending) {
    const StoredBlock& stored = blocks_.at(h);
    const PayloadRange body =
        delta_wire::write_new_block(w, body_bytes(h, stored), stored.height);
    if (moved != nullptr) moved->push_back({h, false, body});
    w.boundary();
  }
  const int fork_height = fork_height_of(anchor_tip);
  delta_wire::write_edit_head(
      w, static_cast<std::uint32_t>(anchor_height - fork_height),
      static_cast<std::size_t>(height() - fork_height));
  for (int h = fork_height + 1; h <= height(); ++h) {
    const Hash256& hash = active_[static_cast<std::size_t>(h)];
    const StoredBlock& stored = blocks_.at(hash);
    const PayloadRange undo =
        delta_wire::write_push(w, hash, undo_bytes(hash, stored));
    if (moved != nullptr && !stored.undo.empty())
      moved->push_back({hash, true, undo});
    w.boundary();
  }
  const UtxoJournal journal = utxo_.take_journal();
  delta_wire::write_tail(w, journal.spent, journal.added, height(),
                         tip_hash());
  return true;
}

std::optional<StateDelta> Blockchain::collect_state_delta(
    const Hash256& anchor_tip, int anchor_height,
    const std::vector<Hash256>& pending) {
  if (!utxo_.journal_enabled()) return std::nullopt;
  const auto anchor_it = blocks_.find(anchor_tip);
  if (anchor_it == blocks_.end() ||
      anchor_it->second.height != anchor_height) {
    return std::nullopt;
  }
  StateDelta d;
  d.new_blocks.reserve(pending.size());
  for (const Hash256& h : pending) {
    const auto it = blocks_.find(h);
    if (it == blocks_.end()) return std::nullopt;
    d.new_blocks.push_back({decode(h, it->second), it->second.height, {}});
  }

  const int fork_height = fork_height_of(anchor_tip);
  d.pop = static_cast<std::uint32_t>(anchor_height - fork_height);
  for (int h = fork_height + 1; h <= height(); ++h) {
    const Hash256& hash = active_[static_cast<std::size_t>(h)];
    d.push.push_back({hash, decode_undo(undo_bytes(hash, blocks_.at(hash))),
                      {}});
  }

  UtxoJournal journal = utxo_.take_journal();
  d.spent = std::move(journal.spent);
  d.added = std::move(journal.added);
  d.tip_height = height();
  d.tip_hash = tip_hash();
  return d;
}

bool Blockchain::apply_state_delta(const StateDelta& d,
                                   const PayloadFile& file) {
  // The delta's file opens on first use: an empty delta points nothing
  // into it.
  std::uint32_t file_id = 0;
  bool unreadable = false;
  const auto place = [&](const PayloadRange& range) {
    if (file_id == 0) file_id = files_.open(file.path);
    if (file_id == 0) {
      unreadable = true;
      return Extent{};
    }
    return file.extent(file_id, range);
  };
  // 1. Store the window's new blocks (parents arrive before children).
  for (const StateDelta::NewBlock& nb : d.new_blocks) {
    const Hash256 hash = nb.block.hash();
    if (blocks_.find(hash) != blocks_.end()) return false;
    const auto parent = blocks_.find(nb.block.header.prev_block);
    if (parent == blocks_.end() || parent->second.height + 1 != nb.height)
      return false;
    StoredBlock& stored = blocks_[hash];
    stored.prev_block = nb.block.header.prev_block;
    stored.height = nb.height;
    files_.assign(stored.body, place(nb.body_at));
  }

  // 2. Rewind the active chain to the window's fork point.
  if (d.pop >= active_.size()) return false;
  for (std::uint32_t i = 0; i < d.pop; ++i) {
    files_.assign(blocks_.at(active_.back()).undo, {});
    active_.pop_back();
  }

  // 3. Extend with the winning branch (undo data travels with it).
  for (const StateDelta::PushedBlock& p : d.push) {
    const auto it = blocks_.find(p.hash);
    if (it == blocks_.end()) return false;
    StoredBlock& stored = it->second;
    if (stored.prev_block != active_.back()) return false;
    if (stored.height != static_cast<int>(active_.size())) return false;
    const util::Bytes undo = encode_undo(p.undo);
    if (is_empty_undo(undo)) {
      files_.assign(stored.undo, {});
    } else {
      stored.undo_crc = util::crc32c(undo);
      files_.assign(stored.undo, place(p.undo_at));
    }
    stored.undo_pruned = false;
    active_.push_back(p.hash);
  }

  if (unreadable) return false;

  // 4. Net UTXO edit — spends before adds so a coin replaced within the
  // window (same outpoint re-created on the winning branch) lands cleanly.
  for (const OutPoint& op : d.spent) {
    if (!utxo_.spend(op)) return false;
  }
  for (const auto& [op, coin] : d.added) utxo_.add(op, coin);

  // 5. The delta must land exactly on the tip it was collected at.
  return height() == d.tip_height && tip_hash() == d.tip_hash;
}

std::size_t Blockchain::prune_undo(int keep_depth) {
  if (keep_depth < 0) return 0;
  std::size_t pruned = 0;
  const int limit = height() - keep_depth;
  for (int h = std::max(1, undo_pruned_floor_); h <= limit; ++h) {
    auto& stored = blocks_.at(active_[static_cast<std::size_t>(h)]);
    if (!stored.undo_pruned) {
      files_.assign(stored.undo, {});
      stored.undo_pruned = true;
      ++pruned;
    }
  }
  if (limit + 1 > undo_pruned_floor_) undo_pruned_floor_ = limit + 1;
  return pruned;
}

bool Blockchain::undo_pruned_at(int h) const {
  if (h < 0 || h >= static_cast<int>(active_.size())) return false;
  return blocks_.at(active_[static_cast<std::size_t>(h)]).undo_pruned;
}

void Blockchain::relocate(const std::vector<Relocation>& moved,
                          std::uint32_t file, std::uint64_t payload_offset) {
  const PayloadFile element{{}, payload_offset};
  for (const Relocation& r : moved) {
    const auto it = blocks_.find(r.block);
    if (it == blocks_.end()) continue;
    StoredBlock& stored = it->second;
    files_.assign(r.undo ? stored.undo : stored.body,
                  element.extent(file, r.range));
  }
}

void Blockchain::move_to_memory(std::uint32_t file) {
  if (files_.refs(file) == 0) return;
  for (auto& [hash, stored] : blocks_) {
    for (Extent* e : {&stored.body, &stored.undo}) {
      if (!e->empty() && e->file == file)
        files_.assign(*e, files_.keep(files_.read(*e)));
    }
  }
}

bool Blockchain::has_orphan(const Hash256& hash) const {
  return std::any_of(orphans_.begin(), orphans_.end(),
                     [&](const auto& orphan) { return orphan.first == hash; });
}

void Blockchain::add_orphan(const Hash256& hash, Block&& block) {
  if (has_orphan(hash)) return;
  orphans_.emplace_back(hash, std::move(block));
  if (orphans_.size() <= kMaxOrphanBlocks) return;
  orphans_.erase(orphans_.begin());
  ++orphans_evicted_;
  if (telemetry::enabled()) {
    telemetry::registry()
        .counter("bcwan_chain_orphans_evicted_total",
                 "Orphan blocks dropped, oldest first, at the orphan cap")
        .add();
  }
}

void Blockchain::try_connect_orphans(const Hash256& parent) {
  if (orphans_.empty()) return;
  // Children of `parent` leave the pool in arrival order; the rest stay.
  const auto first_child = std::stable_partition(
      orphans_.begin(), orphans_.end(), [&](const auto& orphan) {
        return orphan.second.header.prev_block != parent;
      });
  std::vector<std::pair<Hash256, Block>> children(
      std::make_move_iterator(first_child),
      std::make_move_iterator(orphans_.end()));
  orphans_.erase(first_child, orphans_.end());
  for (auto& [hash, block] : children)
    accept_internal(std::move(block), hash, {}, nullptr);
}

}  // namespace bcwan::chain
