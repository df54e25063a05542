// Incremental chainstate deltas.
//
// A StateDelta is the net change between two snapshot elements: the blocks
// stored since the parent element, an active-chain edit (pop the losing
// tail, push the winning branch with its undo data) and the net UTXO diff
// from the UtxoSet journal. Applying a base snapshot plus its delta chain
// reproduces exactly the state a full snapshot would have captured — at
// O(blocks changed) serialization cost instead of O(UTXO set).
//
// Writing and application live on Blockchain (write_state_delta /
// apply_state_delta); this header owns the wire format.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/block.hpp"
#include "chain/block_files.hpp"
#include "chain/utxo.hpp"
#include "chain/validation.hpp"

namespace bcwan::chain {

struct StateDelta {
  /// Log seq of the parent snapshot element this delta extends, and the
  /// first seq NOT covered after applying it (mirrors snapshot next_seq).
  std::uint64_t parent_seq = 0;
  std::uint64_t next_seq = 0;

  /// Blocks stored since the parent element, in storage order (parents
  /// before children — the block-sink ordering guarantee).
  struct NewBlock {
    Block block;
    int height = 0;
    PayloadRange body_at;  // where decode_state_delta read the body
  };
  std::vector<NewBlock> new_blocks;

  /// Active-chain edit relative to the parent element's tip: remove `pop`
  /// hashes, then append `push` (each with the undo data it connected
  /// with, so the restored chain can still disconnect it later).
  std::uint32_t pop = 0;
  struct PushedBlock {
    Hash256 hash{};
    BlockUndo undo;
    PayloadRange undo_at;  // where decode_state_delta read the undo
  };
  std::vector<PushedBlock> push;

  /// Net UTXO edit over the window, canonically sorted by outpoint.
  std::vector<OutPoint> spent;
  std::vector<std::pair<OutPoint, Coin>> added;

  /// Post-apply consistency check.
  int tip_height = -1;
  Hash256 tip_hash{};
};

util::Bytes encode_state_delta(const StateDelta& delta);

/// The wire format piece by piece, in payload order: the head, one
/// new-block record per new block, the chain-edit head, one push record per
/// pushed block, then the tail. encode_state_delta is exactly these calls;
/// Blockchain::write_state_delta makes them straight from its stored blocks
/// so a delta streams to disk without being materialized. The record
/// writers return where the body or undo bytes landed in the payload.
namespace delta_wire {
void write_head(util::Writer& w, std::uint64_t parent_seq,
                std::uint64_t next_seq, std::size_t new_blocks);
PayloadRange write_new_block(util::Writer& w, util::ByteView body,
                             int height);
void write_edit_head(util::Writer& w, std::uint32_t pop, std::size_t pushes);
/// `undo` is the write_undo() encoding.
PayloadRange write_push(util::Writer& w, const Hash256& hash,
                        util::ByteView undo);
void write_tail(util::Writer& w, const std::vector<OutPoint>& spent,
                const std::vector<std::pair<OutPoint, Coin>>& added,
                int tip_height, const Hash256& tip_hash);
}  // namespace delta_wire

/// std::nullopt on malformed bytes (version mismatch, truncation, trailing
/// garbage). CRC integrity is the store framing's job. Records where each
/// new body and pushed undo sits in `data` (body_at / undo_at).
std::optional<StateDelta> decode_state_delta(util::ByteView data);

}  // namespace bcwan::chain
