// Chain manager: block storage, longest-chain selection, UTXO tracking and
// reorganisation. Every gateway daemon holds one of these; the directory
// and the fair-exchange watcher read through it.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chain/block.hpp"
#include "chain/block_files.hpp"
#include "chain/delta.hpp"
#include "chain/params.hpp"
#include "chain/utxo.hpp"
#include "chain/validation.hpp"

namespace bcwan::chain {

/// Deterministic genesis block for a federation (no PoW requirement).
Block make_genesis(const ChainParams& params);

enum class AcceptBlockResult {
  kConnected,      // extended the active chain
  kReorganized,    // became the new tip via reorg
  kSideChain,      // stored, not the best chain
  kOrphan,         // parent unknown; stored for later
  kDuplicate,
  kInvalid,
};

std::string accept_block_result_name(AcceptBlockResult r);

/// Orphan blocks (parent unknown) kept for later connection; the oldest is
/// evicted beyond this. A peer that needs an evicted one serves it again on
/// getblocks catch-up.
inline constexpr std::size_t kMaxOrphanBlocks = 64;

/// A logged tip extension's undo, for trusted replay: decoded to re-apply
/// the UTXO delta, and where its write_undo bytes sit in the log with their
/// CRC-32C, which the chain keeps as the stored record.
struct LoggedUndo {
  BlockUndo undo;
  Extent at;
  std::uint32_t crc = 0;
};

/// Where a block sink wrote a block's records, as extents in a file the
/// chain's BlockFiles has open (the store's block log). `undo` is empty
/// when the sink was given none.
struct BlockPlacement {
  Extent body;
  Extent undo;
};

/// A stored record an element write just copied into its payload: which
/// block, body or undo, and where the bytes sit in the payload.
struct Relocation {
  Hash256 block{};
  bool undo = false;
  PayloadRange range;
};

class Blockchain {
 public:
  explicit Blockchain(const ChainParams& params);

  const ChainParams& params() const noexcept { return params_; }

  /// Height of the tip (genesis = 0).
  int height() const noexcept { return static_cast<int>(active_.size()) - 1; }
  Hash256 tip_hash() const { return active_.back(); }
  const UtxoSet& utxo() const noexcept { return utxo_; }

  /// Validate and store; connects/reorganises as needed. Orphans are kept
  /// and connected automatically when their parent arrives. The result
  /// covers the orphan descendants the block released: kReorganized when
  /// any of them (or the block) reorganized the chain, with
  /// last_fork_height() the highest block the active chains before and
  /// after the call share; otherwise kConnected may have extended the
  /// chain by more than the block.
  AcceptBlockResult accept_block(const Block& block);

  /// Trusted store-recovery path: the same acceptance/reorg state machine
  /// as accept_block, but structural checks, PoS election and script
  /// execution are skipped — every replayed block passed full validation
  /// before it reached the CRC-protected log. A logged `undo` lets a plain
  /// tip extension skip validation entirely and re-apply the recorded UTXO
  /// delta. The block (with its logged `hash`) is consumed; `body` and the
  /// undo's extent point at the logged bytes, which the chain keeps as its
  /// stored records. The block sink never fires during replay.
  AcceptBlockResult replay_block(Block&& block, const Hash256& hash,
                                 const Extent& body, LoggedUndo* undo);

  /// Pre-size the block map and active chain before a bulk replay (the
  /// store counts records up front; rehashing mid-replay is pure waste).
  void reserve_for_replay(std::size_t blocks);

  /// Observer invoked whenever a block is newly stored (connected, reorg
  /// trigger or side-chain — not still-unparented orphans), before any
  /// orphan descendants are processed, so log order preserves
  /// parent-before-child. `body` is the block's serialization as the chain
  /// stores it (the store logs these bytes as they are). `undo` (the
  /// write_undo encoding, also as stored) is non-null exactly when the
  /// block connected directly at the tip; the store appends it to the
  /// block log so replay can skip validation for the common case. A sink
  /// that wrote the bytes to a file in files() returns where, and the
  /// chain drops its in-memory copies; std::nullopt keeps them.
  using BlockSink = std::function<std::optional<BlockPlacement>(
      const Block&, util::ByteView body, const util::Bytes* undo)>;
  void set_block_sink(BlockSink sink) { block_sink_ = std::move(sink); }

  /// Undo record of an active-chain block (empty once pruned); nullopt for
  /// side-chain or unknown blocks.
  std::optional<BlockUndo> undo_for(const Hash256& hash) const;

  /// Digest over (height, tip hash, UTXO set): two chainstates hash equal
  /// iff they agree on the active chain tip and every spendable coin. The
  /// crash-recovery gates compare this across restarts.
  Hash256 state_hash() const;

  /// Full chainstate dump for snapshots: every stored block with height
  /// and undo, the active chain, and the UTXO set. restore_state() needs
  /// no re-validation.
  ///
  /// `undo_keep_depth >= 0` prunes spent-coin undo records of active
  /// blocks buried deeper than that many blocks below the tip: their undo
  /// serializes empty with a pruned flag, and a chain restored from the
  /// dump refuses reorganizations that would have to disconnect past them
  /// (kSideChain instead of a reorg). -1 keeps everything.
  util::Bytes serialize_state(int undo_keep_depth = -1) const;
  /// serialize_state() appended to `w`, with a w.boundary() after every
  /// block and coin record: a draining Writer (util::Writer::drain_to)
  /// streams the dump to disk without a second copy of the chainstate.
  /// `moved` (optional) receives where every body and kept undo record
  /// sits in the payload, for relocate() once the file is published.
  void write_state(util::Writer& w, int undo_keep_depth = -1,
                   std::vector<Relocation>* moved = nullptr) const;

  /// Rebuild from a serialize_state() dump that sits on disk at `file`.
  /// std::nullopt if the stream is malformed or internally inconsistent
  /// (wrong genesis, dangling active hash, height mismatch), or `file`
  /// cannot be opened. No validation beyond structural consistency —
  /// snapshot integrity is the store's CRC's job. The restored chain reads
  /// its bodies and undo from `file`; `data` is not kept.
  static std::optional<Blockchain> restore_state(const ChainParams& params,
                                                 util::ByteView data,
                                                 const PayloadFile& file);

  // -- Incremental snapshots (the store's base + delta chain). --

  /// Net state change since `anchor_tip`/`anchor_height` (the tip at the
  /// previous snapshot element), encoded (encode_state_delta format) into
  /// `w` straight from the stored blocks, with a w.boundary() after every
  /// record. `pending` lists every block stored since the anchor, in
  /// storage order. Consumes the UTXO journal window — the caller must have
  /// called utxo_journal_begin() at the previous element. False, with
  /// nothing written and the journal window intact (the caller falls back
  /// to a full base), when the anchor or a pending block is unknown or
  /// journaling is off.
  /// `moved` (optional) receives where the new bodies and pushed undo
  /// records sit in the payload, as for write_state.
  bool write_state_delta(util::Writer& w, std::uint64_t parent_seq,
                         std::uint64_t next_seq, const Hash256& anchor_tip,
                         int anchor_height,
                         const std::vector<Hash256>& pending,
                         std::vector<Relocation>* moved = nullptr);

  /// The same delta as a StateDelta deep copy. Test oracle for
  /// write_state_delta: encode_state_delta of its result (with parent_seq
  /// and next_seq filled in) must equal the streamed bytes.
  std::optional<StateDelta> collect_state_delta(
      const Hash256& anchor_tip, int anchor_height,
      const std::vector<Hash256>& pending);

  /// Apply a delta on top of the exact state it was collected against.
  /// False on any structural inconsistency — the chain may then be
  /// half-mutated and must be discarded (the store reassembles from the
  /// base without the bad delta). `file` is where the decoded payload sits
  /// on disk: the delta's ranges locate its new bodies and pushed undo
  /// there, and the chain reads them from it.
  bool apply_state_delta(const StateDelta& delta, const PayloadFile& file);

  // -- Where stored records live (see block_files.hpp). --

  BlockFiles& files() noexcept { return files_; }
  const BlockFiles& files() const noexcept { return files_; }

  /// Point the records an element write copied (write_state /
  /// write_state_delta `moved`) at the published element: `file` is its id
  /// in files(), `payload_offset` where its payload starts.
  void relocate(const std::vector<Relocation>& moved, std::uint32_t file,
                std::uint64_t payload_offset);

  /// Read every record still pointing into `file` into memory, so the file
  /// can be truncated. A no-op when nothing points there.
  void move_to_memory(std::uint32_t file);

  /// Open a UTXO journal window so the next collect_state_delta() sees net
  /// coin changes (see UtxoSet::begin_journal).
  void utxo_journal_begin() { utxo_.begin_journal(); }

  /// Mark the undo of active blocks buried deeper than `keep_depth` below
  /// the tip as pruned: snapshots record it empty and reorgs may no longer
  /// disconnect them (the store keeps its files bounded). Monotone and
  /// incremental: each call only walks heights not already pruned.
  /// Returns the number of blocks newly pruned.
  std::size_t prune_undo(int keep_depth);

  /// True when the active block at `height` carries a pruned (absent)
  /// undo record — a reorg cannot disconnect past it.
  bool undo_pruned_at(int height) const;

  /// Fork height of the most recent accept_block/replay_block call that
  /// reported kReorganized: the highest block common to the active chains
  /// before and after that call. -1 until the first reorg. Chain-derived
  /// indexes (the gateway directory) unwind to this height instead of
  /// rebuilding from scratch.
  int last_fork_height() const noexcept { return last_fork_height_; }

  bool have_block(const Hash256& hash) const {
    return blocks_.find(hash) != blocks_.end();
  }
  /// Stored blocks are kept serialized; these read and decode on demand.
  /// Every body read is checked against the block's hash, every undo read
  /// against its CRC-32C; a mismatch throws std::runtime_error.
  std::optional<Block> get_block(const Hash256& hash) const;
  /// Block at an active-chain height.
  std::optional<Block> block_at(int height) const;
  /// Serialized block at an active-chain height, as stored (nullopt when
  /// out of range): getblocks serves these bytes without a decode.
  std::optional<util::Bytes> block_bytes_at(int height) const;

  /// Active-chain hashes from genesis to tip.
  const std::vector<Hash256>& active_chain() const noexcept { return active_; }

  /// The validation failure recorded for the last kInvalid result.
  const BlockValidationResult& last_failure() const noexcept {
    return last_failure_;
  }

  /// Non-coinbase transactions disconnected by the most recent reorganized
  /// accept, in dependency order (ascending block height, in-block order
  /// preserved; a second reorg within the call appends its losing branch).
  /// The caller (the node) re-accepts them into its mempool so an orphaned
  /// tx chain — e.g. an offer spending an orphaned announcement's change —
  /// is re-mined instead of vanishing. Moves the list out; empty until the
  /// next reorg.
  std::vector<Transaction> take_disconnected_txs() {
    return std::exchange(disconnected_txs_, {});
  }

  /// Orphan blocks held (at most kMaxOrphanBlocks).
  std::size_t orphan_count() const noexcept { return orphans_.size(); }
  /// True while `hash` is parked as an orphan (not evicted or connected).
  bool has_orphan(const Hash256& hash) const;
  /// Orphans dropped, oldest first, to stay within kMaxOrphanBlocks.
  std::uint64_t orphans_evicted() const noexcept { return orphans_evicted_; }

 private:
  // Bodies and undo stay serialized, and in files for a persistent chain
  // (~540 B/tx off the heap): the chain walks read only the parent hash,
  // everything else reads and decodes on demand, and the store, snapshots
  // and getblocks take the bytes as they are. Undo is the write_undo bytes
  // connect_tip produced.
  struct StoredBlock {
    Hash256 prev_block{};
    int height = 0;
    // The undo was pruned (serialize_state/prune_undo beyond reorg depth);
    // this block can never be disconnected again.
    bool undo_pruned = false;
    // CRC-32C of the undo record's bytes, checked on every read.
    std::uint32_t undo_crc = 0;
    Extent body;  // Block::serialize()
    // write_undo() encoding of the block's undo while it is on the active
    // chain and not pruned; empty otherwise (and for genesis).
    Extent undo;
  };

  /// The stored body, checked against `hash` (throws on mismatch).
  util::Bytes body_bytes(const Hash256& hash, const StoredBlock& stored) const;
  /// The stored undo's write_undo bytes (the empty record's encoding for an
  /// empty extent), checked against its CRC (throws on mismatch).
  util::Bytes undo_bytes(const Hash256& hash, const StoredBlock& stored) const;
  /// Read and decode a stored body.
  Block decode(const Hash256& hash, const StoredBlock& stored) const;
  /// Forget a stored block, releasing its records.
  void erase_stored(const Hash256& hash);
  /// Consumes the block; `hash` is its precomputed id and `body` where its
  /// serialization already lives (empty: serialize into memory here).
  /// `replay_undo` non-null takes the trusted tip-extension fast path.
  AcceptBlockResult accept_internal(Block&& block, const Hash256& hash,
                                    Extent body, LoggedUndo* replay_undo);
  /// accept_internal for one public call, reporting a reorganization made
  /// by the released orphan descendants as the call's result.
  AcceptBlockResult accept_reporting(Block&& block, const Hash256& hash,
                                     Extent body, LoggedUndo* replay_undo);
  /// Park a block whose parent is unknown (once), evicting the oldest
  /// beyond kMaxOrphanBlocks.
  void add_orphan(const Hash256& hash, Block&& block);
  /// Pop the active tip: roll its UTXO delta back. Returns the decoded
  /// block.
  Block disconnect_tip();
  /// `undo_hint` non-null takes the no-validation fast path (trusted log
  /// replay of a tip extension) and keeps its logged bytes as the record;
  /// otherwise connect_block's undo is encoded and kept in memory.
  bool connect_tip(const Block& block, const Hash256& hash,
                   LoggedUndo* undo_hint = nullptr);
  void try_connect_orphans(const Hash256& parent);
  /// Attempt to make `hash` (already stored, with known height) the tip.
  AcceptBlockResult maybe_reorg(const Hash256& hash);
  /// Height of the highest active block on `tip`'s ancestry (a stored hash).
  int fork_height_of(const Hash256& tip) const;

  ChainParams params_;
  BlockFiles files_;
  std::unordered_map<Hash256, StoredBlock, Hash256Hasher> blocks_;
  // Unconnectable blocks with their hashes, in arrival order (oldest
  // first).
  std::vector<std::pair<Hash256, Block>> orphans_;
  std::uint64_t orphans_evicted_ = 0;
  std::vector<Hash256> active_;
  UtxoSet utxo_;
  BlockValidationResult last_failure_;
  std::vector<Transaction> disconnected_txs_;
  BlockSink block_sink_;
  // Replay of the trusted block log: skip structural/PoS/script validation
  // and keep the sink quiet (the records being replayed are already on
  // disk). Set for the duration of replay_block().
  bool replay_mode_ = false;
  // Heights below this are already undo-pruned (prune_undo watermark).
  int undo_pruned_floor_ = 1;
  int last_fork_height_ = -1;
  // Lowest fork of the reorganizations made within the current public
  // accept call; -1 while there was none.
  int call_fork_ = -1;
};

}  // namespace bcwan::chain
