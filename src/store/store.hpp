// Durable chainstate: block log + snapshots + crash recovery.
//
// ChainStore::open() is the single entry point: it loads the newest valid
// base snapshot, applies the incremental delta chain on top of it,
// truncates a torn log tail, replays the remaining records through the
// trusted Blockchain::replay_block() path and hands back a fully recovered
// chain. The owning node then wires the store in as the chain's block sink
// (attach) so every accepted block is logged before its orphan descendants
// connect.
//
// The chain keeps no block bodies or undo in memory: its records point into
// the files written here (chain/block_files.hpp). A block appended to the
// log points at its log record; an element write copies the records it
// carries and moves them to the new file before the log is rotated, so the
// newest element and the log hold every record a chain can read.
//
// Element model: the on-disk state is a chain of *elements* — a full base
// snapshot followed by delta snapshots, each covering every log record
// with seq below its own. Writing an element rotates the log. Every
// kCompactEvery deltas the next element is a fresh base that folds the
// chain (compaction), after which superseded deltas are pruned. A delta
// costs O(blocks changed since the previous element); only compaction pays
// the O(UTXO set) full-dump price.
//
// Recovery state machine (see DESIGN.md §11 and §16):
//
//   open dir ─→ load newest base ──bad──→ older base / genesis
//        │            └─→ apply delta chain (linked by parent seq);
//        │                a bad delta drops it and everything after
//        ├─→ scan log ──bad header / mid-file corruption──→ REFUSE
//        │        └──torn tail──→ truncate (durable) ─┐
//        └────────────────────────────────────────────┴─→ replay seq ≥
//             element seq ──any record fails──→ REFUSE
//                          └─→ OPEN (next append seq =
//                              max(last log seq + 1, element seq))
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "store/log.hpp"

namespace bcwan::store {

/// Deltas written between full-base compactions.
inline constexpr std::uint64_t kCompactEvery = 8;
/// Base snapshots retained after a new one is written.
inline constexpr std::size_t kKeepSnapshots = 2;

struct StoreOptions {
  std::string dir;
  /// Blocks between automatic snapshot elements (maybe_snapshot).
  std::uint64_t snapshot_interval = 16;
  /// fsync the log after every append. Durability for daemons; benches and
  /// bulk sims turn it off and rely on the torn-tail recovery path.
  bool fsync_each_append = true;
  /// Clear spent-coin undo data of active blocks buried deeper than this
  /// below the tip when an element is written; a restored chain refuses
  /// reorganizations past them. -1 keeps all undo data forever.
  int undo_prune_depth = -1;
};

struct RecoveryStats {
  bool snapshot_loaded = false;
  std::uint64_t snapshot_seq = 0;     // next_seq of the loaded base
  std::size_t snapshots_skipped = 0;  // corrupt/unreadable ones passed over
  std::size_t deltas_applied = 0;     // delta chain applied on the base
  std::size_t deltas_skipped = 0;     // corrupt/unchained deltas dropped
  std::size_t replayed_blocks = 0;
  std::uint64_t truncated_bytes = 0;  // torn tail sheared off the log
  std::uint64_t log_bytes = 0;        // log size after truncation
  double replay_seconds = 0.0;
  int tip_height = -1;
};

class ChainStore {
 public:
  /// Open-or-recover. nullptr (with `error` filled) only on unrecoverable
  /// states: mid-file log corruption, foreign file header, I/O failure, or
  /// a log record the chain itself refuses to replay.
  static std::unique_ptr<ChainStore> open(const chain::ChainParams& params,
                                          StoreOptions options,
                                          std::string* error = nullptr);

  /// The recovered chain, moved out exactly once. The caller must then
  /// re-attach the store with attach().
  chain::Blockchain take_chain();

  /// Install append_block as `chain`'s block sink. `chain` must be the one
  /// take_chain() returned: the placements it gets back name this store's
  /// log in that chain's files().
  void attach(chain::Blockchain& chain);

  const RecoveryStats& recovery() const noexcept { return recovery_; }
  const StoreOptions& options() const noexcept { return options_; }
  std::uint64_t next_seq() const noexcept { return next_seq_; }
  std::uint64_t log_bytes() const noexcept { return log_.size_bytes(); }
  std::string log_path() const { return log_.path(); }

  /// Wall-clock of the most recent full-base write (compaction), ms.
  double last_compaction_ms() const noexcept { return last_compaction_ms_; }
  /// On-disk size of the most recently written delta element.
  std::uint64_t last_delta_bytes() const noexcept { return last_delta_bytes_; }
  /// Deltas written since the newest base (0 right after a compaction).
  std::uint64_t deltas_since_base() const noexcept {
    return deltas_since_base_;
  }
  /// Log seq of the newest on-disk element (0 = none yet).
  std::uint64_t last_element_seq() const noexcept { return last_element_seq_; }

  /// Block-sink entry point: append one accepted block (undo present iff it
  /// connected directly at the tip) to the log. `body` and `undo` (the
  /// write_undo encoding) are logged as they are. Returns where they landed
  /// in the log, or std::nullopt when the append failed.
  std::optional<chain::BlockPlacement> append_block(const chain::Block& block,
                                                    util::ByteView body,
                                                    const util::Bytes* undo);

  /// Write an element if `snapshot_interval` blocks were appended since the
  /// last one: a delta while the chain since the last base is short, a
  /// compacting base otherwise. Returns true if an element was written.
  /// Non-const: delta collection consumes the chain's UTXO journal window
  /// and element writes may prune in-memory undo data.
  bool maybe_snapshot(chain::Blockchain& chain);

  /// Unconditionally write a full base snapshot (compaction): fold the
  /// delta chain, rotate the log, prune superseded bases and deltas.
  bool write_snapshot(chain::Blockchain& chain);

  /// Write one delta element on top of the current element chain. False
  /// (caller should fall back to write_snapshot) when no base exists yet,
  /// the anchor was invalidated, or the delta cannot be collected.
  bool write_delta(chain::Blockchain& chain);

  bool sync() { return log_.sync(); }

 private:
  ChainStore() = default;

  /// Re-arm the incremental machinery at the just-written element: fresh
  /// journal window, anchor at the current tip, empty pending list.
  void rearm_anchor(chain::Blockchain& chain);

  /// Point the records an element write copied at the published element
  /// (`payload_offset` past its header), prune undo to the configured
  /// depth, then rotate the log: nothing may still point into it.
  bool retire_log(chain::Blockchain& chain, const std::string& element_path,
                  std::uint64_t payload_offset,
                  const std::vector<chain::Relocation>& moved);

  StoreOptions options_;
  BlockLog log_;
  std::uint32_t log_file_ = 0;  // the log's id in the chain's files()
  std::optional<chain::Blockchain> chain_;  // until take_chain()
  RecoveryStats recovery_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t appends_since_snapshot_ = 0;

  // Incremental element chain state.
  std::uint64_t last_element_seq_ = 0;  // 0 = no element on disk yet
  std::uint64_t deltas_since_base_ = 0;
  bool have_anchor_ = false;
  chain::Hash256 anchor_tip_{};  // tip at the last element
  int anchor_height_ = -1;
  std::vector<chain::Hash256> pending_blocks_;  // stored since last element
  double last_compaction_ms_ = 0.0;
  std::uint64_t last_delta_bytes_ = 0;
};

/// Path of the block log inside a store directory (chaos hooks shear its
/// tail while the owning node is down).
std::string log_file_path(const std::string& dir);

}  // namespace bcwan::store
