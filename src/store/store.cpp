#include "store/store.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "store/snapshot.hpp"
#include "telemetry/metrics.hpp"
#include "util/crc32c.hpp"
#include "util/serial.hpp"

namespace fs = std::filesystem;

namespace bcwan::store {
namespace {

constexpr const char* kLogFileName = "blocks.log";

/// Log record kind tag: a block with its hash and txids, the only kind.
constexpr std::uint8_t kBlockRecordKind = 2;

void set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

void note_recovery_telemetry(const RecoveryStats& stats) {
  if (!telemetry::enabled()) return;
  auto& reg = telemetry::registry();
  reg.counter("bcwan_store_replayed_blocks_total",
              "Blocks replayed from the block log during recovery")
      .add(stats.replayed_blocks);
  reg.counter("bcwan_store_truncated_bytes_total",
              "Torn-tail bytes sheared off the block log during recovery")
      .add(stats.truncated_bytes);
  reg.counter("bcwan_store_snapshots_skipped_total",
              "Corrupt or unreadable snapshots passed over during recovery")
      .add(stats.snapshots_skipped);
  reg.counter("bcwan_store_deltas_applied_total",
              "Delta snapshot elements applied during recovery")
      .add(stats.deltas_applied);
  reg.counter("bcwan_store_deltas_skipped_total",
              "Corrupt or unchained delta elements dropped during recovery")
      .add(stats.deltas_skipped);
  reg.counter("bcwan_store_recoveries_total",
              "Successful open-or-recover cycles")
      .add();
  reg.histogram("bcwan_store_replay_seconds",
                "Wall-clock time to replay the block log during recovery")
      .observe(stats.replay_seconds);
}


/// Serialize one log payload: kind | has_undo | hash | body | txids | undo.
/// `body` is block.serialize() and `undo` the write_undo() encoding, passed
/// in so the chain's stored bytes are logged without re-serializing.
/// `body_at` receives where the body sits in the payload.
util::Bytes encode_block_record(const chain::Block& block, util::ByteView body,
                                const util::Bytes* undo,
                                std::uint64_t* body_at) {
  // The record carries the block hash and every txid alongside the
  // serialized block: replay trusts the CRC-protected log exactly as it
  // already trusts it to skip validation, so recovery never re-runs
  // SHA-256d over blocks it wrote itself (the dominant cost of decode on
  // hardware with slow hashing).
  util::Writer w;
  w.u8(kBlockRecordKind);
  w.u8(undo != nullptr ? 1 : 0);
  const chain::Hash256 hash = block.hash();
  w.bytes(util::ByteView(hash.data(), hash.size()));
  *body_at = w.var_bytes(body);
  for (const chain::Transaction& tx : block.txs) {
    const chain::Hash256 txid = tx.txid();
    w.bytes(util::ByteView(txid.data(), txid.size()));
  }
  if (undo != nullptr) w.bytes(*undo);
  return w.take();
}

/// A parsed log payload. The block hash and txids are the ones the record
/// carries, not recomputed; the body and undo extents point at the logged
/// bytes in the log file (`file`, payload at `payload_offset`).
struct DecodedBlockRecord {
  chain::Block block;
  chain::Hash256 hash{};
  chain::Extent body;
  std::optional<chain::LoggedUndo> undo;
};

/// std::nullopt on malformed bytes (CRC passed but the content does not
/// decode — treated as unrecoverable corruption).
std::optional<DecodedBlockRecord> decode_block_record(
    util::ByteView payload, std::uint32_t file, std::uint64_t payload_offset) {
  const auto extent = [&](util::ByteView bytes) {
    return chain::Extent{
        payload_offset +
            static_cast<std::uint64_t>(bytes.data() - payload.data()),
        static_cast<std::uint32_t>(bytes.size()), file};
  };
  try {
    util::Reader r(payload);
    if (r.u8() != kBlockRecordKind) return std::nullopt;
    const bool has_undo = r.u8() != 0;
    DecodedBlockRecord out;
    std::memcpy(out.hash.data(), r.view(out.hash.size()).data(),
                out.hash.size());
    const util::ByteView body = r.var_view();
    auto block = chain::Block::deserialize(body, false);
    if (!block) return std::nullopt;
    out.block = *std::move(block);
    out.body = extent(body);
    for (const chain::Transaction& tx : out.block.txs) {
      chain::Hash256 txid{};
      std::memcpy(txid.data(), r.view(txid.size()).data(), txid.size());
      tx.seed_txid(txid);
    }
    if (has_undo) {
      // The undo runs to the end of the payload.
      const util::ByteView bytes = r.view(r.remaining());
      util::Reader undo_r(bytes);
      out.undo = chain::LoggedUndo{chain::read_undo(undo_r), extent(bytes),
                                   util::crc32c(bytes)};
      undo_r.expect_done();
    }
    r.expect_done();
    return out;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

}  // namespace

std::string log_file_path(const std::string& dir) {
  return (fs::path(dir) / kLogFileName).string();
}

std::unique_ptr<ChainStore> ChainStore::open(const chain::ChainParams& params,
                                             StoreOptions options,
                                             std::string* error) {
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    set_error(error, "cannot create store dir: " + options.dir);
    return nullptr;
  }

  auto store = std::unique_ptr<ChainStore>(new ChainStore());
  store->options_ = std::move(options);
  // A crash between creating an element's tmp file and its rename leaves
  // the tmp behind; nothing else would ever remove it.
  remove_stale_element_tmps(store->options_.dir);

  // 1. Newest valid base snapshot; corrupt ones fall back to older /
  // genesis. The winning payload is kept around: a delta-chain apply
  // failure below rebuilds from it. The chain reads its records from the
  // element files, not from these payload copies.
  std::optional<chain::Blockchain> chain;
  util::Bytes base_payload;
  chain::PayloadFile base_file;
  std::uint64_t element_seq = 0;  // covers log records with seq below this
  for (const SnapshotInfo& info : list_snapshots(store->options_.dir)) {
    std::uint64_t next_seq = 0;
    chain::PayloadFile file{info.path, 0};
    auto payload =
        load_snapshot_file(info.path, &next_seq, &file.payload_offset);
    if (!payload) {
      ++store->recovery_.snapshots_skipped;
      continue;
    }
    auto restored = chain::Blockchain::restore_state(params, *payload, file);
    if (!restored) {
      ++store->recovery_.snapshots_skipped;
      continue;
    }
    chain = std::move(restored);
    base_payload = *std::move(payload);
    base_file = file;
    element_seq = next_seq;
    store->recovery_.snapshot_loaded = true;
    store->recovery_.snapshot_seq = next_seq;
    if (telemetry::enabled()) {
      telemetry::registry()
          .gauge("bcwan_store_snapshot_bytes",
                 "Size of the most recently loaded or written snapshot")
          .set(static_cast<double>(info.bytes));
    }
    break;
  }
  if (!chain) chain.emplace(params);

  // 2. Delta chain on top of the base, linked by parent seq. Any broken
  // link (missing/corrupt file, decode failure, structurally inconsistent
  // apply) drops that delta and everything after it — the log tail and the
  // next compaction cover the difference.
  if (store->recovery_.snapshot_loaded) {
    const std::vector<DeltaFileInfo> deltas =
        list_delta_files(store->options_.dir);
    // Good prefix, for reassembly: each delta with its file.
    std::vector<std::pair<chain::StateDelta, chain::PayloadFile>> applied;
    for (const DeltaFileInfo& d : deltas) {
      if (d.seq <= element_seq) continue;  // already folded into the base
      if (d.parent_seq != element_seq) {
        ++store->recovery_.deltas_skipped;
        continue;
      }
      std::uint64_t parent_seq = 0;
      std::uint64_t next_seq = 0;
      chain::PayloadFile file{d.path, 0};
      const auto payload = load_delta_file(d.path, &parent_seq, &next_seq,
                                           &file.payload_offset);
      std::optional<chain::StateDelta> delta;
      if (payload && parent_seq == element_seq && next_seq == d.seq) {
        delta = chain::decode_state_delta(*payload);
      }
      if (!delta || !chain->apply_state_delta(*delta, file)) {
        // apply_state_delta may leave the chain half-mutated; rebuild the
        // base plus the prefix that already applied cleanly.
        if (delta) {
          chain = chain::Blockchain::restore_state(params, base_payload,
                                                   base_file);
          for (const auto& [good, good_file] : applied) {
            if (chain && !chain->apply_state_delta(good, good_file))
              chain.reset();
          }
          if (!chain) {  // cannot happen for a payload that restored before
            chain.emplace(params);
            element_seq = 0;
            store->recovery_.snapshot_loaded = false;
            store->recovery_.deltas_applied = 0;
          }
        }
        ++store->recovery_.deltas_skipped;
        continue;  // later deltas cannot chain from element_seq any more
      }
      element_seq = d.seq;
      ++store->recovery_.deltas_applied;
      applied.emplace_back(std::move(*delta), file);
    }
  }
  store->last_element_seq_ = element_seq;
  store->deltas_since_base_ = store->recovery_.deltas_applied;

  // 3. Arm the incremental machinery at the assembled state: the journal
  // window and anchor start HERE, before log replay, so the replayed tail
  // is part of the next delta.
  store->rearm_anchor(*chain);

  // Element writes prune undo at the configured depth, but delta payloads
  // carry no pruning watermark — restoring base + deltas would silently
  // resurrect reorg-ability past the policy. Re-prune at the element tip
  // BEFORE replay so the log tail (which may hold a rival branch) faces
  // the same reorg refusal the pre-crash chain enforced.
  if (store->options_.undo_prune_depth >= 0) {
    chain->prune_undo(store->options_.undo_prune_depth);
  }

  // 4. The log: refuse mid-file corruption, truncate a torn tail. The scan
  // keeps payloads in the owned file image; replay decodes views out of it.
  ScanResult scan;
  const std::string log_path =
      (fs::path(store->options_.dir) / kLogFileName).string();
  if (!store->log_.open(log_path, scan, error)) return nullptr;
  store->recovery_.truncated_bytes = scan.truncated_bytes();
  store->recovery_.log_bytes = scan.valid_bytes;
  store->log_file_ = chain->files().open(log_path, /*pinned=*/true);
  if (store->log_file_ == 0) {
    set_error(error, "cannot open block log for reading: " + log_path);
    return nullptr;
  }

  // 5. Replay everything the element chain does not already cover, one
  // record at a time in log order. A first pass over the record headers
  // sizes the chain's maps so the replay never rehashes.
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t last_seq = 0;
  std::size_t pending_records = 0;
  for (const RecordBounds& rb : scan.records) {
    last_seq = rb.seq;
    if (rb.seq < element_seq) continue;
    ++pending_records;
  }
  chain->reserve_for_replay(pending_records);

  for (const RecordBounds& rb : scan.records) {
    if (rb.seq < element_seq) continue;
    std::optional<DecodedBlockRecord> rec =
        decode_block_record(scan.payload(rb), store->log_file_, rb.offset);
    if (!rec) {
      set_error(error, "log record " + std::to_string(rb.seq) +
                           " passed CRC but does not decode");
      return nullptr;
    }
    const chain::AcceptBlockResult result = chain->replay_block(
        std::move(rec->block), rec->hash, rec->body,
        rec->undo ? &*rec->undo : nullptr);
    if (result == chain::AcceptBlockResult::kOrphan ||
        result == chain::AcceptBlockResult::kInvalid) {
      set_error(error, "log record " + std::to_string(rb.seq) +
                           " failed replay (" +
                           chain::accept_block_result_name(result) + ")");
      return nullptr;
    }
    if (result != chain::AcceptBlockResult::kDuplicate) {
      store->pending_blocks_.push_back(rec->hash);
    }
    ++store->recovery_.replayed_blocks;
  }
  store->recovery_.replay_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  store->recovery_.tip_height = chain->height();

  // An element newer than the log tail (crash between element publish and
  // the next append) must still win the next-seq race.
  store->next_seq_ =
      std::max(last_seq + 1, std::max<std::uint64_t>(element_seq, 1));
  store->chain_ = std::move(chain);

  note_recovery_telemetry(store->recovery_);
  if (telemetry::enabled()) {
    auto& reg = telemetry::registry();
    reg.gauge("bcwan_store_log_bytes", "Current block log size")
        .set(static_cast<double>(store->log_.size_bytes()));
    reg.gauge("bcwan_store_snapshot_age_blocks",
              "Blocks appended since the last snapshot element")
        .set(0.0);
  }
  return store;
}

chain::Blockchain ChainStore::take_chain() {
  chain::Blockchain out = std::move(*chain_);
  chain_.reset();
  return out;
}

void ChainStore::attach(chain::Blockchain& chain) {
  chain.set_block_sink([this](const chain::Block& block, util::ByteView body,
                              const util::Bytes* undo) {
    return append_block(block, body, undo);
  });
}

std::optional<chain::BlockPlacement> ChainStore::append_block(
    const chain::Block& block, util::ByteView body, const util::Bytes* undo) {
  std::uint64_t body_at = 0;
  const util::Bytes payload = encode_block_record(block, body, undo, &body_at);
  const std::uint64_t payload_offset = log_.size_bytes() + kRecordHeaderBytes;
  if (!log_.append(next_seq_, payload, options_.fsync_each_append))
    return std::nullopt;
  chain::BlockPlacement placed;
  placed.body = chain::Extent{payload_offset + body_at,
                              static_cast<std::uint32_t>(body.size()),
                              log_file_};
  if (undo != nullptr) {
    placed.undo = chain::Extent{payload_offset + payload.size() - undo->size(),
                                static_cast<std::uint32_t>(undo->size()),
                                log_file_};
  }
  ++next_seq_;
  ++appends_since_snapshot_;
  pending_blocks_.push_back(block.hash());
  if (telemetry::enabled()) {
    auto& reg = telemetry::registry();
    reg.counter("bcwan_store_appended_blocks_total",
                "Blocks appended to the block log")
        .add();
    reg.gauge("bcwan_store_log_bytes", "Current block log size")
        .set(static_cast<double>(log_.size_bytes()));
    reg.gauge("bcwan_store_snapshot_age_blocks",
              "Blocks appended since the last snapshot element")
        .set(static_cast<double>(appends_since_snapshot_));
  }
  return placed;
}

bool ChainStore::retire_log(chain::Blockchain& chain,
                            const std::string& element_path,
                            std::uint64_t payload_offset,
                            const std::vector<chain::Relocation>& moved) {
  if (!moved.empty()) {
    const std::uint32_t file = chain.files().open(element_path);
    // Unreadable right after it was written: keep the records where they
    // are; move_to_memory below saves the ones in the log.
    if (file != 0) chain.relocate(moved, file, payload_offset);
  }
  if (options_.undo_prune_depth >= 0)
    chain.prune_undo(options_.undo_prune_depth);
  // Every logged record is in the element now; this only finds something
  // when the element could not be opened for reading.
  chain.move_to_memory(log_file_);
  return log_.reset();
}

void ChainStore::rearm_anchor(chain::Blockchain& chain) {
  chain.utxo_journal_begin();
  anchor_tip_ = chain.tip_hash();
  anchor_height_ = chain.height();
  have_anchor_ = true;
  pending_blocks_.clear();
}

bool ChainStore::maybe_snapshot(chain::Blockchain& chain) {
  if (options_.snapshot_interval == 0 ||
      appends_since_snapshot_ < options_.snapshot_interval) {
    return false;
  }
  if (last_element_seq_ > 0 && deltas_since_base_ < kCompactEvery) {
    if (write_delta(chain)) return true;
    // Delta path failed — fall through to a compacting full base.
  }
  return write_snapshot(chain);
}

bool ChainStore::write_delta(chain::Blockchain& chain) {
  if (!have_anchor_ || last_element_seq_ == 0) return false;
  // The delta streams from the chain's stored blocks into the file.
  bool collected = false;
  DeltaFileInfo info;
  std::vector<chain::Relocation> moved;
  const bool written = write_delta_file(
      options_.dir, last_element_seq_, next_seq_,
      [&](util::Writer& w) {
        collected =
            chain.write_state_delta(w, last_element_seq_, next_seq_,
                                    anchor_tip_, anchor_height_,
                                    pending_blocks_, &moved);
        return collected;
      },
      &info, nullptr);
  // A delta that cannot be collected leaves the journal window intact;
  // anything failing AFTER the window was consumed must poison the anchor
  // so the next element is forced to be a full base (a second delta
  // against a consumed window would silently drop UTXO changes).
  if (!collected) return false;
  if (!written || !retire_log(chain, info.path, info.payload_offset, moved)) {
    have_anchor_ = false;
    return false;
  }
  last_delta_bytes_ = info.bytes;
  last_element_seq_ = next_seq_;
  ++deltas_since_base_;
  appends_since_snapshot_ = 0;
  rearm_anchor(chain);
  if (telemetry::enabled()) {
    auto& reg = telemetry::registry();
    reg.counter("bcwan_store_deltas_written_total",
                "Delta snapshot elements written")
        .add();
    reg.gauge("bcwan_store_delta_bytes",
              "Size of the most recently written delta element")
        .set(static_cast<double>(info.bytes));
    reg.gauge("bcwan_store_snapshot_age_blocks",
              "Blocks appended since the last snapshot element")
        .set(0.0);
    reg.gauge("bcwan_store_log_bytes", "Current block log size")
        .set(static_cast<double>(log_.size_bytes()));
  }
  return true;
}

bool ChainStore::write_snapshot(chain::Blockchain& chain) {
  const auto t0 = std::chrono::steady_clock::now();
  SnapshotInfo info;
  std::vector<chain::Relocation> moved;
  const bool written = write_snapshot_file(
      options_.dir, next_seq_,
      [&](util::Writer& w) {
        chain.write_state(w, options_.undo_prune_depth, &moved);
        return true;
      },
      &info, nullptr);
  if (!written) return false;
  // The snapshot is durable (fsync'd file + dir), so every logged record is
  // now redundant — rotate the log rather than letting it grow forever.
  // Every record moves to the new base, so the older elements close before
  // they are pruned.
  if (!retire_log(chain, info.path, info.payload_offset, moved))
    return false;
  prune_snapshots(options_.dir, kKeepSnapshots);
  // Deltas at or below the oldest surviving base are folded into it; the
  // ones above it still let an older base roll forward if this one rots.
  const std::vector<SnapshotInfo> kept = list_snapshots(options_.dir);
  if (!kept.empty()) prune_delta_files(options_.dir, kept.back().seq);
  last_compaction_ms_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() *
      1e3;
  appends_since_snapshot_ = 0;
  deltas_since_base_ = 0;
  last_element_seq_ = next_seq_;
  rearm_anchor(chain);
  if (telemetry::enabled()) {
    auto& reg = telemetry::registry();
    reg.counter("bcwan_store_snapshots_written_total",
                "Chainstate snapshots written")
        .add();
    reg.gauge("bcwan_store_snapshot_bytes",
              "Size of the most recently loaded or written snapshot")
        .set(static_cast<double>(info.bytes));
    reg.histogram("bcwan_store_compaction_seconds",
                  "Wall-clock time of one full-base compaction")
        .observe(last_compaction_ms_ / 1e3);
    reg.gauge("bcwan_store_snapshot_age_blocks",
              "Blocks appended since the last snapshot element")
        .set(0.0);
    reg.gauge("bcwan_store_log_bytes", "Current block log size")
        .set(static_cast<double>(log_.size_bytes()));
  }
  return true;
}

}  // namespace bcwan::store
