// Atomic chainstate snapshots.
//
// A snapshot is a full Blockchain::serialize_state() dump plus the log
// sequence number it covers (`next_seq`): replay skips every log record
// with seq < next_seq. Files are named snapshot-<seq>.snap and written
// with the tmp + fflush + fsync + rename + fsync(dir) dance so a crash at
// any instant leaves either the old set of snapshots or the old set plus
// one complete new file — never a half-written one under the final name.
// The payload streams into the tmp file in 64 KiB pieces; its length and
// CRC are patched into the header before the fsync.
//
// On-disk layout: 8-byte magic "BCWANSNP" | u32 version | u64 next_seq
//                 | u32 payload_len | u32 crc32c(next_seq || payload)
//                 | payload (serialize_state bytes)
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/serial.hpp"

namespace bcwan::store {

inline constexpr char kSnapshotMagic[8] = {'B', 'C', 'W', 'A',
                                           'N', 'S', 'N', 'P'};
inline constexpr std::uint32_t kSnapshotVersion = 1;

struct SnapshotInfo {
  std::uint64_t seq = 0;  // next_seq recorded in the file (from the name)
  std::string path;
  std::uint64_t bytes = 0;
  std::uint64_t payload_offset = 0;  // where the payload starts; set on write
};

/// Snapshot files in `dir`, newest (highest seq) first.
std::vector<SnapshotInfo> list_snapshots(const std::string& dir);

/// Produces an element payload by appending it to a Writer that drains to
/// the file being written (call w.boundary() between records); false
/// abandons the file.
using PayloadWriter = std::function<bool(util::Writer& w)>;

/// Atomically write a snapshot covering log records seq < `next_seq`. The
/// payload streams to disk as it is produced, so a large chainstate never
/// sits in memory twice.
bool write_snapshot_file(const std::string& dir, std::uint64_t next_seq,
                         const PayloadWriter& state, SnapshotInfo* info,
                         std::string* error);

/// Load + CRC-verify one snapshot file. std::nullopt if unreadable, torn
/// or corrupt (the caller falls back to an older snapshot or full replay).
/// `payload_offset` (optional) receives where the payload sits in the file.
std::optional<util::Bytes> load_snapshot_file(
    const std::string& path, std::uint64_t* next_seq,
    std::uint64_t* payload_offset = nullptr);

/// Delete all snapshots except the newest `keep` (bounds disk usage).
void prune_snapshots(const std::string& dir, std::size_t keep);

// ---------------------------------------------------------------------------
// Delta snapshots.
//
// An incremental snapshot records only what changed since its parent element
// (the previous base snapshot or delta): the blocks appended, the reorg
// pops/pushes, and the net UTXO diff. Files are named
// delta-<parent_seq>-<seq>.snap and written with the same atomic dance as
// base snapshots. Recovery loads the newest base, then applies the delta
// chain whose parent_seq links match, then replays the log tail.
//
// On-disk layout: 8-byte magic "BCWANDLT" | u32 version | u64 parent_seq
//                 | u64 next_seq | u32 payload_len
//                 | u32 crc32c(parent_seq || next_seq || payload)
//                 | payload (encode_state_delta bytes)
// ---------------------------------------------------------------------------

inline constexpr char kDeltaMagic[8] = {'B', 'C', 'W', 'A', 'N', 'D', 'L', 'T'};
inline constexpr std::uint32_t kDeltaFileVersion = 1;

struct DeltaFileInfo {
  std::uint64_t parent_seq = 0;  // element this delta applies on top of
  std::uint64_t seq = 0;         // next_seq once this delta is applied
  std::string path;
  std::uint64_t bytes = 0;
  std::uint64_t payload_offset = 0;  // where the payload starts; set on write
};

/// Delta files in `dir`, oldest (lowest seq) first — application order.
std::vector<DeltaFileInfo> list_delta_files(const std::string& dir);

/// Atomically write a delta on top of the element covering `parent_seq`,
/// streamed like write_snapshot_file.
bool write_delta_file(const std::string& dir, std::uint64_t parent_seq,
                      std::uint64_t next_seq, const PayloadWriter& payload,
                      DeltaFileInfo* info, std::string* error);

/// Load + CRC-verify one delta file. std::nullopt if unreadable, torn or
/// corrupt (the caller falls back to the base snapshot + log replay).
/// `payload_offset` (optional) receives where the payload sits in the file.
std::optional<util::Bytes> load_delta_file(
    const std::string& path, std::uint64_t* parent_seq,
    std::uint64_t* next_seq, std::uint64_t* payload_offset = nullptr);

/// Delete delta files whose seq is <= `below_seq` (folded into a base).
void prune_delta_files(const std::string& dir, std::uint64_t below_seq);

/// Delete the <element>.tmp files a crash between creating one and its
/// rename left behind; returns how many went.
std::size_t remove_stale_element_tmps(const std::string& dir);

}  // namespace bcwan::store
