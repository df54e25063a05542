// Append-only, CRC-checksummed block log.
//
// On-disk layout (all integers little-endian):
//
//   file header:  8-byte magic "BCWANLOG" | u32 version
//   record:       u32 record magic | u64 seq | u32 payload_len
//                 | u32 crc32c(seq || payload) | payload bytes
//
// Records carry strictly increasing sequence numbers so replay can skip
// everything a chainstate snapshot already covers — including the case
// where the snapshot is *newer* than the log tail (snapshot written, then
// crash before further appends).
//
// Tail policy: an incomplete or CRC-corrupt record at the END of the file
// is a torn write from a crash — Scan reports kTornTail and open()
// truncates it. A corrupt record with valid records AFTER it is mid-file
// corruption the log cannot have produced by crashing; Scan reports
// kCorrupt and open() refuses rather than silently dropping history.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace bcwan::store {

inline constexpr char kLogMagic[8] = {'B', 'C', 'W', 'A', 'N', 'L', 'O', 'G'};
inline constexpr std::uint32_t kLogVersion = 1;
inline constexpr std::uint32_t kRecordMagic = 0x314B4C42u;  // "BLK1"
inline constexpr std::size_t kFileHeaderBytes = 12;
inline constexpr std::size_t kRecordHeaderBytes = 20;
/// Upper bound on a single record's payload; anything larger is treated as
/// corruption (a length field hit by a bit flip would otherwise make the
/// scanner skip gigabytes).
inline constexpr std::uint32_t kMaxPayloadBytes = 32u << 20;

enum class ScanStatus {
  kOk,         // clean end of file
  kTornTail,   // torn/incomplete tail record; valid_bytes = truncation point
  kCorrupt,    // corrupt record followed by valid ones — refuse to open
  kBadHeader,  // missing/foreign file header or version mismatch
};

const char* scan_status_name(ScanStatus s);

/// A record's place in the scanned image: replay decodes views straight
/// out of the image instead of copying every payload.
struct RecordBounds {
  std::uint64_t seq = 0;
  std::uint64_t offset = 0;  // payload offset within the image
  std::uint32_t len = 0;
};

struct ScanResult {
  ScanStatus status = ScanStatus::kOk;
  util::Bytes image;  // raw file bytes (pre-truncation)
  std::vector<RecordBounds> records;
  /// Offset one past the last valid record (== file size when kOk).
  std::uint64_t valid_bytes = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t truncated_bytes() const { return file_bytes - valid_bytes; }
  util::ByteView payload(const RecordBounds& r) const {
    return util::ByteView(image).subspan(static_cast<std::size_t>(r.offset),
                                         r.len);
  }
};

/// Parse a log image in memory (kept as the result's `image`). Never
/// touches the filesystem — the unit tests drive every torn-tail offset
/// through this directly.
ScanResult scan_log(util::Bytes data);

class BlockLog {
 public:
  BlockLog() = default;
  ~BlockLog();
  BlockLog(const BlockLog&) = delete;
  BlockLog& operator=(const BlockLog&) = delete;
  BlockLog(BlockLog&& other) noexcept;
  BlockLog& operator=(BlockLog&& other) noexcept;

  /// Open (creating an empty log if absent or if the file holds only part
  /// of the header, a header write cut short by a crash), scan existing
  /// records into `scan`, and truncate a torn tail in place. Returns false —
  /// leaving the log closed — on kCorrupt, kBadHeader or I/O failure.
  bool open(const std::string& path, ScanResult& scan, std::string* error);

  bool is_open() const noexcept { return file_ != nullptr; }
  const std::string& path() const noexcept { return path_; }
  std::uint64_t size_bytes() const noexcept { return offset_; }

  /// Append one record. When `sync` is set the record is fsync'd before
  /// returning (crash durability; benches turn it off).
  bool append(std::uint64_t seq, util::ByteView payload, bool sync);

  /// fsync the log file.
  bool sync();

  /// Drop every record (the chainstate snapshot now covers them) and reset
  /// to an empty log with a fresh header.
  bool reset();

  void close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::uint64_t offset_ = 0;
};

/// Chaos/test hook: shear `bytes` off the end of the log file, emulating a
/// torn write that persisted only a prefix of the final record. Returns the
/// number of bytes actually removed.
std::uint64_t tear_log_tail(const std::string& path, std::uint64_t bytes);

/// Chaos/test hook: XOR one byte at `offset` (mid-file corruption).
bool flip_log_byte(const std::string& path, std::uint64_t offset);

}  // namespace bcwan::store
