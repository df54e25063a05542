#include "store/log.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "util/crc32c.hpp"
#include "util/serial.hpp"

namespace bcwan::store {
namespace {

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         static_cast<std::uint64_t>(load_u32(p + 4)) << 32;
}

std::uint32_t record_crc(std::uint64_t seq, util::ByteView payload) {
  util::Writer w;
  w.u64(seq);
  return util::crc32c_extend(util::crc32c(w.data()), payload);
}

/// Try to parse a record at `offset`; fills `rec` and `next` on success.
/// `prev_seq` enforces the strictly-increasing sequence invariant (pass
/// nullptr to skip, as the corruption probe below must).
bool parse_record(util::ByteView data, std::uint64_t offset,
                  const std::uint64_t* prev_seq, RecordBounds& rec,
                  std::uint64_t& next) {
  if (offset + kRecordHeaderBytes > data.size()) return false;
  const std::uint8_t* p = data.data() + offset;
  if (load_u32(p) != kRecordMagic) return false;
  const std::uint64_t seq = load_u64(p + 4);
  const std::uint32_t len = load_u32(p + 12);
  const std::uint32_t crc = load_u32(p + 16);
  if (len > kMaxPayloadBytes) return false;
  if (offset + kRecordHeaderBytes + len > data.size()) return false;
  if (prev_seq != nullptr && seq <= *prev_seq) return false;
  const util::ByteView payload = data.subspan(
      static_cast<std::size_t>(offset) + kRecordHeaderBytes, len);
  if (record_crc(seq, payload) != crc) return false;
  rec.seq = seq;
  rec.offset = offset + kRecordHeaderBytes;
  rec.len = len;
  next = offset + kRecordHeaderBytes + len;
  return true;
}

/// After a bad record: is there ANY complete, CRC-valid record later in the
/// file? If yes the damage is mid-file corruption, not a torn tail.
bool valid_record_after(util::ByteView data, std::uint64_t from) {
  for (std::uint64_t off = from;
       off + kRecordHeaderBytes <= data.size(); ++off) {
    RecordBounds rec;
    std::uint64_t next = 0;
    if (load_u32(data.data() + off) != kRecordMagic) continue;
    if (parse_record(data, off, nullptr, rec, next)) return true;
  }
  return false;
}

bool fsync_file(std::FILE* f) {
  if (std::fflush(f) != 0) return false;
  return ::fsync(::fileno(f)) == 0;
}

void set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

util::Bytes file_header() {
  util::Writer w;
  w.bytes(util::ByteView(reinterpret_cast<const std::uint8_t*>(kLogMagic),
                         sizeof(kLogMagic)));
  w.u32(kLogVersion);
  return w.take();
}

/// Empty, or a prefix of the file header: a log whose header write a crash
/// cut short (creation, or reset() after an element retired the records).
/// No record ever reached it.
bool header_prefix_only(util::ByteView data) {
  const util::Bytes header = file_header();
  return data.size() < header.size() &&
         std::equal(data.begin(), data.end(), header.begin());
}

/// Restart `f` as an empty log: truncate, write the file header, fsync.
bool write_fresh_log(std::FILE* f) {
  if (::ftruncate(::fileno(f), 0) != 0) return false;
  std::rewind(f);
  const util::Bytes header = file_header();
  return std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
         fsync_file(f);
}

}  // namespace

const char* scan_status_name(ScanStatus s) {
  switch (s) {
    case ScanStatus::kOk: return "ok";
    case ScanStatus::kTornTail: return "torn-tail";
    case ScanStatus::kCorrupt: return "corrupt";
    case ScanStatus::kBadHeader: return "bad-header";
  }
  return "unknown";
}

ScanResult scan_log(util::Bytes bytes) {
  ScanResult out;
  out.image = std::move(bytes);
  const util::ByteView data(out.image);
  out.file_bytes = data.size();
  if (data.size() < kFileHeaderBytes ||
      std::memcmp(data.data(), kLogMagic, sizeof(kLogMagic)) != 0 ||
      load_u32(data.data() + sizeof(kLogMagic)) != kLogVersion) {
    out.status = ScanStatus::kBadHeader;
    return out;
  }
  std::uint64_t offset = kFileHeaderBytes;
  out.valid_bytes = offset;
  std::uint64_t prev_seq = 0;
  bool have_prev = false;
  while (offset < data.size()) {
    RecordBounds rec;
    std::uint64_t next = 0;
    if (!parse_record(data, offset, have_prev ? &prev_seq : nullptr, rec,
                      next)) {
      out.status = valid_record_after(data, offset + 1)
                       ? ScanStatus::kCorrupt
                       : ScanStatus::kTornTail;
      return out;
    }
    prev_seq = rec.seq;
    have_prev = true;
    out.records.push_back(rec);
    offset = next;
    out.valid_bytes = offset;
  }
  out.status = ScanStatus::kOk;
  return out;
}

BlockLog::~BlockLog() { close(); }

BlockLog::BlockLog(BlockLog&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      path_(std::move(other.path_)),
      offset_(std::exchange(other.offset_, 0)) {}

BlockLog& BlockLog::operator=(BlockLog&& other) noexcept {
  if (this != &other) {
    close();
    file_ = std::exchange(other.file_, nullptr);
    path_ = std::move(other.path_);
    offset_ = std::exchange(other.offset_, 0);
  }
  return *this;
}

void BlockLog::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  offset_ = 0;
}

bool BlockLog::open(const std::string& path, ScanResult& scan,
                    std::string* error) {
  close();
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) f = std::fopen(path.c_str(), "w+b");
  if (f == nullptr) {
    set_error(error, "cannot open block log: " + path);
    return false;
  }

  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  util::Bytes data(size > 0 ? static_cast<std::size_t>(size) : 0);
  if (!data.empty() &&
      std::fread(data.data(), 1, data.size(), f) != data.size()) {
    std::fclose(f);
    set_error(error, "cannot read block log: " + path);
    return false;
  }

  if (header_prefix_only(data)) {
    if (!write_fresh_log(f)) {
      std::fclose(f);
      set_error(error, "cannot write block log header: " + path);
      return false;
    }
    scan = ScanResult{};
    scan.valid_bytes = kFileHeaderBytes;
    scan.file_bytes = kFileHeaderBytes;
    file_ = f;
    path_ = path;
    offset_ = kFileHeaderBytes;
    return true;
  }

  scan = scan_log(std::move(data));
  if (scan.status == ScanStatus::kBadHeader ||
      scan.status == ScanStatus::kCorrupt) {
    std::fclose(f);
    set_error(error, std::string("block log ") + scan_status_name(scan.status) +
                         ": " + path);
    return false;
  }
  if (scan.status == ScanStatus::kTornTail) {
    // Shear off the torn record and make the truncation durable before any
    // new append can land past it.
    if (::ftruncate(::fileno(f), static_cast<off_t>(scan.valid_bytes)) != 0 ||
        !fsync_file(f)) {
      std::fclose(f);
      set_error(error, "cannot truncate torn tail: " + path);
      return false;
    }
  }
  std::fseek(f, static_cast<long>(scan.valid_bytes), SEEK_SET);
  file_ = f;
  path_ = path;
  offset_ = scan.valid_bytes;
  return true;
}

bool BlockLog::append(std::uint64_t seq, util::ByteView payload, bool sync) {
  if (file_ == nullptr) return false;
  util::Writer w;
  w.u32(kRecordMagic);
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(record_crc(seq, payload));
  if (std::fwrite(w.data().data(), 1, w.data().size(), file_) !=
      w.data().size()) {
    return false;
  }
  if (!payload.empty() &&
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    return false;
  }
  if (sync) {
    if (!fsync_file(file_)) return false;
  } else if (std::fflush(file_) != 0) {
    return false;
  }
  offset_ += kRecordHeaderBytes + payload.size();
  return true;
}

bool BlockLog::sync() { return file_ != nullptr && fsync_file(file_); }

bool BlockLog::reset() {
  if (file_ == nullptr || !write_fresh_log(file_)) return false;
  offset_ = kFileHeaderBytes;
  return true;
}

std::uint64_t tear_log_tail(const std::string& path, std::uint64_t bytes) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return 0;
  const std::uint64_t cut =
      bytes < size ? bytes : static_cast<std::uint64_t>(size);
  std::filesystem::resize_file(path, size - cut, ec);
  return ec ? 0 : cut;
}

bool flip_log_byte(const std::string& path, std::uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return false;
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    std::fclose(f);
    return false;
  }
  int c = std::fgetc(f);
  if (c == EOF) {
    std::fclose(f);
    return false;
  }
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  const bool ok = std::fputc(c ^ 0xFF, f) != EOF && std::fflush(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace bcwan::store
