#include "store/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>

#include "store/crc32c.hpp"
#include "util/serial.hpp"

namespace fs = std::filesystem;

namespace bcwan::store {
namespace {

constexpr std::size_t kSnapshotHeaderBytes = 8 + 4 + 8 + 4 + 4;

std::uint32_t snapshot_crc(std::uint64_t next_seq, util::ByteView payload) {
  util::Writer w;
  w.u64(next_seq);
  return crc32c_extend(crc32c(w.data()), payload);
}

std::string snapshot_name(std::uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snapshot-%020llu.snap",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool parse_snapshot_name(const std::string& name, std::uint64_t& seq) {
  if (name.size() < 14 || name.rfind("snapshot-", 0) != 0 ||
      name.substr(name.size() - 5) != ".snap") {
    return false;
  }
  const std::string digits = name.substr(9, name.size() - 14);
  if (digits.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  seq = v;
  return true;
}

bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

void set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

/// Payload bytes buffered in the encoder before they go to the file.
constexpr std::size_t kStreamChunk = 64 * 1024;

/// Write one element file: `prefix` (magic, version, seqs), then the
/// payload length and CRC, then the payload. The CRC covers the last
/// `crc_seq_bytes` of the prefix (the seqs) and the payload. The payload
/// streams into <final>.tmp through a draining Writer with the length and
/// CRC zeroed; both are patched in once the payload is complete, before the
/// fsync. Ordering contract: data is on disk BEFORE the rename publishes
/// the file, and the rename is on disk before the caller retires the log.
bool write_element(const std::string& dir, const fs::path& final_path,
                   util::ByteView prefix, std::size_t crc_seq_bytes,
                   const PayloadWriter& payload, std::uint64_t* file_bytes,
                   std::string* error) {
  const fs::path tmp_path = final_path.string() + ".tmp";
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(tmp_path.c_str(), "wb"), &std::fclose);
  if (f == nullptr) {
    set_error(error, "cannot create tmp: " + tmp_path.string());
    return false;
  }
  const std::uint8_t zeros[8] = {};
  bool ok = std::fwrite(prefix.data(), 1, prefix.size(), f.get()) ==
                prefix.size() &&
            std::fwrite(zeros, 1, sizeof(zeros), f.get()) == sizeof(zeros);
  std::uint32_t crc = crc32c(prefix.subspan(prefix.size() - crc_seq_bytes));
  std::uint64_t len = 0;
  util::Writer w;
  w.drain_to(
      [&](util::ByteView chunk) {
        crc = crc32c_extend(crc, chunk);
        len += chunk.size();
        ok = ok && std::fwrite(chunk.data(), 1, chunk.size(), f.get()) ==
                       chunk.size();
      },
      kStreamChunk);
  ok = payload(w) && ok;
  w.flush();
  util::Writer trailer;
  trailer.u32(static_cast<std::uint32_t>(len));
  trailer.u32(crc);
  ok = ok && len <= UINT32_MAX &&
       std::fseek(f.get(), static_cast<long>(prefix.size()), SEEK_SET) == 0 &&
       std::fwrite(trailer.data().data(), 1, trailer.data().size(), f.get()) ==
           trailer.data().size();
  ok = ok && std::fflush(f.get()) == 0 && ::fsync(::fileno(f.get())) == 0;
  ok = std::fclose(f.release()) == 0 && ok;
  std::error_code ec;
  if (!ok) {
    fs::remove(tmp_path, ec);
    set_error(error, "cannot write " + tmp_path.string());
    return false;
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec || !fsync_dir(dir)) {
    fs::remove(tmp_path, ec);
    set_error(error, "cannot publish " + final_path.string());
    return false;
  }
  *file_bytes = prefix.size() + sizeof(zeros) + len;
  return true;
}

}  // namespace

std::vector<SnapshotInfo> list_snapshots(const std::string& dir) {
  std::vector<SnapshotInfo> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::uint64_t seq = 0;
    const std::string name = entry.path().filename().string();
    if (!parse_snapshot_name(name, seq)) continue;
    SnapshotInfo info;
    info.seq = seq;
    info.path = entry.path().string();
    info.bytes = static_cast<std::uint64_t>(entry.file_size(ec));
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const SnapshotInfo& a, const SnapshotInfo& b) {
              return a.seq > b.seq;
            });
  return out;
}

bool write_snapshot_file(const std::string& dir, std::uint64_t next_seq,
                         const PayloadWriter& payload, SnapshotInfo* info,
                         std::string* error) {
  const fs::path final_path = fs::path(dir) / snapshot_name(next_seq);
  util::Writer prefix;
  prefix.bytes(util::ByteView(
      reinterpret_cast<const std::uint8_t*>(kSnapshotMagic),
      sizeof(kSnapshotMagic)));
  prefix.u32(kSnapshotVersion);
  prefix.u64(next_seq);
  std::uint64_t bytes = 0;
  if (!write_element(dir, final_path, prefix.data(), 8, payload, &bytes,
                     error)) {
    return false;
  }
  if (info != nullptr) {
    info->seq = next_seq;
    info->path = final_path.string();
    info->bytes = bytes;
  }
  return true;
}

std::optional<util::Bytes> load_snapshot_file(const std::string& path,
                                              std::uint64_t* next_seq) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < static_cast<long>(kSnapshotHeaderBytes)) {
    std::fclose(f);
    return std::nullopt;
  }
  util::Bytes data(static_cast<std::size_t>(size));
  const bool read_ok =
      std::fread(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  if (!read_ok) return std::nullopt;

  if (std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0)
    return std::nullopt;
  try {
    util::Reader r(util::ByteView(data).subspan(sizeof(kSnapshotMagic)));
    if (r.u32() != kSnapshotVersion) return std::nullopt;
    const std::uint64_t seq = r.u64();
    const std::uint32_t len = r.u32();
    const std::uint32_t crc = r.u32();
    if (len != r.remaining()) return std::nullopt;
    util::Bytes payload = r.bytes(len);
    r.expect_done();
    if (snapshot_crc(seq, payload) != crc) return std::nullopt;
    if (next_seq != nullptr) *next_seq = seq;
    return payload;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

void prune_snapshots(const std::string& dir, std::size_t keep) {
  const std::vector<SnapshotInfo> all = list_snapshots(dir);
  std::error_code ec;
  for (std::size_t i = keep; i < all.size(); ++i) {
    fs::remove(all[i].path, ec);
  }
}

namespace {

constexpr std::size_t kDeltaHeaderBytes = 8 + 4 + 8 + 8 + 4 + 4;

std::uint32_t delta_crc(std::uint64_t parent_seq, std::uint64_t next_seq,
                        util::ByteView payload) {
  util::Writer w;
  w.u64(parent_seq);
  w.u64(next_seq);
  return crc32c_extend(crc32c(w.data()), payload);
}

std::string delta_name(std::uint64_t parent_seq, std::uint64_t seq) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "delta-%020llu-%020llu.snap",
                static_cast<unsigned long long>(parent_seq),
                static_cast<unsigned long long>(seq));
  return buf;
}

bool parse_delta_name(const std::string& name, std::uint64_t& parent_seq,
                      std::uint64_t& seq) {
  // delta-<20 digits>-<20 digits>.snap
  constexpr std::size_t kLen = 6 + 20 + 1 + 20 + 5;
  if (name.size() != kLen || name.rfind("delta-", 0) != 0 ||
      name[26] != '-' || name.substr(name.size() - 5) != ".snap") {
    return false;
  }
  const auto digits = [&name](std::size_t from, std::uint64_t& out) {
    std::uint64_t v = 0;
    for (std::size_t i = from; i < from + 20; ++i) {
      const char c = name[i];
      if (c < '0' || c > '9') return false;
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = v;
    return true;
  };
  return digits(6, parent_seq) && digits(27, seq);
}

}  // namespace

std::vector<DeltaFileInfo> list_delta_files(const std::string& dir) {
  std::vector<DeltaFileInfo> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::uint64_t parent_seq = 0;
    std::uint64_t seq = 0;
    const std::string name = entry.path().filename().string();
    if (!parse_delta_name(name, parent_seq, seq)) continue;
    DeltaFileInfo info;
    info.parent_seq = parent_seq;
    info.seq = seq;
    info.path = entry.path().string();
    info.bytes = static_cast<std::uint64_t>(entry.file_size(ec));
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const DeltaFileInfo& a, const DeltaFileInfo& b) {
              return a.seq < b.seq;
            });
  return out;
}

bool write_delta_file(const std::string& dir, std::uint64_t parent_seq,
                      std::uint64_t next_seq, const PayloadWriter& payload,
                      DeltaFileInfo* info, std::string* error) {
  const fs::path final_path = fs::path(dir) / delta_name(parent_seq, next_seq);
  util::Writer prefix;
  prefix.bytes(util::ByteView(
      reinterpret_cast<const std::uint8_t*>(kDeltaMagic), sizeof(kDeltaMagic)));
  prefix.u32(kDeltaFileVersion);
  prefix.u64(parent_seq);
  prefix.u64(next_seq);
  std::uint64_t bytes = 0;
  if (!write_element(dir, final_path, prefix.data(), 16, payload, &bytes,
                     error)) {
    return false;
  }
  if (info != nullptr) {
    info->parent_seq = parent_seq;
    info->seq = next_seq;
    info->path = final_path.string();
    info->bytes = bytes;
  }
  return true;
}

std::optional<util::Bytes> load_delta_file(const std::string& path,
                                           std::uint64_t* parent_seq,
                                           std::uint64_t* next_seq) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < static_cast<long>(kDeltaHeaderBytes)) {
    std::fclose(f);
    return std::nullopt;
  }
  util::Bytes data(static_cast<std::size_t>(size));
  const bool read_ok =
      std::fread(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  if (!read_ok) return std::nullopt;

  if (std::memcmp(data.data(), kDeltaMagic, sizeof(kDeltaMagic)) != 0)
    return std::nullopt;
  try {
    util::Reader r(util::ByteView(data).subspan(sizeof(kDeltaMagic)));
    if (r.u32() != kDeltaFileVersion) return std::nullopt;
    const std::uint64_t parent = r.u64();
    const std::uint64_t seq = r.u64();
    const std::uint32_t len = r.u32();
    const std::uint32_t crc = r.u32();
    if (len != r.remaining()) return std::nullopt;
    util::Bytes payload = r.bytes(len);
    r.expect_done();
    if (delta_crc(parent, seq, payload) != crc) return std::nullopt;
    if (parent_seq != nullptr) *parent_seq = parent;
    if (next_seq != nullptr) *next_seq = seq;
    return payload;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

void prune_delta_files(const std::string& dir, std::uint64_t below_seq) {
  std::error_code ec;
  for (const DeltaFileInfo& d : list_delta_files(dir)) {
    if (d.seq <= below_seq) fs::remove(d.path, ec);
  }
}

}  // namespace bcwan::store
