#include "store/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <span>
#include <string_view>
#include <system_error>

#include "util/crc32c.hpp"
#include "util/serial.hpp"

namespace fs = std::filesystem;

namespace bcwan::store {
namespace {

std::string snapshot_name(std::uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snapshot-%020llu.snap",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string delta_name(std::uint64_t parent_seq, std::uint64_t seq) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "delta-%020llu-%020llu.snap",
                static_cast<unsigned long long>(parent_seq),
                static_cast<unsigned long long>(seq));
  return buf;
}

/// Non-empty all-digit decimal string.
bool parse_digits(std::string_view digits, std::uint64_t& out) {
  if (digits.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

bool parse_snapshot_name(std::string_view name, SnapshotInfo& info) {
  if (name.size() < 14 || name.substr(0, 9) != "snapshot-" ||
      name.substr(name.size() - 5) != ".snap") {
    return false;
  }
  return parse_digits(name.substr(9, name.size() - 14), info.seq);
}

bool parse_delta_name(std::string_view name, DeltaFileInfo& info) {
  // delta-<20 digits>-<20 digits>.snap
  constexpr std::size_t kLen = 6 + 20 + 1 + 20 + 5;
  if (name.size() != kLen || name.substr(0, 6) != "delta-" ||
      name[26] != '-' || name.substr(name.size() - 5) != ".snap") {
    return false;
  }
  return parse_digits(name.substr(6, 20), info.parent_seq) &&
         parse_digits(name.substr(27, 20), info.seq);
}

/// Element files in `dir` whose name `parse` accepts (it fills the seqs),
/// with path and size filled in, in `order`.
template <typename Info, typename Parse, typename Order>
std::vector<Info> list_elements(const std::string& dir, Parse parse,
                                Order order) {
  std::vector<Info> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    Info info;
    if (!parse(entry.path().filename().string(), info)) continue;
    info.path = entry.path().string();
    info.bytes = static_cast<std::uint64_t>(entry.file_size(ec));
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(), order);
  return out;
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

/// Every element header starts with an 8-byte magic and a u32 version; the
/// seqs follow.
constexpr std::size_t kElementSeqsOffset = 8 + 4;

/// Magic, version and the seqs an element header carries before its
/// payload length and CRC.
util::Bytes element_prefix(const char (&magic)[8], std::uint32_t version,
                           std::initializer_list<std::uint64_t> seqs) {
  util::Writer w;
  w.bytes(util::ByteView(reinterpret_cast<const std::uint8_t*>(magic),
                         sizeof(magic)));
  w.u32(version);
  for (const std::uint64_t seq : seqs) w.u64(seq);
  return w.take();
}

/// Write one element file: `prefix` (magic, version, seqs), then the
/// payload length and CRC, then the payload. The CRC covers the seqs and
/// the payload. The payload streams into <final>.tmp through a draining
/// Writer with the length and CRC zeroed; both are patched in once the
/// payload is complete, before the fsync. Ordering contract: data is on
/// disk BEFORE the rename publishes the file, and the rename is on disk
/// before the caller retires the log. Reports the file's size and where
/// its payload starts.
bool write_element(const std::string& dir, const fs::path& final_path,
                   util::ByteView prefix, const PayloadWriter& payload,
                   std::uint64_t* file_bytes, std::uint64_t* payload_offset,
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
  std::uint32_t crc = util::crc32c(prefix.subspan(kElementSeqsOffset));
  std::uint64_t len = 0;
  util::Writer w;
  w.drain_to(
      [&](util::ByteView chunk) {
        crc = util::crc32c_extend(crc, chunk);
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
  *payload_offset = prefix.size() + sizeof(zeros);
  *file_bytes = *payload_offset + len;
  return true;
}

/// Read + CRC-verify one element file written by write_element with
/// `magic`, `version` and seqs.size() seqs, which are returned in `seqs`.
/// `payload_offset` (optional) receives where the payload starts.
/// std::nullopt if unreadable, torn or corrupt.
std::optional<util::Bytes> load_element(const std::string& path,
                                        const char (&magic)[8],
                                        std::uint32_t version,
                                        std::span<std::uint64_t> seqs,
                                        std::uint64_t* payload_offset) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) return std::nullopt;
  std::fseek(f.get(), 0, SEEK_END);
  const long size = std::ftell(f.get());
  std::fseek(f.get(), 0, SEEK_SET);
  if (size < static_cast<long>(kElementSeqsOffset)) return std::nullopt;
  util::Bytes data(static_cast<std::size_t>(size));
  if (std::fread(data.data(), 1, data.size(), f.get()) != data.size())
    return std::nullopt;

  if (std::memcmp(data.data(), magic, sizeof(magic)) != 0) return std::nullopt;
  try {
    util::Reader r(util::ByteView(data).subspan(sizeof(magic)));
    if (r.u32() != version) return std::nullopt;
    const util::ByteView seq_bytes = r.view(8 * seqs.size());
    util::Reader seq_r(seq_bytes);
    for (std::uint64_t& seq : seqs) seq = seq_r.u64();
    const std::uint32_t len = r.u32();
    const std::uint32_t crc = r.u32();
    if (len != r.remaining()) return std::nullopt;
    util::Bytes payload = r.bytes(len);
    if (util::crc32c_extend(util::crc32c(seq_bytes), payload) != crc)
      return std::nullopt;
    if (payload_offset != nullptr) *payload_offset = data.size() - len;
    return payload;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

}  // namespace

std::vector<SnapshotInfo> list_snapshots(const std::string& dir) {
  return list_elements<SnapshotInfo>(
      dir, parse_snapshot_name,
      [](const SnapshotInfo& a, const SnapshotInfo& b) {
        return a.seq > b.seq;
      });
}

std::vector<DeltaFileInfo> list_delta_files(const std::string& dir) {
  return list_elements<DeltaFileInfo>(
      dir, parse_delta_name,
      [](const DeltaFileInfo& a, const DeltaFileInfo& b) {
        return a.seq < b.seq;
      });
}

bool write_snapshot_file(const std::string& dir, std::uint64_t next_seq,
                         const PayloadWriter& payload, SnapshotInfo* info,
                         std::string* error) {
  const fs::path final_path = fs::path(dir) / snapshot_name(next_seq);
  std::uint64_t bytes = 0;
  std::uint64_t payload_offset = 0;
  if (!write_element(dir, final_path,
                     element_prefix(kSnapshotMagic, kSnapshotVersion,
                                    {next_seq}),
                     payload, &bytes, &payload_offset, error)) {
    return false;
  }
  if (info != nullptr) {
    info->seq = next_seq;
    info->path = final_path.string();
    info->bytes = bytes;
    info->payload_offset = payload_offset;
  }
  return true;
}

std::optional<util::Bytes> load_snapshot_file(const std::string& path,
                                              std::uint64_t* next_seq,
                                              std::uint64_t* payload_offset) {
  std::uint64_t seqs[1] = {};
  auto payload = load_element(path, kSnapshotMagic, kSnapshotVersion, seqs,
                              payload_offset);
  if (payload && next_seq != nullptr) *next_seq = seqs[0];
  return payload;
}

void prune_snapshots(const std::string& dir, std::size_t keep) {
  const std::vector<SnapshotInfo> all = list_snapshots(dir);
  std::error_code ec;
  for (std::size_t i = keep; i < all.size(); ++i) {
    fs::remove(all[i].path, ec);
  }
}

bool write_delta_file(const std::string& dir, std::uint64_t parent_seq,
                      std::uint64_t next_seq, const PayloadWriter& payload,
                      DeltaFileInfo* info, std::string* error) {
  const fs::path final_path = fs::path(dir) / delta_name(parent_seq, next_seq);
  std::uint64_t bytes = 0;
  std::uint64_t payload_offset = 0;
  if (!write_element(dir, final_path,
                     element_prefix(kDeltaMagic, kDeltaFileVersion,
                                    {parent_seq, next_seq}),
                     payload, &bytes, &payload_offset, error)) {
    return false;
  }
  if (info != nullptr) {
    info->parent_seq = parent_seq;
    info->seq = next_seq;
    info->path = final_path.string();
    info->bytes = bytes;
    info->payload_offset = payload_offset;
  }
  return true;
}

std::optional<util::Bytes> load_delta_file(const std::string& path,
                                           std::uint64_t* parent_seq,
                                           std::uint64_t* next_seq,
                                           std::uint64_t* payload_offset) {
  std::uint64_t seqs[2] = {};
  auto payload = load_element(path, kDeltaMagic, kDeltaFileVersion, seqs,
                              payload_offset);
  if (payload && parent_seq != nullptr) *parent_seq = seqs[0];
  if (payload && next_seq != nullptr) *next_seq = seqs[1];
  return payload;
}

void prune_delta_files(const std::string& dir, std::uint64_t below_seq) {
  std::error_code ec;
  for (const DeltaFileInfo& d : list_delta_files(dir)) {
    if (d.seq <= below_seq) fs::remove(d.path, ec);
  }
}

std::size_t remove_stale_element_tmps(const std::string& dir) {
  constexpr std::string_view kTmp = ".tmp";
  std::vector<fs::path> stale;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= kTmp.size() ||
        name.compare(name.size() - kTmp.size(), kTmp.size(), kTmp) != 0) {
      continue;
    }
    const std::string element = name.substr(0, name.size() - kTmp.size());
    SnapshotInfo snapshot;
    DeltaFileInfo delta;
    if (parse_snapshot_name(element, snapshot) ||
        parse_delta_name(element, delta)) {
      stale.push_back(entry.path());
    }
  }
  for (const fs::path& path : stale) fs::remove(path, ec);
  return stale.size();
}

}  // namespace bcwan::store
