#include "bcwan/directory.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "util/crc32c.hpp"
#include "telemetry/metrics.hpp"
#include "util/serial.hpp"

namespace fs = std::filesystem;

namespace bcwan::core {

namespace {

constexpr char kMagic[4] = {'B', 'C', 'W', 'N'};
constexpr std::uint8_t kVersion = 1;

// Persisted index file: magic | u32 version | u32 len | u32 crc32c(payload)
// | payload. The payload names the active-chain tip it reflects, so a
// loader can tell "install and catch up" apart from "stale branch, rescan".
constexpr char kIndexMagic[8] = {'B', 'C', 'W', 'A', 'N', 'D', 'I', 'R'};
constexpr std::uint32_t kIndexFileVersion = 1;

bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

util::Bytes encode_directory_entry(const script::PubKeyHash& owner,
                                   IpAddress ip, std::uint16_t port) {
  util::Writer w;
  w.bytes(util::Bytes{static_cast<std::uint8_t>(kMagic[0]),
                      static_cast<std::uint8_t>(kMagic[1]),
                      static_cast<std::uint8_t>(kMagic[2]),
                      static_cast<std::uint8_t>(kMagic[3])});
  w.u8(kVersion);
  w.bytes(util::ByteView(owner.data(), owner.size()));
  w.u32(ip);
  w.u16(port);
  return w.take();
}

std::optional<DirectoryEntry> decode_directory_entry(util::ByteView data) {
  try {
    util::Reader r(data);
    const util::Bytes magic = r.bytes(4);
    for (int i = 0; i < 4; ++i) {
      if (magic[static_cast<std::size_t>(i)] !=
          static_cast<std::uint8_t>(kMagic[i])) {
        return std::nullopt;
      }
    }
    if (r.u8() != kVersion) return std::nullopt;
    DirectoryEntry entry;
    const util::Bytes owner = r.bytes(entry.owner.size());
    std::copy(owner.begin(), owner.end(), entry.owner.begin());
    entry.ip = r.u32();
    entry.port = r.u16();
    r.expect_done();
    return entry;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

std::string format_ip(IpAddress ip) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", ip >> 24 & 0xff,
                ip >> 16 & 0xff, ip >> 8 & 0xff, ip & 0xff);
  return buf;
}

namespace {

/// Validated announcements in `tx`: decoded OP_RETURN entries whose claimed
/// owner matches the hash of the first input's pushed pubkey.
template <typename Fn>
void for_each_announcement(const chain::Transaction& tx, Fn&& fn) {
  if (tx.is_coinbase() || tx.vin.empty()) return;
  for (const chain::TxOut& out : tx.vout) {
    const auto classified = script::classify(out.script_pubkey);
    if (classified.type != script::ScriptType::kOpReturn) continue;
    const auto entry = decode_directory_entry(classified.data);
    if (!entry) continue;
    const auto sig_items = tx.vin[0].script_sig.decode();
    if (!sig_items || sig_items->size() < 2) continue;
    const util::Bytes& pubkey = (*sig_items)[1].push;
    if (script::to_pubkey_hash(pubkey) != entry->owner) continue;
    fn(*entry);
  }
}

void write_entry(util::Writer& w, const DirectoryEntry& e) {
  w.bytes(util::ByteView(e.owner.data(), e.owner.size()));
  w.u32(e.ip);
  w.u16(e.port);
  w.u32(static_cast<std::uint32_t>(e.height));
}

DirectoryEntry read_entry(util::Reader& r) {
  DirectoryEntry e;
  const util::Bytes owner = r.bytes(e.owner.size());
  std::copy(owner.begin(), owner.end(), e.owner.begin());
  e.ip = r.u32();
  e.port = r.u16();
  e.height = static_cast<int>(r.u32());
  return e;
}

}  // namespace

Directory::Directory(p2p::ChainNode& node, DirectoryOptions options)
    : node_(node), options_(std::move(options)) {
  recover();
  node_.add_tx_watcher(
      [this](const chain::Transaction& tx) { ingest_mempool(tx); });
  node_.add_block_watcher(
      [this](const chain::Block& block) { on_block(block); });
  node_.add_reorg_watcher([this](int fork_height) { on_reorg(fork_height); });
  // A restart replays the chain from disk; the reorg watchers alone cannot
  // cover it (replay may land on a different branch without reporting a
  // reorg), so rebuild-or-reload the index from scratch.
  node_.add_restart_watcher([this] { recover(); });
}

void Directory::recover() {
  if (!options_.persist_path.empty() && try_load()) return;
  rescan(options_.startup_scan_depth);
}

void Directory::rescan(int depth) {
  ++full_rescans_;
  if (telemetry::enabled()) {
    telemetry::registry()
        .counter("bcwan_directory_rescans_total",
                 "Full directory rebuilds (cold starts + deep-reorg and "
                 "stale-index fallbacks)")
        .add();
  }
  confirmed_.clear();
  mempool_.clear();
  undo_.clear();
  const int tip = node_.chain().height();
  // Pre-create empty frames for the retained window so a later reorg can
  // unwind through heights that carried no announcements.
  for (int h = std::max(0, tip - options_.undo_depth + 1); h <= tip; ++h)
    undo_[h];
  // Oldest-first so newer announcements overwrite older ones; each block
  // is decoded from the chain's stored bytes once, for this visit.
  for (int h = std::max(0, tip - depth + 1); h <= tip; ++h) {
    const auto block = node_.chain().block_at(h);
    for (const chain::Transaction& tx : block->txs) apply_confirmed(tx, h);
  }
  indexed_tip_ = tip;
  node_.mempool().for_each(
      [this](const chain::Transaction& tx) { ingest_mempool(tx); });
  persist();
  note_entries_gauge();
}

void Directory::ingest_mempool(const chain::Transaction& tx) {
  for_each_announcement(tx, [this](const DirectoryEntry& entry) {
    DirectoryEntry stored = entry;
    stored.height = -1;
    mempool_[stored.owner] = stored;
  });
  note_entries_gauge();
}

void Directory::apply_confirmed(const chain::Transaction& tx, int height) {
  for_each_announcement(tx, [this, height](const DirectoryEntry& entry) {
    const auto frame = undo_.find(height);
    if (frame != undo_.end()) {
      UndoRecord rec;
      rec.owner = entry.owner;
      const auto prev = confirmed_.find(entry.owner);
      if (prev != confirmed_.end()) {
        rec.had_prev = true;
        rec.prev = prev->second;
      }
      frame->second.push_back(std::move(rec));
    }
    DirectoryEntry stored = entry;
    stored.height = height;
    confirmed_[stored.owner] = stored;
    // The sighting that shadowed this owner just confirmed (or was
    // superseded by a confirmed announcement); the overlay entry is no
    // longer the newest information.
    mempool_.erase(stored.owner);
  });
}

void Directory::begin_frame(int height) {
  undo_[height];
  while (undo_.size() >
         static_cast<std::size_t>(std::max(options_.undo_depth, 1))) {
    undo_.erase(undo_.begin());
  }
}

void Directory::on_block(const chain::Block& block) {
  const int height = node_.chain().height();
  // The reorg watcher (which runs first) may already have caught up through
  // this block; re-applying it would double-enter its undo records.
  if (height <= indexed_tip_) return;
  if (height == indexed_tip_ + 1) {
    begin_frame(height);
    for (const chain::Transaction& tx : block.txs) apply_confirmed(tx, height);
    indexed_tip_ = height;
    persist();
    note_entries_gauge();
    return;
  }
  catch_up();
}

void Directory::catch_up() {
  const int tip = node_.chain().height();
  for (int h = indexed_tip_ + 1; h <= tip; ++h) {
    const auto block = node_.chain().block_at(h);
    if (!block) {
      rescan(options_.startup_scan_depth);
      return;
    }
    begin_frame(h);
    for (const chain::Transaction& tx : block->txs) apply_confirmed(tx, h);
    indexed_tip_ = h;
  }
  persist();
  note_entries_gauge();
}

void Directory::on_reorg(int fork_height) {
  if (fork_height < 0) {
    rescan(options_.startup_scan_depth);
    return;
  }
  // Unwind the branch we indexed past the fork point, newest first; each
  // frame restores exactly what its height overwrote.
  for (int h = indexed_tip_; h > fork_height; --h) {
    const auto it = undo_.find(h);
    if (it == undo_.end()) {
      // The fork is deeper than the undo window — the incremental index
      // cannot reconstruct the pre-fork state.
      rescan(options_.startup_scan_depth);
      return;
    }
    for (auto rec = it->second.rbegin(); rec != it->second.rend(); ++rec) {
      if (rec->had_prev) {
        confirmed_[rec->owner] = rec->prev;
      } else {
        confirmed_.erase(rec->owner);
      }
    }
    undo_.erase(it);
  }
  indexed_tip_ = std::min(indexed_tip_, fork_height);
  ++indexed_reorgs_;
  if (telemetry::enabled()) {
    telemetry::registry()
        .counter("bcwan_directory_indexed_reorgs_total",
                 "Reorgs absorbed via undo frames (no rescan)")
        .add();
  }
  catch_up();
}

std::optional<DirectoryEntry> Directory::lookup(
    const script::PubKeyHash& owner) const {
  const auto pending = mempool_.find(owner);
  if (pending != mempool_.end()) return pending->second;
  const auto it = confirmed_.find(owner);
  if (it == confirmed_.end()) return std::nullopt;
  return it->second;
}

std::size_t Directory::size() const noexcept {
  std::size_t n = confirmed_.size();
  for (const auto& [owner, entry] : mempool_) {
    if (confirmed_.find(owner) == confirmed_.end()) ++n;
  }
  return n;
}

void Directory::note_entries_gauge() const {
  if (!telemetry::enabled()) return;
  telemetry::registry()
      .gauge("bcwan_directory_entries",
             "Resolver entries in the most recently updated directory")
      .set(static_cast<double>(size()));
}

bool Directory::persist() const {
  if (options_.persist_path.empty()) return true;
  if (indexed_tip_ < 0) return true;

  util::Writer payload;
  payload.u32(static_cast<std::uint32_t>(indexed_tip_));
  const chain::Hash256& tip_hash =
      node_.chain().active_chain()[static_cast<std::size_t>(indexed_tip_)];
  payload.bytes(util::ByteView(tip_hash.data(), tip_hash.size()));
  payload.varint(confirmed_.size());
  for (const auto& [owner, entry] : confirmed_) write_entry(payload, entry);
  payload.varint(undo_.size());
  for (const auto& [height, records] : undo_) {
    payload.u32(static_cast<std::uint32_t>(height));
    payload.varint(records.size());
    for (const UndoRecord& rec : records) {
      payload.bytes(util::ByteView(rec.owner.data(), rec.owner.size()));
      payload.u8(rec.had_prev ? 1 : 0);
      if (rec.had_prev) write_entry(payload, rec.prev);
    }
  }

  util::Writer header;
  header.bytes(util::ByteView(
      reinterpret_cast<const std::uint8_t*>(kIndexMagic), sizeof(kIndexMagic)));
  header.u32(kIndexFileVersion);
  header.u32(static_cast<std::uint32_t>(payload.data().size()));
  header.u32(util::crc32c(payload.data()));

  const fs::path final_path(options_.persist_path);
  const fs::path tmp_path = final_path.string() + ".tmp";
  std::error_code ec;
  fs::create_directories(final_path.parent_path(), ec);
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(header.data().data(), 1, header.data().size(), f) ==
            header.data().size();
  ok = ok && std::fwrite(payload.data().data(), 1, payload.data().size(), f) ==
                 payload.data().size();
  // Data on disk before the rename publishes it; rename on disk before the
  // caller can rely on the index surviving a crash.
  ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!ok) {
    fs::remove(tmp_path, ec);
    return false;
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return false;
  }
  return fsync_dir(final_path.parent_path().string());
}

bool Directory::try_load() {
  std::FILE* f = std::fopen(options_.persist_path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  constexpr std::size_t kHeaderBytes = sizeof(kIndexMagic) + 4 + 4 + 4;
  if (size < static_cast<long>(kHeaderBytes)) {
    std::fclose(f);
    return false;
  }
  util::Bytes data(static_cast<std::size_t>(size));
  const bool read_ok =
      std::fread(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  if (!read_ok) return false;

  try {
    util::Reader r(data);
    const util::Bytes magic = r.bytes(sizeof(kIndexMagic));
    if (std::memcmp(magic.data(), kIndexMagic, sizeof(kIndexMagic)) != 0)
      return false;
    if (r.u32() != kIndexFileVersion) return false;
    const std::uint32_t len = r.u32();
    const std::uint32_t crc = r.u32();
    const util::ByteView payload = r.view(len);
    r.expect_done();
    if (util::crc32c(payload) != crc) return false;

    util::Reader p(payload);
    const int stored_tip = static_cast<int>(p.u32());
    chain::Hash256 stored_hash;
    const util::Bytes raw_hash = p.bytes(stored_hash.size());
    std::copy(raw_hash.begin(), raw_hash.end(), stored_hash.begin());
    // Usable only if the stored tip is still on the active chain: equal to
    // our tip (install as-is) or an ancestor of it (install + catch up).
    // A tip on a dead branch would need undo past what the file knows.
    const auto& active = node_.chain().active_chain();
    if (stored_tip < 0 ||
        static_cast<std::size_t>(stored_tip) >= active.size() ||
        active[static_cast<std::size_t>(stored_tip)] != stored_hash) {
      return false;
    }

    EntryMap confirmed;
    const std::uint64_t n_entries = p.varint();
    for (std::uint64_t i = 0; i < n_entries; ++i) {
      DirectoryEntry e = read_entry(p);
      confirmed[e.owner] = e;
    }
    std::map<int, std::vector<UndoRecord>> undo;
    const std::uint64_t n_frames = p.varint();
    for (std::uint64_t i = 0; i < n_frames; ++i) {
      const int height = static_cast<int>(p.u32());
      const std::uint64_t n_records = p.varint();
      std::vector<UndoRecord> records;
      records.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(n_records, len / 21 + 1)));
      for (std::uint64_t j = 0; j < n_records; ++j) {
        UndoRecord rec;
        const util::Bytes owner = p.bytes(rec.owner.size());
        std::copy(owner.begin(), owner.end(), rec.owner.begin());
        rec.had_prev = p.u8() != 0;
        if (rec.had_prev) rec.prev = read_entry(p);
        records.push_back(std::move(rec));
      }
      undo[height] = std::move(records);
    }
    p.expect_done();

    confirmed_ = std::move(confirmed);
    undo_ = std::move(undo);
    mempool_.clear();
    indexed_tip_ = stored_tip;
  } catch (const util::DeserializeError&) {
    return false;
  }

  if (telemetry::enabled()) {
    telemetry::registry()
        .counter("bcwan_directory_index_loads_total",
                 "Directory indexes recovered from their persisted file")
        .add();
  }
  catch_up();
  node_.mempool().for_each(
      [this](const chain::Transaction& tx) { ingest_mempool(tx); });
  return true;
}

}  // namespace bcwan::core
