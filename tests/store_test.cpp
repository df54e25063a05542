// Durable persistence tests: CRC32C, log framing and torn-tail scanning,
// snapshot atomicity, ChainStore open-or-recover, and crash/restart at the
// ChainNode level. The torn-tail sweep drives a truncation through every
// byte offset of the final record; the mid-file CRC-flip cases pin the
// refuse-don't-truncate policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

// Heap accounting for the memory regression test: glibc's mallinfo2 (2.33+)
// counts the bytes in use, unless a sanitizer's allocator is in charge.
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#include <malloc.h>
#define BCWAN_HEAP_ACCOUNTING 1
#endif

#include "chain/miner.hpp"
#include "chain/sigcache.hpp"
#include "chain/wallet.hpp"
#include "crypto/sha256.hpp"
#include "p2p/chain_node.hpp"
#include "p2p/event_loop.hpp"
#include "p2p/network.hpp"
#include "util/crc32c.hpp"
#include "payload_on_disk.hpp"
#include "store/log.hpp"
#include "store/snapshot.hpp"
#include "store/store.hpp"

namespace bcwan::store {
namespace {

namespace fs = std::filesystem;
using chain::AcceptBlockResult;
using chain::Block;
using chain::Blockchain;
using chain::ChainParams;
using chain::Mempool;
using chain::Miner;
using chain::Wallet;
using util::Bytes;
using util::crc32c;
using util::crc32c_extend;

ChainParams test_params() {
  ChainParams p;
  p.pow_zero_bits = 4;
  p.coinbase_maturity = 2;
  return p;
}

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "bcwan-store-XXXXXX").string();
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

/// A snapshot or delta payload that is already in memory.
PayloadWriter payload_of(Bytes bytes) {
  return [bytes = std::move(bytes)](util::Writer& w) {
    w.bytes(bytes);
    return true;
  };
}

void write_file(const std::string& path, util::ByteView data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

/// A persistent chain: mines into a store-backed Blockchain, and can
/// "crash" (drop everything without a final snapshot) and reopen.
struct StoreHarness {
  ChainParams params = test_params();
  TempDir dir;
  StoreOptions opts;
  std::unique_ptr<ChainStore> store;
  std::optional<Blockchain> chain;
  Mempool pool{params};
  Wallet wallet = Wallet::from_seed("miner");
  Miner miner{params, wallet.pkh()};
  std::uint64_t now = 0;

  StoreHarness() {
    opts.dir = dir.str();
    opts.snapshot_interval = 1000;  // no automatic snapshots unless asked
    open();
  }

  void open() {
    std::string error;
    store = ChainStore::open(params, opts, &error);
    ASSERT_NE(store, nullptr) << error;
    chain.emplace(store->take_chain());
    store->attach(*chain);
  }

  /// Crash-stop: no snapshot, no extra fsync — just drop the handles.
  void crash() {
    chain.reset();
    store.reset();
  }

  void reopen() {
    crash();
    open();
  }

  void mine_block() {
    const Block block = miner.mine(*chain, pool, ++now);
    const auto result = chain->accept_block(block);
    ASSERT_TRUE(result == AcceptBlockResult::kConnected ||
                result == AcceptBlockResult::kReorganized)
        << chain::accept_block_result_name(result);
    pool.remove_confirmed(block);
    store->maybe_snapshot(*chain);
  }

  void mine_blocks(int n) {
    for (int i = 0; i < n; ++i) mine_block();
  }

  void fund() { mine_blocks(params.coinbase_maturity + 1); }

  void pay(chain::Amount amount) {
    const Wallet alice = Wallet::from_seed("alice");
    const auto tx =
        wallet.create_payment(*chain, &pool, alice.pkh(), amount, 1000);
    ASSERT_TRUE(tx.has_value());
    ASSERT_TRUE(pool.accept(*tx, chain->utxo(), chain->height() + 1).ok());
    mine_block();
  }

  std::string log_path() const { return log_file_path(dir.str()); }
};

// --- CRC32C ---

TEST(Crc32c, KnownVectors) {
  // RFC 3720 check value.
  EXPECT_EQ(crc32c(util::str_bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c(util::ByteView{}), 0u);
  // 32 zero bytes (iSCSI test vector).
  EXPECT_EQ(crc32c(Bytes(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(crc32c(Bytes(32, 0xFF)), 0x62A8AB43u);
}

TEST(Crc32c, StreamingMatchesOneShot) {
  const Bytes data = util::str_bytes("the quick brown fox jumps over");
  const std::uint32_t whole = crc32c(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t part =
        crc32c_extend(crc32c(util::ByteView(data).subspan(0, split)),
                      util::ByteView(data).subspan(split));
    EXPECT_EQ(part, whole) << "split at " << split;
  }
}

// --- Log framing & scanning ---

Bytes record_bytes(const ScanResult& scan, std::size_t i) {
  const util::ByteView payload = scan.payload(scan.records.at(i));
  return Bytes(payload.begin(), payload.end());
}

Bytes prefix(const Bytes& image, std::uint64_t len) {
  return Bytes(image.begin(), image.begin() + static_cast<std::ptrdiff_t>(len));
}

Bytes build_log_image(const std::vector<Bytes>& payloads) {
  TempDir dir;
  const std::string path = (dir.path / "img.log").string();
  BlockLog log;
  ScanResult scan;
  EXPECT_TRUE(log.open(path, scan, nullptr));
  std::uint64_t seq = 1;
  for (const Bytes& p : payloads) EXPECT_TRUE(log.append(seq++, p, false));
  log.close();
  return read_file(path);
}

TEST(BlockLog, ScanRoundTrip) {
  const Bytes image = build_log_image(
      {util::str_bytes("alpha"), util::str_bytes("beta"), Bytes{}});
  const ScanResult scan = scan_log(image);
  EXPECT_EQ(scan.status, ScanStatus::kOk);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].seq, 1u);
  EXPECT_EQ(record_bytes(scan, 0), util::str_bytes("alpha"));
  EXPECT_EQ(record_bytes(scan, 2), Bytes{});
  EXPECT_EQ(scan.valid_bytes, image.size());
}

TEST(BlockLog, ScanRejectsForeignHeader) {
  EXPECT_EQ(scan_log(util::str_bytes("not a log file at all")).status,
            ScanStatus::kBadHeader);
  EXPECT_EQ(scan_log(Bytes{}).status, ScanStatus::kBadHeader);
  // Right magic, wrong version.
  Bytes image = build_log_image({util::str_bytes("x")});
  image[8] ^= 0x01;
  EXPECT_EQ(scan_log(image).status, ScanStatus::kBadHeader);
}

TEST(BlockLog, TornTailAtEveryOffset) {
  const Bytes image = build_log_image({util::str_bytes("first record"),
                                       util::str_bytes("second record"),
                                       util::str_bytes("the torn one")});
  const ScanResult full = scan_log(image);
  ASSERT_EQ(full.status, ScanStatus::kOk);
  ASSERT_EQ(full.records.size(), 3u);
  const std::uint64_t last_start =
      full.valid_bytes - kRecordHeaderBytes - full.records[2].len;

  // Truncate at every byte inside the final record: always a torn tail
  // recovering exactly the first two records, never a refusal.
  for (std::uint64_t cut = last_start + 1; cut < image.size(); ++cut) {
    const ScanResult scan = scan_log(prefix(image, cut));
    EXPECT_EQ(scan.status, ScanStatus::kTornTail) << "cut at " << cut;
    EXPECT_EQ(scan.records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(scan.valid_bytes, last_start) << "cut at " << cut;
  }
  // Truncating exactly at the record boundary is a clean two-record log.
  const ScanResult boundary = scan_log(prefix(image, last_start));
  EXPECT_EQ(boundary.status, ScanStatus::kOk);
  EXPECT_EQ(boundary.records.size(), 2u);
}

TEST(BlockLog, CorruptionInLastRecordIsTornTail) {
  Bytes image = build_log_image(
      {util::str_bytes("aaaa"), util::str_bytes("bbbb")});
  // Flip a payload byte of the LAST record: truncate, don't refuse.
  image[image.size() - 1] ^= 0xFF;
  const ScanResult scan = scan_log(image);
  EXPECT_EQ(scan.status, ScanStatus::kTornTail);
  EXPECT_EQ(scan.records.size(), 1u);
}

TEST(BlockLog, CorruptionMidFileRefuses) {
  Bytes image = build_log_image(
      {util::str_bytes("aaaa"), util::str_bytes("bbbb"),
       util::str_bytes("cccc")});
  // Flip a byte in the FIRST record's payload: valid records follow, so
  // this is mid-file corruption and must be refused, not truncated.
  image[kFileHeaderBytes + kRecordHeaderBytes] ^= 0xFF;
  EXPECT_EQ(scan_log(image).status, ScanStatus::kCorrupt);
}

TEST(BlockLog, OpenTruncatesTornTailOnDisk) {
  TempDir dir;
  const std::string path = (dir.path / "blocks.log").string();
  {
    BlockLog log;
    ScanResult scan;
    ASSERT_TRUE(log.open(path, scan, nullptr));
    ASSERT_TRUE(log.append(1, util::str_bytes("keep me"), true));
    ASSERT_TRUE(log.append(2, util::str_bytes("torn"), true));
  }
  ASSERT_GT(tear_log_tail(path, 2), 0u);

  BlockLog log;
  ScanResult scan;
  std::string error;
  ASSERT_TRUE(log.open(path, scan, &error)) << error;
  EXPECT_EQ(scan.status, ScanStatus::kTornTail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(record_bytes(scan, 0), util::str_bytes("keep me"));
  // Appending after recovery continues the sequence cleanly.
  ASSERT_TRUE(log.append(2, util::str_bytes("replacement"), true));
  log.close();
  const ScanResult rescan = scan_log(read_file(path));
  EXPECT_EQ(rescan.status, ScanStatus::kOk);
  ASSERT_EQ(rescan.records.size(), 2u);
  EXPECT_EQ(record_bytes(rescan, 1), util::str_bytes("replacement"));
}

TEST(BlockLog, OpenRestartsTornHeader) {
  // A crash while creating or resetting the log can leave only part of the
  // header on disk. No record ever reached such a file: it reopens empty.
  TempDir dir;
  const std::string path = (dir.path / "blocks.log").string();
  const Bytes header = build_log_image({});
  ASSERT_EQ(header.size(), kFileHeaderBytes);
  for (std::size_t cut = 0; cut < header.size(); ++cut) {
    write_file(path, util::ByteView(header).subspan(0, cut));
    BlockLog log;
    ScanResult scan;
    std::string error;
    ASSERT_TRUE(log.open(path, scan, &error)) << "cut at " << cut << ": "
                                              << error;
    EXPECT_TRUE(scan.records.empty()) << "cut at " << cut;
    ASSERT_TRUE(log.append(1, util::str_bytes("after"), true));
    log.close();
    const ScanResult rescan = scan_log(read_file(path));
    EXPECT_EQ(rescan.status, ScanStatus::kOk) << "cut at " << cut;
    ASSERT_EQ(rescan.records.size(), 1u) << "cut at " << cut;
  }
  // A short file that is not a header prefix is still foreign.
  write_file(path, util::str_bytes("BCWANX"));
  BlockLog log;
  ScanResult scan;
  EXPECT_FALSE(log.open(path, scan, nullptr));
  EXPECT_EQ(read_file(path), util::str_bytes("BCWANX"));
}

// --- Snapshots ---

TEST(Snapshot, RoundTripAndListing) {
  TempDir dir;
  const Bytes state = util::str_bytes("pretend chainstate");
  SnapshotInfo info;
  ASSERT_TRUE(write_snapshot_file(dir.str(), 42, payload_of(state), &info, nullptr));
  EXPECT_EQ(info.seq, 42u);

  const auto listed = list_snapshots(dir.str());
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].seq, 42u);

  std::uint64_t next_seq = 0;
  std::uint64_t payload_offset = 0;
  const auto loaded =
      load_snapshot_file(listed[0].path, &next_seq, &payload_offset);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, state);
  EXPECT_EQ(next_seq, 42u);
  // Writer and loader agree on where the payload sits in the file.
  EXPECT_EQ(payload_offset, info.payload_offset);
  const Bytes raw = read_file(info.path);
  EXPECT_EQ(Bytes(raw.begin() + static_cast<long>(payload_offset), raw.end()),
            state);
}

TEST(Snapshot, CorruptFileIsSkippedNotFatal) {
  TempDir dir;
  SnapshotInfo info;
  ASSERT_TRUE(write_snapshot_file(dir.str(), 7,
                                  payload_of(util::str_bytes("snapshot body")),
                                  &info, nullptr));
  Bytes raw = read_file(info.path);
  raw[raw.size() - 3] ^= 0x40;
  write_file(info.path, raw);
  EXPECT_FALSE(load_snapshot_file(info.path, nullptr).has_value());
}

TEST(Snapshot, PruneKeepsNewest) {
  TempDir dir;
  for (std::uint64_t seq : {3u, 1u, 9u, 5u}) {
    ASSERT_TRUE(
        write_snapshot_file(dir.str(), seq, payload_of(util::str_bytes("s")),
                            nullptr, nullptr));
  }
  prune_snapshots(dir.str(), 2);
  const auto listed = list_snapshots(dir.str());
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].seq, 9u);
  EXPECT_EQ(listed[1].seq, 5u);
}

// --- Delta snapshots (incremental elements) ---

TEST(DeltaSnapshot, RoundTripListingAndPrune) {
  TempDir dir;
  const Bytes first = util::str_bytes("delta payload one");
  DeltaFileInfo info;
  ASSERT_TRUE(write_delta_file(dir.str(), 4, 9, payload_of(first), &info, nullptr));
  EXPECT_EQ(info.parent_seq, 4u);
  EXPECT_EQ(info.seq, 9u);
  ASSERT_TRUE(write_delta_file(dir.str(), 9, 14,
                               payload_of(util::str_bytes("delta payload two")),
                               nullptr, nullptr));

  // Oldest first: the order deltas are applied on top of the base.
  auto listed = list_delta_files(dir.str());
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].seq, 9u);
  EXPECT_EQ(listed[1].seq, 14u);

  std::uint64_t parent = 0, next = 0, payload_offset = 0;
  const auto loaded =
      load_delta_file(listed[0].path, &parent, &next, &payload_offset);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, first);
  EXPECT_EQ(parent, 4u);
  EXPECT_EQ(next, 9u);
  EXPECT_EQ(payload_offset, info.payload_offset);
  const Bytes raw = read_file(info.path);
  EXPECT_EQ(Bytes(raw.begin() + static_cast<long>(payload_offset), raw.end()),
            first);

  // Pruning removes deltas folded into a base (seq <= below_seq).
  prune_delta_files(dir.str(), 9);
  listed = list_delta_files(dir.str());
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].seq, 14u);
}

TEST(DeltaSnapshot, TornFileAtEveryOffsetIsRejected) {
  TempDir dir;
  DeltaFileInfo info;
  ASSERT_TRUE(write_delta_file(dir.str(), 3, 8,
                               payload_of(util::str_bytes(
                                   "a delta body that will be torn at every "
                                   "offset")),
                               &info, nullptr));
  const Bytes image = read_file(info.path);

  // Truncate the file at every byte offset: each torn variant must be
  // rejected by the CRC/length checks, never accepted or crash.
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    write_file(info.path, util::ByteView(image).subspan(0, cut));
    EXPECT_FALSE(load_delta_file(info.path, nullptr, nullptr).has_value())
        << "cut at " << cut;
  }
  // A single flipped payload byte at full length is rejected too.
  Bytes flipped = image;
  flipped[flipped.size() - 5] ^= 0x20;
  write_file(info.path, flipped);
  EXPECT_FALSE(load_delta_file(info.path, nullptr, nullptr).has_value());

  // The intact image still loads.
  write_file(info.path, image);
  std::uint64_t parent = 0, next = 0;
  EXPECT_TRUE(load_delta_file(info.path, &parent, &next).has_value());
  EXPECT_EQ(parent, 3u);
  EXPECT_EQ(next, 8u);
}

TEST(Snapshot, StreamedPayloadSpanningManyChunksRoundTrips) {
  // A payload far larger than the 64 KiB streaming chunk, produced in many
  // small records: length and CRC are patched into the header after the
  // last chunk, so the file must load back byte for byte.
  TempDir dir;
  Bytes expected;
  SnapshotInfo info;
  ASSERT_TRUE(write_snapshot_file(
      dir.str(), 11,
      [&expected](util::Writer& w) {
        for (std::uint32_t i = 0; i < 60000; ++i) {
          w.u32(i * 2654435761u);
          w.boundary();
          util::Writer copy;
          copy.u32(i * 2654435761u);
          expected.insert(expected.end(), copy.data().begin(),
                          copy.data().end());
        }
        return true;
      },
      &info, nullptr));
  EXPECT_EQ(info.bytes, read_file(info.path).size());
  const auto loaded = load_snapshot_file(info.path, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, expected);

  // A producer that gives up leaves no file behind.
  DeltaFileInfo delta_info;
  EXPECT_FALSE(write_delta_file(
      dir.str(), 11, 12,
      [](util::Writer& w) {
        w.u32(7);
        return false;
      },
      &delta_info, nullptr));
  EXPECT_TRUE(list_delta_files(dir.str()).empty());
  EXPECT_EQ(std::distance(fs::directory_iterator(dir.path),
                          fs::directory_iterator()),
            1);
}

// --- ChainStore open-or-recover ---

TEST(ChainStore, FreshDirectoryStartsAtGenesis) {
  StoreHarness h;
  EXPECT_EQ(h.chain->height(), 0);
  EXPECT_FALSE(h.store->recovery().snapshot_loaded);
  EXPECT_EQ(h.store->recovery().replayed_blocks, 0u);
}

TEST(ChainStore, ReopenReplaysLoggedBlocks) {
  StoreHarness h;
  h.fund();
  h.pay(5 * chain::kCoin);
  const chain::Hash256 state = h.chain->state_hash();
  const int height = h.chain->height();

  h.reopen();
  EXPECT_EQ(h.chain->height(), height);
  EXPECT_EQ(h.chain->state_hash(), state);
  EXPECT_EQ(h.store->recovery().replayed_blocks,
            static_cast<std::size_t>(height));
  EXPECT_FALSE(h.store->recovery().snapshot_loaded);
  EXPECT_EQ(h.store->recovery().truncated_bytes, 0u);

  // The recovered chain keeps working: mine more, reopen again.
  h.mine_blocks(2);
  const chain::Hash256 state2 = h.chain->state_hash();
  h.reopen();
  EXPECT_EQ(h.chain->state_hash(), state2);
}

TEST(ChainStore, SnapshotShortensReplay) {
  StoreHarness h;
  h.opts.snapshot_interval = 3;
  h.reopen();
  h.mine_blocks(8);  // snapshots at 3 and 6; log holds 2 blocks

  const chain::Hash256 state = h.chain->state_hash();
  h.reopen();
  EXPECT_TRUE(h.store->recovery().snapshot_loaded);
  EXPECT_EQ(h.store->recovery().replayed_blocks, 2u);
  EXPECT_EQ(h.chain->height(), 8);
  EXPECT_EQ(h.chain->state_hash(), state);
}

TEST(ChainStore, SnapshotNewerThanLog) {
  StoreHarness h;
  h.mine_blocks(5);
  // Snapshot rotates the log; a crash right after leaves an empty log with
  // a snapshot whose next_seq is ahead of everything in it.
  ASSERT_TRUE(h.store->write_snapshot(*h.chain));
  const std::uint64_t seq_before = h.store->next_seq();
  const chain::Hash256 state = h.chain->state_hash();

  h.reopen();
  EXPECT_TRUE(h.store->recovery().snapshot_loaded);
  EXPECT_EQ(h.store->recovery().replayed_blocks, 0u);
  EXPECT_EQ(h.chain->height(), 5);
  EXPECT_EQ(h.chain->state_hash(), state);
  // Sequence numbering resumes at the snapshot's next_seq, not at 1.
  EXPECT_EQ(h.store->next_seq(), seq_before);
  h.mine_block();
  h.reopen();
  EXPECT_EQ(h.chain->height(), 6);
}

TEST(ChainStore, TornTailRecoversToPreviousBlock) {
  StoreHarness h;
  h.mine_blocks(4);
  const Bytes image = read_file(h.log_path());
  const ScanResult full = scan_log(image);
  ASSERT_EQ(full.records.size(), 4u);
  const std::uint64_t last_start =
      full.valid_bytes - kRecordHeaderBytes - full.records[3].len;
  h.crash();

  // Rip off progressively deeper torn tails: a few bytes, half the record,
  // all but one byte of it. Every variant must recover to height 3.
  for (const std::uint64_t keep :
       {image.size() - 3, last_start + kRecordHeaderBytes + 1,
        last_start + 7, last_start + 1}) {
    write_file(h.log_path(), util::ByteView(image).subspan(
                                 0, static_cast<std::size_t>(keep)));
    std::string error;
    auto store = ChainStore::open(h.params, h.opts, &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->recovery().truncated_bytes, keep - last_start)
        << "keep=" << keep;
    Blockchain chain = store->take_chain();
    EXPECT_EQ(chain.height(), 3) << "keep=" << keep;
  }
}

TEST(ChainStore, MidFileCorruptionRefusesToOpen) {
  StoreHarness h;
  h.mine_blocks(4);
  h.crash();
  Bytes image = read_file(h.log_path());
  // Flip one byte in the middle of the second record's payload.
  const ScanResult full = scan_log(image);
  ASSERT_EQ(full.records.size(), 4u);
  const std::uint64_t second_payload = kFileHeaderBytes +
                                       2 * kRecordHeaderBytes +
                                       full.records[0].len + 10;
  ASSERT_TRUE(flip_log_byte(h.log_path(), second_payload));

  std::string error;
  auto store = ChainStore::open(h.params, h.opts, &error);
  EXPECT_EQ(store, nullptr);
  EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
  // The file was NOT truncated by the refused open.
  EXPECT_EQ(read_file(h.log_path()).size(), image.size());
}

TEST(ChainStore, CorruptSnapshotFallsBackToReplay) {
  StoreHarness h;
  // Two full bases back to back: this test is about base-to-base fallback.
  h.mine_blocks(2);
  ASSERT_TRUE(h.store->write_snapshot(*h.chain));
  h.mine_blocks(2);
  ASSERT_TRUE(h.store->write_snapshot(*h.chain));
  const chain::Hash256 state = h.chain->state_hash();
  h.crash();

  // Corrupt every snapshot: recovery must fall back to... nothing but the
  // log. The log was rotated at the last snapshot though, so corrupt only
  // the NEWEST and let the older one + replay carry the day.
  auto snapshots = list_snapshots(h.dir.str());
  ASSERT_GE(snapshots.size(), 2u);
  Bytes raw = read_file(snapshots[0].path);
  raw[raw.size() / 2] ^= 0x10;
  write_file(snapshots[0].path, raw);

  std::string error;
  auto store = ChainStore::open(h.params, h.opts, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->recovery().snapshots_skipped, 1u);
  // NOTE: the newest snapshot covered the rotated log, and it's gone. The
  // older snapshot + the current log can only rebuild up to what they
  // jointly know — which is everything up to the last rotation point.
  Blockchain chain = store->take_chain();
  EXPECT_LE(chain.height(), 4);
  EXPECT_GE(chain.height(), 2);
  (void)state;
}

TEST(ChainStore, ReplayAcrossReorg) {
  StoreHarness h;  // persistent node that will reorg
  // A competing in-memory branch builder sharing the same genesis.
  Blockchain rival(h.params);
  Mempool rival_pool(h.params);
  Miner rival_miner(h.params, Wallet::from_seed("rival").pkh());

  h.fund();
  h.pay(3 * chain::kCoin);  // payment that will be disconnected
  const int fork_height = h.chain->height() - 1;

  // Rival catches up to the block BELOW our tip (excluding the payment
  // block), then mines two blocks on top — a longer branch that forces the
  // payment block to disconnect.
  for (int bh = 1; bh <= fork_height; ++bh) {
    ASSERT_EQ(rival.accept_block(*h.chain->block_at(bh)),
              AcceptBlockResult::kConnected);
  }
  std::uint64_t rt = 1000;
  const Block r1 = rival_miner.mine(rival, rival_pool, ++rt);
  ASSERT_EQ(rival.accept_block(r1), AcceptBlockResult::kConnected);
  const Block r2 = rival_miner.mine(rival, rival_pool, ++rt);
  ASSERT_EQ(rival.accept_block(r2), AcceptBlockResult::kConnected);

  // Feed the longer rival branch into the persistent chain: side-chain
  // first, then the reorg trigger. Both land in the block log via the sink.
  ASSERT_EQ(h.chain->accept_block(r1), AcceptBlockResult::kSideChain);
  ASSERT_EQ(h.chain->accept_block(r2), AcceptBlockResult::kReorganized);
  EXPECT_EQ(h.chain->tip_hash(), r2.hash());
  const chain::Hash256 state = h.chain->state_hash();
  const int height = h.chain->height();

  // The log now carries: linear history, then r1 (side), then r2 (reorg
  // trigger). Replay must walk the same side-chain + reorg path.
  h.reopen();
  EXPECT_EQ(h.chain->height(), height);
  EXPECT_EQ(h.chain->tip_hash(), r2.hash());
  EXPECT_EQ(h.chain->state_hash(), state);
  // Every logged record replayed: the linear history (fork_height + the
  // disconnected payment block), the side-chain block, the reorg trigger.
  EXPECT_EQ(h.store->recovery().replayed_blocks,
            static_cast<std::size_t>(fork_height) + 3);
}

TEST(ChainStore, ReplayedChainKeepsUndoForNewReorgs) {
  StoreHarness h;
  h.fund();
  const chain::Hash256 old_tip = h.chain->tip_hash();
  const int fork_height = h.chain->height() - 1;
  h.reopen();
  ASSERT_EQ(h.chain->tip_hash(), old_tip);

  // Build a two-block rival branch from fork_height and feed it in: the
  // replayed chain must disconnect its replayed tip using the undo data
  // regenerated during recovery.
  Blockchain rival(h.params);
  Mempool rival_pool(h.params);
  Miner rival_miner(h.params, Wallet::from_seed("rival2").pkh());
  for (int bh = 1; bh <= fork_height; ++bh) {
    ASSERT_EQ(rival.accept_block(*h.chain->block_at(bh)),
              AcceptBlockResult::kConnected);
  }
  std::uint64_t rt = 2000;
  const Block r1 = rival_miner.mine(rival, rival_pool, ++rt);
  ASSERT_EQ(rival.accept_block(r1), AcceptBlockResult::kConnected);
  const Block r2 = rival_miner.mine(rival, rival_pool, ++rt);
  ASSERT_EQ(rival.accept_block(r2), AcceptBlockResult::kConnected);

  ASSERT_EQ(h.chain->accept_block(r1), AcceptBlockResult::kSideChain);
  ASSERT_EQ(h.chain->accept_block(r2), AcceptBlockResult::kReorganized);
  EXPECT_EQ(h.chain->tip_hash(), r2.hash());
  EXPECT_EQ(h.chain->utxo().state_hash(), rival.utxo().state_hash());
}

// --- Incremental elements: delta chain, compaction, torn deltas ---

TEST(ChainStore, IncrementalReopenAppliesDeltaChain) {
  StoreHarness h;
  h.opts.snapshot_interval = 2;  // first element is a base, the next
                                 // kCompactEvery ones deltas
  h.reopen();
  h.fund();
  h.pay(2 * chain::kCoin);
  h.mine_blocks(3);  // 7 blocks total: elements at 2 (base), 4, 6 (deltas)
  EXPECT_GE(h.store->deltas_since_base(), 2u);
  EXPECT_GT(h.store->last_delta_bytes(), 0u);
  const chain::Hash256 state = h.chain->state_hash();
  const int height = h.chain->height();

  h.reopen();
  EXPECT_TRUE(h.store->recovery().snapshot_loaded);
  EXPECT_EQ(h.store->recovery().deltas_applied, 2u);
  EXPECT_EQ(h.store->recovery().deltas_skipped, 0u);
  EXPECT_EQ(h.store->recovery().replayed_blocks, 1u);  // log tail: block 7
  EXPECT_EQ(h.chain->height(), height);
  EXPECT_EQ(h.chain->state_hash(), state);

  // The recovered chain keeps producing valid elements.
  h.mine_blocks(2);
  const chain::Hash256 state2 = h.chain->state_hash();
  h.reopen();
  EXPECT_EQ(h.chain->state_hash(), state2);
}

TEST(ChainStore, CompactionFoldsDeltasIntoBaseAndPrunes) {
  StoreHarness h;
  h.opts.snapshot_interval = 1;  // base, kCompactEvery deltas, base, ...
  h.reopen();
  const int cycle = static_cast<int>(kCompactEvery) + 1;
  h.mine_blocks(2 * cycle);
  EXPECT_EQ(h.store->deltas_since_base(), kCompactEvery);
  h.mine_block();
  // The last block wrote the third base: the delta counter restarts and
  // the fold itself was timed.
  EXPECT_EQ(h.store->deltas_since_base(), 0u);
  EXPECT_GT(h.store->last_compaction_ms(), 0.0);

  // kKeepSnapshots bases survive; deltas at or below the OLDEST kept base
  // are spent (folded) and pruned. Deltas above it stay: they are the
  // fallback chain if the newest base turns out corrupt.
  const auto bases = list_snapshots(h.dir.str());
  ASSERT_EQ(bases.size(), kKeepSnapshots);
  const std::uint64_t oldest_kept = bases.back().seq;
  for (const auto& delta : list_delta_files(h.dir.str())) {
    EXPECT_GT(delta.seq, oldest_kept) << delta.path;
  }

  // Recovery prefers the newest base: nothing to re-apply.
  const chain::Hash256 state = h.chain->state_hash();
  h.reopen();
  EXPECT_TRUE(h.store->recovery().snapshot_loaded);
  EXPECT_EQ(h.store->recovery().snapshot_seq, bases.front().seq);
  EXPECT_EQ(h.store->recovery().deltas_applied, 0u);
  EXPECT_EQ(h.chain->state_hash(), state);
}

TEST(ChainStore, CorruptBaseFallsBackToOlderBasePlusDeltas) {
  StoreHarness h;
  h.opts.snapshot_interval = 1;
  h.reopen();
  // Elements: base, kCompactEvery deltas, base, kCompactEvery deltas.
  const int before_fold = 2 * (static_cast<int>(kCompactEvery) + 1);
  h.mine_blocks(before_fold);
  const chain::Hash256 state_before = h.chain->state_hash();
  h.mine_block();  // next element: a compacting base covering everything
  h.crash();

  // Corrupt the newest base: recovery must fall back to the previous base
  // plus the delta chain on top of it. The log was rotated at the newest
  // element, so the fallback recovers the pre-compaction state.
  const auto bases = list_snapshots(h.dir.str());
  ASSERT_GE(bases.size(), 2u);
  Bytes raw = read_file(bases.front().path);
  raw[raw.size() / 2] ^= 0x04;
  write_file(bases.front().path, raw);

  std::string error;
  auto store = ChainStore::open(h.params, h.opts, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->recovery().snapshots_skipped, 1u);
  EXPECT_EQ(store->recovery().deltas_applied, kCompactEvery);
  Blockchain chain = store->take_chain();
  EXPECT_EQ(chain.height(), before_fold);
  EXPECT_EQ(chain.state_hash(), state_before);
}

TEST(ChainStore, TornDeltaAtEveryOffsetFallsBackToBase) {
  StoreHarness h;
  h.opts.snapshot_interval = 2;
  h.reopen();
  h.mine_blocks(2);  // element 1: full base covering height 2
  const chain::Hash256 base_state = h.chain->state_hash();
  h.mine_blocks(2);  // element 2: delta covering heights 3-4 (rotates log)
  const chain::Hash256 full_state = h.chain->state_hash();
  h.crash();

  const auto deltas = list_delta_files(h.dir.str());
  ASSERT_EQ(deltas.size(), 1u);
  const Bytes image = read_file(deltas[0].path);

  // Truncate the delta file at every byte offset. Every torn variant must
  // still open — falling back to the base element and recovering the exact
  // state the base covered (the delta rotated the log, so blocks 3-4 are
  // only reachable through the delta itself).
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    write_file(deltas[0].path, util::ByteView(image).subspan(0, cut));
    std::string error;
    auto store = ChainStore::open(h.params, h.opts, &error);
    ASSERT_NE(store, nullptr) << "cut at " << cut << ": " << error;
    EXPECT_EQ(store->recovery().deltas_skipped, 1u) << "cut at " << cut;
    EXPECT_EQ(store->recovery().deltas_applied, 0u) << "cut at " << cut;
    Blockchain chain = store->take_chain();
    EXPECT_EQ(chain.height(), 2) << "cut at " << cut;
    EXPECT_EQ(chain.state_hash(), base_state) << "cut at " << cut;
  }

  // Restored intact, the delta applies and the full state comes back.
  write_file(deltas[0].path, image);
  std::string error;
  auto store = ChainStore::open(h.params, h.opts, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->recovery().deltas_applied, 1u);
  Blockchain chain = store->take_chain();
  EXPECT_EQ(chain.height(), 4);
  EXPECT_EQ(chain.state_hash(), full_state);
}

TEST(ChainStore, DeltaAcrossReorgReopens) {
  StoreHarness h;
  h.opts.snapshot_interval = 2;
  h.reopen();
  h.fund();
  h.pay(3 * chain::kCoin);  // height 4: element boundary right at the block
                            // a reorg is about to disconnect
  const int fork_height = h.chain->height() - 1;

  Blockchain rival(h.params);
  Mempool rival_pool(h.params);
  Miner rival_miner(h.params, Wallet::from_seed("rival-delta").pkh());
  for (int bh = 1; bh <= fork_height; ++bh) {
    ASSERT_EQ(rival.accept_block(*h.chain->block_at(bh)),
              AcceptBlockResult::kConnected);
  }
  std::uint64_t rt = 3000;
  const Block r1 = rival_miner.mine(rival, rival_pool, ++rt);
  ASSERT_EQ(rival.accept_block(r1), AcceptBlockResult::kConnected);
  const Block r2 = rival_miner.mine(rival, rival_pool, ++rt);
  ASSERT_EQ(rival.accept_block(r2), AcceptBlockResult::kConnected);

  ASSERT_EQ(h.chain->accept_block(r1), AcceptBlockResult::kSideChain);
  ASSERT_EQ(h.chain->accept_block(r2), AcceptBlockResult::kReorganized);

  // A delta collected across the reorg window carries the pop of the
  // payment block and the pushes of the rival branch.
  ASSERT_TRUE(h.store->write_delta(*h.chain));
  const chain::Hash256 state = h.chain->state_hash();
  const int height = h.chain->height();

  h.reopen();
  EXPECT_GE(h.store->recovery().deltas_applied, 1u);
  EXPECT_EQ(h.chain->height(), height);
  EXPECT_EQ(h.chain->tip_hash(), r2.hash());
  EXPECT_EQ(h.chain->state_hash(), state);
}

Bytes newest_snapshot_payload(const std::string& dir) {
  const auto listed = list_snapshots(dir);
  if (listed.empty()) return {};
  return load_snapshot_file(listed.front().path, nullptr).value_or(Bytes{});
}

Bytes newest_delta_payload(const std::string& dir) {
  const auto listed = list_delta_files(dir);
  if (listed.empty()) return {};
  return load_delta_file(listed.back().path, nullptr, nullptr)
      .value_or(Bytes{});
}

TEST(ChainStore, StreamedElementsEqualBufferedEncodings) {
  // Bases stream from Blockchain::write_state and deltas from
  // write_state_delta; the files must hold exactly serialize_state() and
  // encode_state_delta(collect_state_delta(...)) — the latter taken on a
  // copy of the chain just before the write. Covers a delta window with a
  // reorg and, with undo pruning on, bases and deltas written after undo
  // was pruned.
  for (const int prune_depth : {-1, 1}) {
    SCOPED_TRACE(prune_depth);
    StoreHarness h;
    h.opts.undo_prune_depth = prune_depth;
    h.reopen();
    std::vector<chain::Hash256> pending;
    h.chain->set_block_sink(
        [&h, &pending](const Block& b, util::ByteView body,
                       const util::Bytes* u) {
          pending.push_back(b.hash());
          return h.store->append_block(b, body, u);
        });
    chain::Hash256 anchor{};
    int anchor_height = -1;
    const auto expect_delta_streams = [&] {
      Blockchain oracle = *h.chain;
      auto delta = oracle.collect_state_delta(anchor, anchor_height, pending);
      ASSERT_TRUE(delta.has_value());
      delta->parent_seq = h.store->last_element_seq();
      delta->next_seq = h.store->next_seq();
      ASSERT_TRUE(h.store->write_delta(*h.chain));
      EXPECT_EQ(newest_delta_payload(h.dir.str()),
                chain::encode_state_delta(*delta));
      EXPECT_EQ(h.chain->state_hash(), oracle.state_hash());
      anchor = h.chain->tip_hash();
      anchor_height = h.chain->height();
      pending.clear();
    };

    h.fund();
    h.pay(2 * chain::kCoin);
    const Bytes base = h.chain->serialize_state(prune_depth);
    ASSERT_TRUE(h.store->write_snapshot(*h.chain));
    EXPECT_EQ(newest_snapshot_payload(h.dir.str()), base);
    anchor = h.chain->tip_hash();
    anchor_height = h.chain->height();
    pending.clear();

    // Window 1: a payment block, then a rival branch that reorganizes it
    // away.
    h.pay(3 * chain::kCoin);
    const int fork_height = h.chain->height() - 1;
    Blockchain rival(h.params);
    Mempool rival_pool(h.params);
    Miner rival_miner(h.params, Wallet::from_seed("rival-stream").pkh());
    for (int bh = 1; bh <= fork_height; ++bh) {
      ASSERT_EQ(rival.accept_block(*h.chain->block_at(bh)),
                AcceptBlockResult::kConnected);
    }
    std::uint64_t rt = 6000;
    const Block r1 = rival_miner.mine(rival, rival_pool, ++rt);
    ASSERT_EQ(rival.accept_block(r1), AcceptBlockResult::kConnected);
    const Block r2 = rival_miner.mine(rival, rival_pool, ++rt);
    ASSERT_EQ(rival.accept_block(r2), AcceptBlockResult::kConnected);
    ASSERT_EQ(h.chain->accept_block(r1), AcceptBlockResult::kSideChain);
    ASSERT_EQ(h.chain->accept_block(r2), AcceptBlockResult::kReorganized);
    expect_delta_streams();

    // Window 2: plain extension after the previous element pruned undo.
    h.mine_blocks(3);
    if (prune_depth >= 0) {
      EXPECT_TRUE(h.chain->undo_pruned_at(1));
    }
    expect_delta_streams();

    // A compacting base over the same chain, then a restart from disk.
    const Bytes folded = h.chain->serialize_state(prune_depth);
    ASSERT_TRUE(h.store->write_snapshot(*h.chain));
    EXPECT_EQ(newest_snapshot_payload(h.dir.str()), folded);
    const chain::Hash256 state = h.chain->state_hash();
    h.reopen();
    EXPECT_EQ(h.chain->state_hash(), state);
  }
}

// Pays `amount` to "alice" from the coinbase of the block at `height`, as
// Wallet::create_payment builds a one-input payment (payee, then change).
// The pinned encodings below name their coins, so they do not depend on how
// coin selection orders equal coins.
void pay_from_coinbase(StoreHarness& h, int height, chain::Amount amount) {
  const Block funding = *h.chain->block_at(height);
  const chain::TxOut& coin = funding.txs.front().vout.front();
  chain::Transaction tx;
  chain::TxIn in;
  in.prevout = chain::OutPoint{funding.txs.front().txid(), 0};
  tx.vin.push_back(std::move(in));
  chain::TxOut pay;
  pay.value = amount;
  pay.script_pubkey = script::make_p2pkh(Wallet::from_seed("alice").pkh());
  tx.vout.push_back(std::move(pay));
  chain::TxOut change;
  change.value = coin.value - amount - 1000;
  change.script_pubkey = coin.script_pubkey;
  tx.vout.push_back(std::move(change));
  h.wallet.sign_p2pkh_input(tx, 0, coin.script_pubkey);
  ASSERT_TRUE(h.pool.accept(tx, h.chain->utxo(), h.chain->height() + 1).ok());
  h.mine_block();
}

TEST(ChainStore, ElementAndLogEncodingsPinned) {
  // The on-disk formats must not drift: a fixed chain with a reorg, one
  // base, two deltas and the block log behind them hash to a recorded
  // digest. (Blocks are stored serialized in memory; the files must stay
  // exactly what the Block-object store wrote.)
  StoreHarness h;
  h.reopen();
  h.fund();
  pay_from_coinbase(h, 1, 2 * chain::kCoin);
  ASSERT_TRUE(h.store->write_snapshot(*h.chain));
  pay_from_coinbase(h, 2, 3 * chain::kCoin);
  const int fork_height = h.chain->height() - 1;
  Blockchain rival(h.params);
  Mempool rival_pool(h.params);
  Miner rival_miner(h.params, Wallet::from_seed("rival-pin").pkh());
  for (int bh = 1; bh <= fork_height; ++bh) {
    ASSERT_EQ(rival.accept_block(*h.chain->block_at(bh)),
              AcceptBlockResult::kConnected);
  }
  std::uint64_t rt = 7000;
  const Block r1 = rival_miner.mine(rival, rival_pool, ++rt);
  ASSERT_EQ(rival.accept_block(r1), AcceptBlockResult::kConnected);
  const Block r2 = rival_miner.mine(rival, rival_pool, ++rt);
  ASSERT_EQ(rival.accept_block(r2), AcceptBlockResult::kConnected);
  ASSERT_EQ(h.chain->accept_block(r1), AcceptBlockResult::kSideChain);
  ASSERT_EQ(h.chain->accept_block(r2), AcceptBlockResult::kReorganized);
  ASSERT_TRUE(h.store->write_delta(*h.chain));
  h.mine_blocks(3);
  ASSERT_TRUE(h.store->write_delta(*h.chain));

  crypto::Sha256 acc;
  acc.update(newest_snapshot_payload(h.dir.str()));
  const auto deltas = list_delta_files(h.dir.str());
  ASSERT_EQ(deltas.size(), 2u);
  for (const auto& d : deltas)
    acc.update(load_delta_file(d.path, nullptr, nullptr).value_or(Bytes{}));
  acc.update(read_file(h.log_path()));
  acc.update(h.chain->serialize_state());
  const crypto::Digest256 digest = acc.finalize();
  EXPECT_EQ(util::to_hex(util::ByteView(digest.data(), digest.size())),
            "62f1cc3815890b5cf8cf9d27938f1438d0ede6eb8dde0aec8913e04e22c10a4f");
}

TEST(Blockchain, DrainedStateDumpMatchesBuffered) {
  StoreHarness h;
  h.fund();
  h.pay(chain::kCoin);
  Bytes streamed;
  std::size_t drains = 0;
  util::Writer w;
  w.drain_to(
      [&](util::ByteView chunk) {
        streamed.insert(streamed.end(), chunk.begin(), chunk.end());
        ++drains;
      },
      1);
  h.chain->write_state(w);
  w.flush();
  EXPECT_EQ(streamed, h.chain->serialize_state());
  EXPECT_GT(drains, 1u);
}

TEST(ChainStore, UndoPruneRefusesReorgPastPrunedBlocks) {
  StoreHarness h;
  h.opts.snapshot_interval = 2;
  h.opts.undo_prune_depth = 2;
  h.reopen();
  h.mine_blocks(8);  // element writes prune undo buried deeper than 2
  ASSERT_TRUE(h.chain->undo_pruned_at(1));
  const chain::Hash256 tip = h.chain->tip_hash();

  // A rival branch from genesis that outgrows the active chain would have
  // to disconnect pruned blocks: the reorg must be refused, tip unchanged.
  Blockchain rival(h.params);
  Mempool rival_pool(h.params);
  Miner rival_miner(h.params, Wallet::from_seed("deep-rival").pkh());
  std::uint64_t rt = 4000;
  std::vector<Block> branch;
  for (int i = 0; i < 9; ++i) {
    const Block b = rival_miner.mine(rival, rival_pool, ++rt);
    ASSERT_EQ(rival.accept_block(b), AcceptBlockResult::kConnected);
    branch.push_back(b);
  }
  for (const Block& b : branch) {
    EXPECT_EQ(h.chain->accept_block(b), AcceptBlockResult::kSideChain);
  }
  EXPECT_EQ(h.chain->tip_hash(), tip);

  // The pruned watermark survives a restart and still refuses the reorg.
  h.reopen();
  EXPECT_TRUE(h.chain->undo_pruned_at(1));
  std::uint64_t rt2 = 5000;
  const Block b10 = rival_miner.mine(rival, rival_pool, ++rt2);
  ASSERT_EQ(rival.accept_block(b10), AcceptBlockResult::kConnected);
  for (const Block& b : branch) (void)h.chain->accept_block(b);
  EXPECT_EQ(h.chain->accept_block(b10), AcceptBlockResult::kSideChain);
  EXPECT_EQ(h.chain->tip_hash(), tip);

  // The chain itself still extends normally.
  h.mine_block();
  EXPECT_EQ(h.chain->height(), 9);
}

// --- Bodies and undo on disk ---

/// Every active block's body and undo, read back through the chain's
/// checked reads (hash / CRC).
std::vector<Bytes> active_records(const Blockchain& chain) {
  std::vector<Bytes> out;
  for (int height = 0; height <= chain.height(); ++height) {
    const auto body = chain.block_bytes_at(height);
    EXPECT_TRUE(body.has_value()) << height;
    if (!body) continue;
    const chain::Hash256& hash =
        chain.active_chain()[static_cast<std::size_t>(height)];
    EXPECT_EQ(chain::block_hash_of(*body), hash);
    const auto undo = chain.undo_for(hash);
    EXPECT_TRUE(undo.has_value()) << height;
    util::Writer w;
    if (undo) chain::write_undo(w, *undo);
    out.push_back(*body);
    out.push_back(w.take());
  }
  return out;
}

TEST(ChainStore, BodiesAndUndoLiveOnDisk) {
  StoreHarness h;
  h.opts.snapshot_interval = 3;
  h.reopen();
  h.fund();
  for (int i = 0; i < 13; ++i) h.pay(chain::kCoin / 4);
  // A base, deltas and a log tail: nothing stays in memory.
  ASSERT_GT(h.store->last_element_seq(), 0u);
  ASSERT_GT(h.store->log_bytes(), kFileHeaderBytes);
  EXPECT_EQ(h.chain->files().memory_bytes(), 0u);
  const std::vector<Bytes> before = active_records(*h.chain);
  const chain::Hash256 state = h.chain->state_hash();

  h.reopen();
  EXPECT_GT(h.store->recovery().deltas_applied, 0u);
  EXPECT_GT(h.store->recovery().replayed_blocks, 0u);
  EXPECT_EQ(h.chain->files().memory_bytes(), 0u);
  EXPECT_EQ(active_records(*h.chain), before);
  EXPECT_EQ(h.chain->state_hash(), state);
  // A full base moves every record into it; the log is rotated under them.
  ASSERT_TRUE(h.store->write_snapshot(*h.chain));
  EXPECT_EQ(h.chain->files().memory_bytes(), 0u);
  EXPECT_EQ(active_records(*h.chain), before);
  h.mine_blocks(2);
  h.reopen();
  EXPECT_EQ(h.chain->files().memory_bytes(), 0u);
  EXPECT_EQ(h.chain->height(), 18);
}

TEST(ChainStore, CorruptStoredBodyOrUndoFailsLoudly) {
  StoreHarness h;
  h.fund();
  h.pay(chain::kCoin);
  // The tip's record is the log's last, so its undo ends the file.
  const chain::Hash256 tip = h.chain->tip_hash();
  const Bytes body = *h.chain->block_bytes_at(h.chain->height());
  const std::uint64_t log_size = fs::file_size(h.log_path());
  ASSERT_TRUE(flip_log_byte(h.log_path(), log_size - 1));
  EXPECT_THROW((void)h.chain->undo_for(tip), std::runtime_error);
  ASSERT_TRUE(flip_log_byte(h.log_path(), log_size - 1));
  EXPECT_TRUE(h.chain->undo_for(tip).has_value());

  const Bytes log = read_file(h.log_path());
  const auto at = std::search(log.begin(), log.end(), body.begin(), body.end());
  ASSERT_NE(at, log.end());
  // A header byte: the read no longer hashes to the block.
  ASSERT_TRUE(flip_log_byte(h.log_path(),
                            static_cast<std::uint64_t>(at - log.begin()) + 4));
  EXPECT_THROW((void)h.chain->block_at(h.chain->height()), std::runtime_error);
  EXPECT_THROW((void)h.chain->block_bytes_at(h.chain->height()),
               std::runtime_error);
}

TEST(ChainStore, OpenRemovesStaleElementTmpFiles) {
  StoreHarness h;
  h.opts.snapshot_interval = 2;
  h.reopen();
  h.mine_blocks(5);
  const chain::Hash256 state = h.chain->state_hash();
  h.crash();
  // A kill between creating an element's tmp and its rename.
  const fs::path base_tmp = h.dir.path / "snapshot-00000000000000000009.snap.tmp";
  const fs::path delta_tmp =
      h.dir.path / "delta-00000000000000000005-00000000000000000009.snap.tmp";
  const fs::path unrelated = h.dir.path / "notes.tmp";
  for (const fs::path& p : {base_tmp, delta_tmp, unrelated})
    write_file(p.string(), util::str_bytes("half-written"));

  h.open();
  EXPECT_FALSE(fs::exists(base_tmp));
  EXPECT_FALSE(fs::exists(delta_tmp));
  EXPECT_TRUE(fs::exists(unrelated));  // not an element's: left alone
  EXPECT_EQ(h.chain->height(), 5);
  EXPECT_EQ(h.chain->state_hash(), state);
  EXPECT_EQ(h.store->recovery().replayed_blocks, 1u);
}

TEST(ChainStore, HeapPerConnectedTxStaysSmall) {
#ifndef BCWAN_HEAP_ACCOUNTING
  GTEST_SKIP() << "needs glibc mallinfo2 and the glibc allocator";
#else
  // A persistent chain keeps headers and the UTXO set in memory; bodies and
  // undo (~540 B/tx when they were heap-resident) live in the store's
  // files. There is no tx index, and a connect consumes the script-exec
  // cache entries its mempool admission made.
  StoreHarness h;
  h.opts.snapshot_interval = 16;
  h.opts.fsync_each_append = false;
  h.reopen();
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  constexpr int kTxsPerBlock = 8;
  const auto mine_laden = [&](int blocks) {
    for (int b = 0; b < blocks; ++b) {
      for (int i = 0; i < kTxsPerBlock; ++i) {
        const auto tx = h.wallet.create_payment(*h.chain, &h.pool, alice.pkh(),
                                                chain::kCoin / 1000, 1000);
        ASSERT_TRUE(tx.has_value());
        ASSERT_TRUE(
            h.pool.accept(*tx, h.chain->utxo(), h.chain->height() + 1).ok());
      }
      h.mine_block();
    }
  };
  mine_laden(40);  // warm-up: caches and arenas reach their working size
  const std::size_t before = ::mallinfo2().uordblks;
  constexpr int kBlocks = 300;
  mine_laden(kBlocks);
  const std::size_t after = ::mallinfo2().uordblks;
  const double per_tx =
      (static_cast<double>(after) - static_cast<double>(before)) /
      (kBlocks * (kTxsPerBlock + 1));
  RecordProperty("heap_bytes_per_tx", static_cast<int>(per_tx));
  std::printf("heap growth per connected tx: %.0f B\n", per_tx);
  EXPECT_LT(per_tx, 250.0);
  EXPECT_EQ(h.chain->files().memory_bytes(), 0u);
  EXPECT_LE(chain::script_exec_cache().size(), h.pool.size());
#endif
}

/// The `persistence` example's workload: block time == height, and every
/// 5th block carries a miner payment whose amount follows the height.
void mine_paying(Blockchain& chain, ChainStore* store, int target) {
  Mempool pool(chain.params());
  const Wallet miner_wallet = Wallet::from_seed("miner");
  const Wallet alice = Wallet::from_seed("alice");
  const Miner miner(chain.params(), miner_wallet.pkh());
  while (chain.height() < target) {
    const int next = chain.height() + 1;
    if (next % 5 == 0) {
      const chain::Amount amount =
          (static_cast<chain::Amount>(next % 7) + 1) * chain::kCoin / 10;
      const auto tx =
          miner_wallet.create_payment(chain, &pool, alice.pkh(), amount, 1000);
      ASSERT_TRUE(tx.has_value());
      ASSERT_TRUE(pool.accept(*tx, chain.utxo(), next).ok());
    }
    const Block block =
        miner.mine(chain, pool, static_cast<std::uint64_t>(next));
    ASSERT_EQ(chain.accept_block(block), AcceptBlockResult::kConnected);
    pool.remove_confirmed(block);
    if (store != nullptr) store->maybe_snapshot(chain);
  }
}

TEST(ChainStore, DeltaRestoredChainSelectsCoinsLikeLiveChain) {
  // `persistence` with elements every 2 blocks, killed right after the
  // height-4 delta: the resumed chain comes back through apply_state_delta
  // and must pay from the same equal-value coinbases as a live chain.
  Blockchain live(test_params());
  mine_paying(live, nullptr, 30);

  StoreHarness h;
  h.opts.snapshot_interval = 2;
  h.reopen();
  mine_paying(*h.chain, h.store.get(), 4);
  ASSERT_EQ(h.store->recovery().deltas_applied, 0u);
  h.reopen();
  ASSERT_EQ(h.store->recovery().deltas_applied, 1u);
  ASSERT_EQ(h.store->recovery().replayed_blocks, 0u);
  mine_paying(*h.chain, h.store.get(), 30);
  EXPECT_EQ(h.chain->tip_hash(), live.tip_hash());
  EXPECT_EQ(h.chain->state_hash(), live.state_hash());
}

/// Wallet::spendable by a full UTXO walk, filtered and ordered as it
/// promises: the oracle for the wallet's coin cache.
std::vector<std::pair<chain::OutPoint, chain::Coin>> spendable_by_walk(
    const Wallet& wallet, const Blockchain& chain, const Mempool* pool) {
  const script::Script own = script::make_p2pkh(wallet.pkh());
  std::vector<std::pair<chain::OutPoint, chain::Coin>> coins;
  chain.utxo().for_each([&](const chain::OutPoint& op, const chain::Coin& c) {
    if (!(c.out.script_pubkey == own)) return;
    if (c.coinbase &&
        chain.height() + 1 - c.height < chain.params().coinbase_maturity) {
      return;
    }
    if (pool == nullptr || !pool->spends(op)) coins.emplace_back(op, c);
  });
  if (pool != nullptr) {
    pool->for_each([&](const chain::Transaction& tx) {
      for (std::uint32_t v = 0; v < tx.vout.size(); ++v) {
        const chain::OutPoint op{tx.txid(), v};
        if (tx.vout[v].script_pubkey == own && !pool->spends(op))
          coins.emplace_back(op, chain::Coin{tx.vout[v], chain.height() + 1,
                                             false});
      }
    });
  }
  std::sort(coins.begin(), coins.end(), [](const auto& a, const auto& b) {
    if (a.second.out.value != b.second.out.value)
      return a.second.out.value > b.second.out.value;
    if (a.first.txid != b.first.txid) return a.first.txid < b.first.txid;
    return a.first.index < b.first.index;
  });
  return coins;
}

TEST(Wallet, CoinCacheMatchesUtxoWalk) {
  // The wallet's own-coin cache against a full UTXO walk after connects,
  // mempool churn, a multi-block reorg and a store reopen. While the chain
  // only extends, the cache catches up block by block: no second walk.
  StoreHarness h;
  h.opts.snapshot_interval = 4;
  h.reopen();
  const Wallet alice = Wallet::from_seed("alice");
  const Wallet bob = Wallet::from_seed("bob");
  const auto check = [&](const char* step) {
    for (const Wallet* w : {&std::as_const(h.wallet), &alice, &bob}) {
      EXPECT_EQ(w->spendable(*h.chain, &h.pool),
                spendable_by_walk(*w, *h.chain, &h.pool))
          << step;
      EXPECT_EQ(w->spendable(*h.chain), spendable_by_walk(*w, *h.chain, nullptr))
          << step;
    }
  };
  const auto admit = [&](const std::optional<chain::Transaction>& tx) {
    ASSERT_TRUE(tx.has_value());
    ASSERT_TRUE(h.pool.accept(*tx, h.chain->utxo(), h.chain->height() + 1).ok());
  };
  const auto rebuilds = [&] {
    return h.wallet.coin_rebuilds() + alice.coin_rebuilds() +
           bob.coin_rebuilds();
  };

  h.fund();
  check("funded");
  EXPECT_EQ(rebuilds(), 3u);  // each wallet's first call walks once

  // Connects: payments, chained unconfirmed spends, intra-block spends.
  for (int b = 0; b < 6; ++b) {
    admit(h.wallet.create_payment(*h.chain, &h.pool, alice.pkh(),
                                  (b + 1) * chain::kCoin / 10, 1000));
    check("pool: payment");
    admit(alice.create_payment(*h.chain, &h.pool, bob.pkh(),
                               chain::kCoin / 100, 1000));
    check("pool: chained spend of an unconfirmed credit");
    h.mine_block();
    check("connected");
  }
  admit(bob.create_payment(*h.chain, &h.pool, h.wallet.pkh(),
                           chain::kCoin / 1000, 1000));
  h.mine_blocks(2);
  check("extended");
  EXPECT_EQ(rebuilds(), 3u);

  // Mempool churn: admitted, then dropped without confirming.
  admit(alice.create_payment(*h.chain, &h.pool, bob.pkh(), chain::kCoin / 50,
                             1000));
  check("pool: admitted");
  h.pool.clear();
  check("pool: cleared");
  EXPECT_EQ(rebuilds(), 3u);

  // A three-block reorg onto a branch that pays bob instead.
  const int fork = h.chain->height() - 3;
  Blockchain branch(h.params);
  for (int height = 1; height <= fork; ++height)
    ASSERT_EQ(branch.accept_block(*h.chain->block_at(height)),
              AcceptBlockResult::kConnected);
  Mempool branch_pool(h.params);
  const auto to_bob = h.wallet.create_payment(branch, &branch_pool, bob.pkh(),
                                              3 * chain::kCoin, 1000);
  ASSERT_TRUE(to_bob.has_value());
  ASSERT_TRUE(
      branch_pool.accept(*to_bob, branch.utxo(), branch.height() + 1).ok());
  for (int i = 0; i < 4; ++i) {
    const Block block = h.miner.mine(branch, branch_pool, 5000 + i);
    ASSERT_EQ(branch.accept_block(block), AcceptBlockResult::kConnected);
    branch_pool.remove_confirmed(block);
    h.chain->accept_block(block);
  }
  ASSERT_EQ(h.chain->tip_hash(), branch.tip_hash());
  check("reorganized");
  // The miner's wallet walked `branch` and then the chain again; the reorg
  // took every other synced tip off the active chain.
  EXPECT_EQ(rebuilds(), 7u);

  // A store reopen recovers the same chain in place: each cache's synced
  // tip is still active, so the caches carry on without a walk.
  h.reopen();
  check("reopened");
  h.mine_blocks(2);
  admit(h.wallet.create_payment(*h.chain, &h.pool, bob.pkh(), chain::kCoin,
                                1000));
  h.mine_block();
  check("extended after reopen");
  EXPECT_EQ(rebuilds(), 7u);
}

// --- Blockchain state serialization ---

TEST(Blockchain, StateSerializationRoundTrip) {
  StoreHarness h;
  h.fund();
  h.pay(2 * chain::kCoin);

  const Bytes state = h.chain->serialize_state();
  const testutil::PayloadOnDisk state_file(state);
  const auto restored =
      Blockchain::restore_state(h.params, state, state_file.file());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->height(), h.chain->height());
  EXPECT_EQ(restored->tip_hash(), h.chain->tip_hash());
  EXPECT_EQ(restored->state_hash(), h.chain->state_hash());
  EXPECT_EQ(restored->active_chain(), h.chain->active_chain());
  EXPECT_EQ(restored->block_bytes_at(restored->height()),
            h.chain->block_bytes_at(h.chain->height()));
}

TEST(Blockchain, RestoreStateRejectsMalformedInput) {
  StoreHarness h;
  h.mine_blocks(2);
  Bytes state = h.chain->serialize_state();

  const auto restore = [](const ChainParams& params, const Bytes& dump) {
    const testutil::PayloadOnDisk dump_file(dump);
    return Blockchain::restore_state(params, dump, dump_file.file());
  };
  ASSERT_TRUE(restore(h.params, state).has_value());
  EXPECT_FALSE(restore(h.params, Bytes{}).has_value());
  Bytes truncated(state.begin(), state.begin() + state.size() / 2);
  EXPECT_FALSE(restore(h.params, truncated).has_value());
  Bytes trailing = state;
  trailing.push_back(0x00);
  EXPECT_FALSE(restore(h.params, trailing).has_value());

  // Foreign genesis: restoring under different consensus params must fail
  // (the federation's deterministic genesis no longer matches).
  ChainParams other = h.params;
  other.block_reward = h.params.block_reward + 1;
  EXPECT_FALSE(restore(other, state).has_value());
  // A dump whose file cannot be opened restores nothing.
  EXPECT_FALSE(Blockchain::restore_state(h.params, state,
                                         {h.dir.str() + "/missing", 0})
                   .has_value());
}

TEST(UtxoSet, SerializationIsCanonical) {
  StoreHarness h;
  h.fund();
  h.pay(chain::kCoin);
  const chain::UtxoSet& utxo = h.chain->utxo();
  const Bytes raw = utxo.serialize();
  const auto back = chain::UtxoSet::deserialize(raw);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), utxo.size());
  EXPECT_EQ(back->state_hash(), utxo.state_hash());
  EXPECT_EQ(back->serialize(), raw);  // canonical: same bytes either way
  EXPECT_EQ(back->total_value(), utxo.total_value());
}

TEST(UtxoSet, StreamedLengthPrefixedFormMatchesSerialize) {
  // write_var precomputes the var_bytes length; cover every varint width of
  // the prefix and scripts on both sides of the one-byte varint limit.
  for (const std::uint32_t coins : {0u, 3u, 2000u}) {
    chain::UtxoSet set;
    for (std::uint32_t i = 0; i < coins; ++i) {
      chain::OutPoint op;
      op.txid[0] = static_cast<std::uint8_t>(i);
      op.txid[1] = static_cast<std::uint8_t>(i >> 8);
      op.index = i % 5;
      chain::Coin coin;
      coin.out.value = i;
      coin.out.script_pubkey =
          script::Script(Bytes(i % 7 == 0 ? 300 : i % 40, 0x51));
      coin.height = static_cast<int>(i);
      coin.coinbase = i % 2 == 0;
      set.add(op, coin);
    }
    util::Writer expected;
    expected.var_bytes(set.serialize());
    Bytes streamed;
    util::Writer w;
    w.drain_to(
        [&streamed](util::ByteView chunk) {
          streamed.insert(streamed.end(), chunk.begin(), chunk.end());
        },
        64);
    set.write_var(w);
    w.flush();
    EXPECT_EQ(streamed, expected.data()) << coins;
  }
}

TEST(UtxoSet, JournalEmitsNetDiffOnly) {
  chain::UtxoSet set;
  const auto op = [](std::uint8_t tag, std::uint32_t index) {
    chain::OutPoint o;
    o.txid.fill(tag);
    o.index = index;
    return o;
  };
  const chain::Coin coin{chain::TxOut{50, {}}, 1, false};
  set.add(op(0xAA, 0), coin);
  set.add(op(0xBB, 0), coin);

  set.begin_journal();
  ASSERT_TRUE(set.journal_enabled());
  // Net effect: 0xAA spent, 0xCC added. 0xDD is churn (added then spent
  // inside the window) and must cancel out of the diff entirely.
  ASSERT_TRUE(set.spend(op(0xAA, 0)).has_value());
  set.add(op(0xCC, 2), coin);
  set.add(op(0xDD, 1), coin);
  ASSERT_TRUE(set.spend(op(0xDD, 1)).has_value());

  const chain::UtxoJournal diff = set.take_journal();
  ASSERT_EQ(diff.spent.size(), 1u);
  EXPECT_EQ(diff.spent[0], op(0xAA, 0));
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0].first, op(0xCC, 2));
  // The window restarted: an untouched window is an empty diff.
  const chain::UtxoJournal empty = set.take_journal();
  EXPECT_TRUE(empty.spent.empty());
  EXPECT_TRUE(empty.added.empty());
}

TEST(Validation, UndoSerializationRoundTrip) {
  StoreHarness h;
  h.fund();
  h.pay(chain::kCoin);
  const auto undo = h.chain->undo_for(h.chain->tip_hash());
  ASSERT_TRUE(undo.has_value());
  ASSERT_FALSE(undo->spent.empty());

  util::Writer w;
  chain::write_undo(w, *undo);
  util::Reader r(w.data());
  const chain::BlockUndo back = chain::read_undo(r);
  r.expect_done();
  EXPECT_EQ(back, *undo);
}

// --- ChainNode crash/restart ---

struct NodeHarness {
  ChainParams params = test_params();
  TempDir dir;
  p2p::EventLoop loop;
  p2p::SimNet net{loop, 7};
  std::vector<std::unique_ptr<p2p::ChainNode>> nodes;
  Wallet wallet = Wallet::from_seed("miner");
  Miner miner{params, wallet.pkh()};
  std::uint64_t now = 0;

  /// node 0: persistent; node 1: in-memory peer.
  NodeHarness() {
    p2p::ChainNodeConfig persistent;
    persistent.store_dir = (dir.path / "node0").string();
    nodes.push_back(std::make_unique<p2p::ChainNode>(
        net, net.add_host("node0"), params, persistent, 100));
    nodes.push_back(std::make_unique<p2p::ChainNode>(
        net, net.add_host("node1"), params, p2p::ChainNodeConfig{}, 101));
  }

  void mine_on(int i) {
    auto& node = *nodes[i];
    const Block block = miner.mine(node.chain(), node.mempool(), ++now);
    ASSERT_EQ(node.submit_block(block), AcceptBlockResult::kConnected);
    loop.run();
  }
};

TEST(ChainNode, PersistentRestartRecoversFromDisk) {
  NodeHarness h;
  for (int i = 0; i < 5; ++i) h.mine_on(0);
  const chain::Hash256 state = h.nodes[0]->chain().state_hash();

  h.nodes[0]->crash();
  EXPECT_TRUE(h.nodes[0]->crashed());
  ASSERT_TRUE(h.nodes[0]->restart());
  EXPECT_EQ(h.nodes[0]->chain().state_hash(), state);
  EXPECT_EQ(h.nodes[0]->last_recovery().replayed_blocks, 5u);

  // Still a functioning daemon after recovery.
  h.mine_on(0);
  EXPECT_EQ(h.nodes[0]->chain().height(), 6);
  EXPECT_EQ(h.nodes[1]->chain().height(), 6);  // gossip still flows
}

TEST(ChainNode, CrashedNodeIgnoresTraffic) {
  NodeHarness h;
  h.mine_on(0);
  h.nodes[0]->crash();
  const int before = h.nodes[0]->chain().height();
  h.mine_on(1);  // gossip lands while node 0 is dead
  EXPECT_EQ(h.nodes[0]->chain().height(), before);
  ASSERT_TRUE(h.nodes[0]->restart());
  // The missed block arrives via catch-up when the next one gossips.
  h.mine_on(1);
  EXPECT_EQ(h.nodes[0]->chain().height(), h.nodes[1]->chain().height());
}

TEST(ChainNode, InMemoryRestartResetsAndResyncs) {
  NodeHarness h;
  for (int i = 0; i < 3; ++i) h.mine_on(0);
  ASSERT_EQ(h.nodes[1]->chain().height(), 3);
  h.nodes[1]->crash();
  ASSERT_TRUE(h.nodes[1]->restart());
  EXPECT_EQ(h.nodes[1]->chain().height(), 0);  // no disk: genesis reboot
  h.mine_on(0);  // next gossip block is an orphan -> catch-up sync
  EXPECT_EQ(h.nodes[1]->chain().height(), 4);
}

TEST(ChainNode, TornStoreTailRecovers) {
  NodeHarness h;
  for (int i = 0; i < 4; ++i) h.mine_on(0);
  h.nodes[0]->crash();
  ASSERT_GT(h.nodes[0]->tear_store_tail(5), 0u);
  ASSERT_TRUE(h.nodes[0]->restart());
  // Shearing 5 bytes leaves a partial tail record; recovery truncates the
  // whole remainder of that record, not just the missing bytes.
  EXPECT_GT(h.nodes[0]->last_recovery().truncated_bytes, 0u);
  EXPECT_EQ(h.nodes[0]->chain().height(), 3);  // tip block was torn
  // Catch-up sync restores the lost tip on the next gossip round.
  h.mine_on(1);
  EXPECT_EQ(h.nodes[0]->chain().height(), 5);
  EXPECT_EQ(h.nodes[0]->chain().state_hash(),
            h.nodes[1]->chain().state_hash());
}

}  // namespace
}  // namespace bcwan::store
