// Where a chain's stored block bodies and undo records live.
//
// Blockchain keeps one Extent per stored body and per undo record, not the
// bytes. A persistent chain's extents point into the store's own files: the
// block log for blocks appended since the last snapshot element, the delta
// or base element for older ones. Reads pread into a fresh buffer, so the
// bytes cost page cache, not heap. Bytes with no file home sit in
// in-memory slots of the same table: every record of a storeless chain, a
// block's body and undo between its connect and the block sink's append,
// and undo a reorg recomputed (written out by the next element).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace bcwan::chain {

/// A record's place. `len == 0` is the empty record. `file == 0` is an
/// in-memory slot (`offset` is its index); otherwise `offset` is the byte
/// offset in the file BlockFiles registered under that id.
struct Extent {
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  std::uint32_t file = 0;

  bool empty() const noexcept { return len == 0; }
};

/// A record's position inside an element payload (decoded or being
/// written); the element's file offset turns it into an Extent.
struct PayloadRange {
  std::uint64_t at = 0;
  std::uint32_t len = 0;
};

/// An element payload as it sits in its file: a chain restored or rolled
/// forward from it points its records into `path` instead of copying them.
struct PayloadFile {
  std::string path;
  std::uint64_t payload_offset = 0;

  Extent extent(std::uint32_t file, const PayloadRange& r) const {
    return Extent{payload_offset + r.at, r.len, file};
  }
};

/// The table behind Extents: open files (shared between copies of a
/// chain) and in-memory slots (copied with it).
class BlockFiles {
 public:
  /// Open `path` read-only; its id for extents, 0 if it cannot be opened.
  /// An unpinned file is closed once no extent points into it any more. A
  /// pinned one (the block log, which keeps growing) stays open.
  std::uint32_t open(const std::string& path, bool pinned = false);

  /// Keep `bytes` in an in-memory slot. Empty bytes give the empty extent.
  Extent keep(util::Bytes bytes);

  /// Point `slot` at `next` and let go of what it held: a memory slot's
  /// bytes are freed, a file loses a reference. `next` must be a fresh
  /// keep() result or a file extent.
  void assign(Extent& slot, const Extent& next);

  /// The bytes at `e`, in a fresh buffer. Throws std::runtime_error when
  /// the file is closed or shorter than the extent.
  util::Bytes read(const Extent& e) const;

  /// The bytes of an in-memory extent; nullptr for file and empty extents.
  const util::Bytes* memory(const Extent& e) const;

  /// Extents pointing into `file`.
  std::uint64_t refs(std::uint32_t file) const;

  /// Bytes held in in-memory slots.
  std::uint64_t memory_bytes() const noexcept { return memory_bytes_; }

 private:
  struct Fd {
    int fd = -1;
    explicit Fd(int f) : fd(f) {}
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;
    ~Fd();
  };
  struct File {
    std::shared_ptr<const Fd> fd;  // null once closed
    std::string path;
    std::uint64_t refs = 0;
    bool pinned = false;
  };

  std::vector<File> files_;  // id - 1; a closed entry is reused
  std::vector<util::Bytes> slots_;
  std::vector<std::uint64_t> free_slots_;
  std::uint64_t memory_bytes_ = 0;
};

}  // namespace bcwan::chain
