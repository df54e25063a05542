#include "chain/block_files.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace bcwan::chain {

BlockFiles::Fd::~Fd() {
  if (fd >= 0) ::close(fd);
}

std::uint32_t BlockFiles::open(const std::string& path, bool pinned) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  File file{std::make_shared<const Fd>(fd), path, 0, pinned};
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].fd == nullptr) {
      files_[i] = std::move(file);
      return static_cast<std::uint32_t>(i + 1);
    }
  }
  files_.push_back(std::move(file));
  return static_cast<std::uint32_t>(files_.size());
}

Extent BlockFiles::keep(util::Bytes bytes) {
  if (bytes.empty()) return {};
  bytes.shrink_to_fit();
  memory_bytes_ += bytes.size();
  const auto len = static_cast<std::uint32_t>(bytes.size());
  if (!free_slots_.empty()) {
    const std::uint64_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(bytes);
    return Extent{slot, len, 0};
  }
  slots_.push_back(std::move(bytes));
  return Extent{slots_.size() - 1, len, 0};
}

void BlockFiles::assign(Extent& slot, const Extent& next) {
  if (!next.empty() && next.file != 0) ++files_.at(next.file - 1).refs;
  if (!slot.empty()) {
    if (slot.file == 0) {
      memory_bytes_ -= slots_[slot.offset].size();
      slots_[slot.offset] = util::Bytes{};
      free_slots_.push_back(slot.offset);
    } else {
      File& file = files_.at(slot.file - 1);
      if (--file.refs == 0 && !file.pinned) file.fd.reset();
    }
  }
  slot = next;
}

util::Bytes BlockFiles::read(const Extent& e) const {
  if (e.empty()) return {};
  if (e.file == 0) return slots_.at(e.offset);
  const File& file = files_.at(e.file - 1);
  if (file.fd == nullptr)
    throw std::runtime_error("block files: read from closed " + file.path);
  util::Bytes out(e.len);
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n =
        ::pread(file.fd->fd, out.data() + done, out.size() - done,
                static_cast<off_t>(e.offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error("block files: short read of " +
                               std::to_string(e.len) + " bytes at " +
                               std::to_string(e.offset) + " in " + file.path);
    }
    done += static_cast<std::size_t>(n);
  }
  return out;
}

const util::Bytes* BlockFiles::memory(const Extent& e) const {
  if (e.empty() || e.file != 0) return nullptr;
  return &slots_.at(e.offset);
}

std::uint64_t BlockFiles::refs(std::uint32_t file) const {
  if (file == 0 || file > files_.size()) return 0;
  return files_[file - 1].refs;
}

}  // namespace bcwan::chain
