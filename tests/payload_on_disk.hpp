// A snapshot dump or delta payload written to a temp file, for tests that
// call Blockchain::restore_state / apply_state_delta directly: the chain
// points its bodies and undo into the file it restored from, as it does
// with the store's element files.
#pragma once

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "chain/block_files.hpp"
#include "util/bytes.hpp"

namespace bcwan::testutil {

class PayloadOnDisk {
 public:
  explicit PayloadOnDisk(util::ByteView bytes) {
    path_ = (std::filesystem::temp_directory_path() / "bcwan-payload-XXXXXX")
                .string();
    const int fd = ::mkstemp(path_.data());
    if (fd < 0) throw std::runtime_error("cannot create " + path_);
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    ::close(fd);
    if (done != bytes.size()) throw std::runtime_error("cannot write " + path_);
  }
  // A chain that opened the file keeps reading it through its descriptor.
  ~PayloadOnDisk() { ::unlink(path_.c_str()); }
  PayloadOnDisk(const PayloadOnDisk&) = delete;
  PayloadOnDisk& operator=(const PayloadOnDisk&) = delete;

  chain::PayloadFile file() const { return {path_, 0}; }

 private:
  std::string path_;
};

}  // namespace bcwan::testutil
