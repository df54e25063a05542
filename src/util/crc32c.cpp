#include "util/crc32c.hpp"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#define BCWAN_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace bcwan::util {
namespace {

// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

std::uint32_t extend_table(std::uint32_t crc, util::ByteView data) {
  crc = ~crc;
  for (const std::uint8_t byte : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xFFu];
  }
  return ~crc;
}

#if BCWAN_CRC32C_X86
__attribute__((target("sse4.2"))) std::uint32_t extend_sse42(
    std::uint32_t crc, util::ByteView data) {
  crc = ~crc;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, p, 8);
    crc = static_cast<std::uint32_t>(_mm_crc32_u64(crc, word));
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p);
    ++p;
    --n;
  }
  return ~crc;
}

bool have_sse42() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}
#endif

}  // namespace

std::uint32_t crc32c_extend(std::uint32_t crc, util::ByteView data) {
#if BCWAN_CRC32C_X86
  if (have_sse42()) return extend_sse42(crc, data);
#endif
  return extend_table(crc, data);
}

std::uint32_t crc32c(util::ByteView data) { return crc32c_extend(0, data); }

const char* crc32c_backend() {
#if BCWAN_CRC32C_X86
  if (have_sse42()) return "sse42";
#endif
  return "table";
}

}  // namespace bcwan::util
