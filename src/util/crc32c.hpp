// CRC-32C (Castagnoli) — integrity checksum for the on-disk block log,
// chainstate snapshots, wire frames and the undo records a chain reads back
// from disk. Chosen over plain CRC-32 for its better error
// detection on short records and for hardware support (SSE4.2 CRC32
// instruction) on the x86 gateways this simulates.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace bcwan::util {

/// One-shot CRC-32C of a buffer.
std::uint32_t crc32c(util::ByteView data);

/// Streaming form: feed `crc` from a previous call (start from 0) to extend
/// the checksum over multiple buffers, e.g. crc32c(seq bytes) then payload.
std::uint32_t crc32c_extend(std::uint32_t crc, util::ByteView data);

/// Name of the active implementation ("sse42" or "table") — surfaced in
/// telemetry and bench output like the SHA-256 backend name.
const char* crc32c_backend();

}  // namespace bcwan::util
