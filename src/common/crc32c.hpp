// CRC32C (Castagnoli) — the checksum used for end-to-end chunk integrity in
// the pfs layer, over the reflected polynomial 0x82F63B78.
//
// crc32c_update() runs on the SSE4.2 `crc32` instruction, 8 bytes per step
// (several GB/s), selected once per process by CPUID; hosts without it (and
// non-x86 builds) use the byte-at-a-time table loop. Both paths compute the
// same exact integer function, so checksums recorded by one verify under
// the other — there is deliberately no knob to choose between them.
// Known-answer: crc32c of the ASCII bytes "123456789" is 0xE3069283.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pstap {

/// Incremental update: feed `crc32c_update(previous, ...)` successive spans.
/// Start from 0 (the pre/post inversion is applied per call, so chained
/// calls equal one call over the concatenation).
std::uint32_t crc32c_update(std::uint32_t crc, const void* data, std::size_t len);

/// One-shot CRC32C of a buffer.
inline std::uint32_t crc32c(const void* data, std::size_t len) {
  return crc32c_update(0, data, len);
}

namespace detail {

/// The portable table loop (the fallback path, and the reference the
/// hardware path is tested against).
std::uint32_t crc32c_update_portable(std::uint32_t crc, const void* data,
                                     std::size_t len);

/// True when this host executes the SSE4.2 `crc32` instruction.
bool crc32c_hardware_available() noexcept;

/// The SSE4.2 path. Call only when crc32c_hardware_available().
std::uint32_t crc32c_update_hardware(std::uint32_t crc, const void* data,
                                     std::size_t len);

}  // namespace detail

}  // namespace pstap
