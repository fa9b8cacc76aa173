#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define PSTAP_CRC32C_X86 1
#include <nmmintrin.h>
#else
#define PSTAP_CRC32C_X86 0
#endif

namespace pstap {

namespace detail {

namespace {

const std::array<std::uint32_t, 256>& crc32c_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32c_update_portable(std::uint32_t crc, const void* data,
                                     std::size_t len) {
  const auto& table = crc32c_table();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

#if PSTAP_CRC32C_X86

bool crc32c_hardware_available() noexcept {
  return __builtin_cpu_supports("sse4.2");
}

// The instruction consumes its operand little-endian, lowest byte first —
// the same order as the table loop — so an unaligned 8-byte load feeds it
// directly. One dependency chain: the instruction's 3-cycle latency caps
// this near 8 bytes per 3 cycles, far past what the chunk path needs.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_hardware(
    std::uint32_t crc, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
#if defined(__x86_64__)
  std::uint64_t c64 = c;
  for (; len >= 8; len -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<std::uint32_t>(c64);
#endif
  for (; len >= 4; len -= 4, p += 4) {
    std::uint32_t word;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u32(c, word);
  }
  for (; len > 0; --len, ++p) c = _mm_crc32_u8(c, *p);
  return ~c;
}

#else

bool crc32c_hardware_available() noexcept { return false; }

std::uint32_t crc32c_update_hardware(std::uint32_t crc, const void* data,
                                     std::size_t len) {
  return crc32c_update_portable(crc, data, len);
}

#endif

}  // namespace detail

std::uint32_t crc32c_update(std::uint32_t crc, const void* data, std::size_t len) {
  using Impl = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);
  static const Impl impl = detail::crc32c_hardware_available()
                               ? &detail::crc32c_update_hardware
                               : &detail::crc32c_update_portable;
  return impl(crc, data, len);
}

}  // namespace pstap
