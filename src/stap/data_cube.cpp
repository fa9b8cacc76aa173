#include "stap/data_cube.hpp"

#include <algorithm>
#include <type_traits>

namespace pstap::stap {

namespace {

/// The one range-major codec: moves range gates [r0, r1) between the cube
/// ([channel][pulse][range]) and the file-order slab ([range][pulse][channel],
/// gate r0 first). Direction follows constness — a const cube packs into
/// the slab, a const slab unpacks into the cube.
///
/// The plain file-order walk touches every (pulse, channel) row of the cube
/// once per range gate, so each gate strides across the whole cube. A tile
/// of DataCube::kRangeTile gates instead keeps each row's share a
/// contiguous run (256 bytes), and sweeping the channels inside the pulse
/// loop consumes each file-order (gate, pulse) record while it is in L1.
/// At the paper's 128 pulses x 16 channels a tile's file-order window is
/// 512 KiB (32 gates x 16 KiB), well inside a 2 MiB per-core L2.
template <typename CubeElem, typename FileElem>
void transpose_range_tiles(CubeElem* cube, FileElem* file, std::size_t channels,
                           std::size_t pulses, std::size_t ranges, std::size_t r0,
                           std::size_t r1) {
  static_assert(std::is_const_v<CubeElem> != std::is_const_v<FileElem>,
                "exactly one side is the source");
  const std::size_t gate_stride = pulses * channels;
  for (std::size_t t0 = r0; t0 < r1; t0 += DataCube::kRangeTile) {
    const std::size_t t1 = std::min(r1, t0 + DataCube::kRangeTile);
    for (std::size_t p = 0; p < pulses; ++p) {
      // The next pulse's records follow this pulse's in every gate of the
      // tile: prefetching them while this pulse moves is worth ~10% at the
      // paper slab (BM_CubeUnpack / BM_CubePack).
      if (p + 1 < pulses && channels > 0) {
        const FileElem* next = file + (t0 - r0) * gate_stride + (p + 1) * channels;
        for (std::size_t r = t0; r < t1; ++r, next += gate_stride) {
          __builtin_prefetch(next);
          __builtin_prefetch(next + channels - 1);
        }
      }
      for (std::size_t c = 0; c < channels; ++c) {
        CubeElem* row = cube + (c * pulses + p) * ranges;
        FileElem* rec = file + (t0 - r0) * gate_stride + p * channels + c;
        for (std::size_t r = t0; r < t1; ++r, rec += gate_stride) {
          if constexpr (std::is_const_v<CubeElem>) {
            *rec = row[r];
          } else {
            row[r] = *rec;
          }
        }
      }
    }
  }
}

}  // namespace

void DataCube::pack_file_order(std::size_t r0, std::size_t r1,
                               std::span<cfloat> out) const {
  PSTAP_REQUIRE(out.size() == slab_samples(r0, r1), "slab buffer size mismatch");
  transpose_range_tiles(data_.data(), out.data(), channels_, pulses_, ranges_, r0,
                        r1);
}

void DataCube::unpack_file_order(std::size_t r0, std::size_t r1,
                                 std::span<const cfloat> in) {
  PSTAP_REQUIRE(in.size() == slab_samples(r0, r1), "slab buffer size mismatch");
  transpose_range_tiles(data_.data(), in.data(), channels_, pulses_, ranges_, r0,
                        r1);
}

}  // namespace pstap::stap
