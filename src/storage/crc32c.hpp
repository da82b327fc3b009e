// CRC32C (Castagnoli) — the checksum framing every durable byte in this
// repo travels under (WAL records, snapshot payloads).
//
// Two implementations, bit-identical:
//
//   * crc32c_extend_portable — software slice-by-8: eight 256-entry tables
//     built once at first use, so the main loop folds eight input bytes per
//     step. Byte loads only, no ISA gating, no alignment or endianness
//     assumption. About 1.7 GB/s on one core of a 2.1 GHz 4-vCPU Xeon
//     (bench_persistence's BM_Crc32cPortable, GCC 12, Release).
//   * the SSE4.2 `crc32` instruction (x86-64 only), eight bytes per
//     instruction in one dependency chain. Compiled as a target("sse4.2")
//     function, so the rest of the build needs no -msse4.2.
//
// crc32c_extend picks one of them once, at first use, from CPUID, and
// calls it through a function pointer from then on; a CPU (or a non-x86
// build) without SSE4.2 gets the portable path. Reopening a log checks
// every logged byte twice (the open scan, then the replay scan), so this
// rate bounds how fast a large log reopens.
//
// The polynomial is Castagnoli's 0x1EDC6F41 (reflected 0x82F63B78) — the
// one iSCSI, ext4 and leveldb use — rather than the zlib CRC32, so values
// here can be cross-checked against any standard crc32c tool.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define AMF_CRC32C_SSE42 1
#endif

namespace amf::storage {

namespace detail {
using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte table; tables[k][b] is the CRC state
/// after byte b followed by k zero bytes, which lets one step fold the
/// eight bytes of a stride independently.
inline const Crc32cTables& crc32c_tables() {
  static const Crc32cTables tables = [] {
    Crc32cTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}
}  // namespace detail

/// Slice-by-8 software CRC32C: the fallback where SSE4.2 is missing, and
/// the reference the dispatched path is tested against.
inline std::uint32_t crc32c_extend_portable(std::uint32_t state,
                                            const void* data, std::size_t n) {
  const auto& t = detail::crc32c_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = state ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ (std::uint32_t(p[0]) |
                                    std::uint32_t(p[1]) << 8 |
                                    std::uint32_t(p[2]) << 16 |
                                    std::uint32_t(p[3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace detail {
using Crc32cFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

#ifdef AMF_CRC32C_SSE42
/// The `crc32` instruction consumes the input in memory order, which on
/// x86 is exactly the little-endian word the 64-bit form folds.
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_extend_sse42(
    std::uint32_t state, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = state ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

/// The implementation crc32c_extend calls, resolved once per process.
inline Crc32cFn crc32c_dispatch() {
  static const Crc32cFn fn = []() -> Crc32cFn {
#ifdef AMF_CRC32C_SSE42
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return &crc32c_extend_sse42;
#endif
    return &crc32c_extend_portable;
  }();
  return fn;
}
}  // namespace detail

/// True when crc32c_extend runs on the SSE4.2 instruction.
inline bool crc32c_hardware() {
  return detail::crc32c_dispatch() != &crc32c_extend_portable;
}

/// Extends `crc` (state, NOT final value) over `data`. Start from 0 via
/// crc32c() unless resuming an incremental computation.
inline std::uint32_t crc32c_extend(std::uint32_t state, const void* data,
                                   std::size_t n) {
  return detail::crc32c_dispatch()(state, data, n);
}

/// One-shot CRC32C of a buffer.
inline std::uint32_t crc32c(std::string_view data) {
  return crc32c_extend(0, data.data(), data.size());
}

}  // namespace amf::storage
