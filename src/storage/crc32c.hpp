// CRC32C (Castagnoli) — the checksum framing every durable byte in this
// repo travels under (WAL records, snapshot payloads).
//
// Software slice-by-8: eight 256-entry tables built once at first use, so
// the main loop folds eight input bytes per step instead of one. About
// 1.7 GB/s on one core of a 2.1 GHz 4-vCPU Xeon (bench_persistence's
// BM_Crc32c, GCC 12, Release), against 0.3 GB/s for the byte-at-a-time
// table on the same core. Reopening checks every logged byte twice (the
// open scan, then the replay scan), so this rate bounds how fast a large
// log reopens.
// Portable C++ with byte loads only — no ISA gating, no alignment or
// endianness assumption — so every value is bit-identical to the
// byte-at-a-time definition; a hardware SSE4.2 path would be an
// optimization, not a correctness change, and is deliberately left out.
//
// The polynomial is Castagnoli's 0x1EDC6F41 (reflected 0x82F63B78) — the
// one iSCSI, ext4 and leveldb use — rather than the zlib CRC32, so values
// here can be cross-checked against any standard crc32c tool.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

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

/// Extends `crc` (state, NOT final value) over `data`. Start from 0 via
/// crc32c() unless resuming an incremental computation.
inline std::uint32_t crc32c_extend(std::uint32_t state, const void* data,
                                   std::size_t n) {
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

/// One-shot CRC32C of a buffer.
inline std::uint32_t crc32c(std::string_view data) {
  return crc32c_extend(0, data.data(), data.size());
}

}  // namespace amf::storage
