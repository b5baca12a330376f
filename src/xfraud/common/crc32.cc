#include "xfraud/common/crc32.h"

namespace xfraud {

namespace {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8:
// entries[0] is the bytewise table, and entries[k][b] is the CRC of byte b
// followed by k zero bytes, so one step folds eight input bytes with eight
// independent lookups instead of a serial chain of eight.
struct Crc32Tables {
  uint32_t entries[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFF] ^ (prev >> 8);
      }
    }
  }
};

/// The little-endian 32-bit word at p, assembled bytewise: any alignment,
/// any host byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  static const Crc32Tables tables;
  const auto& t = tables.entries;
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    uint32_t lo = LoadLe32(bytes) ^ crc;
    uint32_t hi = LoadLe32(bytes + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace xfraud
