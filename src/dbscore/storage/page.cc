#include "dbscore/storage/page.h"

#include <array>
#include <cstring>

// CRC32C backend, chosen like the forest SIMD shim's (forest/simd.h):
// DBSCORE_SIMD_DISABLED forces the portable tables everywhere.
#if !defined(DBSCORE_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define DBSCORE_CRC32C_SSE42 1
#include <immintrin.h>
#elif !defined(DBSCORE_SIMD_DISABLED) && defined(__ARM_FEATURE_CRC32)
#define DBSCORE_CRC32C_ARMV8 1
#include <arm_acle.h>
#endif

namespace dbscore::storage {

const char*
PageTypeName(PageType type)
{
    switch (type) {
    case PageType::kFree: return "free";
    case PageType::kSuperblock: return "superblock";
    case PageType::kTableMeta: return "table-meta";
    case PageType::kDirectory: return "directory";
    case PageType::kFeatures: return "features";
    case PageType::kLabels: return "labels";
    case PageType::kZoneMap: return "zone-map";
    case PageType::kFreeList: return "free-list";
    }
    return "?";
}

namespace {

/** Reflected Castagnoli polynomial. */
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slice-by-8 tables: [0] is the byte-at-a-time table; [k][b] is the
 * CRC of byte b followed by k zero bytes, so eight table lookups
 * advance the CRC by eight input bytes.
 */
constexpr Crc32cTables
MakeCrc32cTables()
{
    Crc32cTables tables{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t crc = b;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 1u) != 0 ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
        }
        tables[0][b] = crc;
    }
    for (std::size_t k = 1; k < tables.size(); ++k) {
        for (std::size_t b = 0; b < 256; ++b) {
            const std::uint32_t prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xFFu];
        }
    }
    return tables;
}

constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

/** Little-endian 32-bit load (the CRC consumes bytes in file order). */
inline std::uint32_t
LoadLe32(const std::uint8_t* p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

/** Raw (unconditioned) slice-by-8 update. */
std::uint32_t
Crc32cSlice8(std::uint32_t crc, const std::uint8_t* p, std::size_t len)
{
    const Crc32cTables& t = kCrc32cTables;
    for (; len >= 8; p += 8, len -= 8) {
        const std::uint32_t lo = crc ^ LoadLe32(p);
        const std::uint32_t hi = LoadLe32(p + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len) {
        crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
    }
    return crc;
}

#if defined(DBSCORE_CRC32C_SSE42)

/** Raw update on the SSE4.2 `crc32` instruction (8 bytes per step). */
__attribute__((target("sse4.2"))) std::uint32_t
Crc32cHardware(std::uint32_t crc, const std::uint8_t* p, std::size_t len)
{
    std::uint64_t crc64 = crc;
    for (; len >= 8; p += 8, len -= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        crc64 = _mm_crc32_u64(crc64, word);
    }
    crc = static_cast<std::uint32_t>(crc64);
    for (; len > 0; ++p, --len) {
        crc = _mm_crc32_u8(crc, *p);
    }
    return crc;
}

bool
HaveHardwareCrc32c()
{
    static const bool have = __builtin_cpu_supports("sse4.2") != 0;
    return have;
}

#elif defined(DBSCORE_CRC32C_ARMV8)

/** Raw update on the ARMv8 CRC32C instructions (8 bytes per step). */
std::uint32_t
Crc32cHardware(std::uint32_t crc, const std::uint8_t* p, std::size_t len)
{
    for (; len >= 8; p += 8, len -= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        crc = __crc32cd(crc, word);
    }
    for (; len > 0; ++p, --len) {
        crc = __crc32cb(crc, *p);
    }
    return crc;
}

bool
HaveHardwareCrc32c()
{
    return true;
}

#endif

/** Byte offset of PageHeader::checksum (it is the last header field). */
constexpr std::size_t kChecksumOffset = kPageHeaderSize - sizeof(std::uint64_t);

}  // namespace

std::uint32_t
Crc32cPortable(const std::uint8_t* data, std::size_t len, std::uint32_t crc)
{
    return ~Crc32cSlice8(~crc, data, len);
}

std::uint32_t
Crc32c(const std::uint8_t* data, std::size_t len, std::uint32_t crc)
{
#if defined(DBSCORE_CRC32C_SSE42) || defined(DBSCORE_CRC32C_ARMV8)
    if (HaveHardwareCrc32c()) {
        return ~Crc32cHardware(~crc, data, len);
    }
#endif
    return Crc32cPortable(data, len, crc);
}

const char*
Crc32cBackend()
{
#if defined(DBSCORE_CRC32C_SSE42)
    return HaveHardwareCrc32c() ? "sse4.2" : "portable";
#elif defined(DBSCORE_CRC32C_ARMV8)
    return "armv8";
#else
    return "portable";
#endif
}

std::uint64_t
ComputePageChecksum(const std::uint8_t* page, std::size_t page_size)
{
    const std::uint8_t zeros[sizeof(std::uint64_t)] = {};
    std::uint32_t crc = Crc32c(page, kChecksumOffset);
    crc = Crc32c(zeros, sizeof(zeros), crc);
    return Crc32c(page + kPageHeaderSize, page_size - kPageHeaderSize, crc);
}

void
InitPage(std::uint8_t* page, std::size_t page_size, std::uint32_t page_id,
         PageType type)
{
    std::memset(page, 0, page_size);
    PageHeader* header = HeaderOf(page);
    header->magic = kPageMagic;
    header->page_id = page_id;
    header->type = static_cast<std::uint16_t>(type);
    header->flags = 0;
    header->payload_bytes = 0;
    header->checksum = 0;
}

}  // namespace dbscore::storage
