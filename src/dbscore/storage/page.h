/**
 * @file
 * On-disk page format for dbscore::storage.
 *
 * Every page in a page file is a fixed-size block that begins with a
 * PageHeader: magic, the page's own id, a type tag, the valid payload
 * length, and a CRC32C (Castagnoli) over the entire page (header with
 * the checksum field zeroed, plus payload), stored zero-extended in
 * the header's 64-bit checksum field. The self-id catches reads
 * routed to the wrong offset; the checksum catches bit rot and torn
 * writes — a page half-written at crash time fails verification on
 * the next read instead of silently yielding garbage features.
 *
 * CRC32C runs on the CPU's CRC instruction where there is one (SSE4.2
 * `crc32` behind a runtime CPUID check on x86-64, `crc32cd` on ARMv8
 * builds with the CRC extension) and on a portable slice-by-8 table
 * loop otherwise, or when the build defines DBSCORE_SIMD_DISABLED. All
 * three produce the same value, so a page file is portable across
 * them. Every read and write of a page pays this checksum, so it sits
 * on every paged scan's critical path.
 *
 * Format version 2 (the superblock's `version`, kPageFormatVersion)
 * is the CRC32C format; version 1 files carried FNV-1a-64 checksums
 * and are rejected on open with a typed DataCorruption.
 *
 * Layout (page size is configurable per file, default 4 KiB like the
 * Mini-DB exemplar):
 *
 *   +--------------------------+  offset 0
 *   | PageHeader (24 B)        |
 *   +--------------------------+  offset kPageHeaderSize
 *   | payload (page_size - 24) |
 *   +--------------------------+
 *
 * The header is 4-byte-aligned-friendly: payload starts at offset 24,
 * so float32 feature values stored in the payload can be viewed in
 * place by the zero-copy data plane (data/row_block.h).
 */
#ifndef DBSCORE_STORAGE_PAGE_H
#define DBSCORE_STORAGE_PAGE_H

#include <cstddef>
#include <cstdint>

namespace dbscore::storage {

/** First bytes of every page ("DBPG"). */
inline constexpr std::uint32_t kPageMagic = 0x44425047u;

/** On-disk format version the pager writes and the only one it opens. */
inline constexpr std::uint32_t kPageFormatVersion = 2;

/** Default page size; power of two, must exceed kPageHeaderSize. */
inline constexpr std::size_t kDefaultPageSize = 4096;

/** Smallest page size Pager accepts. */
inline constexpr std::size_t kMinPageSize = 256;

/** What a page holds. */
enum class PageType : std::uint16_t {
    kFree = 0,        ///< allocated but not yet assigned a role
    kSuperblock,      ///< page 0: file-wide metadata (pager-owned)
    kTableMeta,       ///< paged-table catalog (schema, counts, roots)
    kDirectory,       ///< chained list of page ids
    kFeatures,        ///< row-major float32 feature rows
    kLabels,          ///< float32 label column values
    kZoneMap,         ///< chained per-page min/max zone-map entries
    kFreeList,        ///< chained u32 ids of reclaimable pages
};

const char* PageTypeName(PageType type);

/**
 * Fixed header at the start of every page. Plain trivially-copyable
 * struct written byte-for-byte; files are host-endian (like the rest
 * of the repo's serialized artifacts).
 */
struct PageHeader {
    std::uint32_t magic = kPageMagic;
    std::uint32_t page_id = 0;
    std::uint16_t type = 0;
    std::uint16_t flags = 0;
    /** Valid payload bytes after the header. */
    std::uint32_t payload_bytes = 0;
    /** Checksum over the whole page with this field zeroed. */
    std::uint64_t checksum = 0;
};

inline constexpr std::size_t kPageHeaderSize = sizeof(PageHeader);
static_assert(kPageHeaderSize == 24, "header layout is part of the format");

/** Usable payload bytes for a given page size. */
inline constexpr std::size_t
PagePayloadBytes(std::size_t page_size)
{
    return page_size - kPageHeaderSize;
}

/**
 * CRC32C over the whole page, with the header's checksum field treated
 * as zero, zero-extended to the 64-bit header field. Catches every
 * single-bit flip and every burst of up to 32 bits (torn writes,
 * stray bit rot); an integrity check, not crypto.
 */
std::uint64_t ComputePageChecksum(const std::uint8_t* page,
                                  std::size_t page_size);

/**
 * CRC32C of @p len bytes, continuing from the CRC @p crc of the bytes
 * before them (0 to start), so Crc32c(b, Crc32c(a)) == Crc32c(a + b).
 * Uses the hardware instruction when the CPU has one.
 */
std::uint32_t Crc32c(const std::uint8_t* data, std::size_t len,
                     std::uint32_t crc = 0);

/** Crc32c on the portable slice-by-8 tables, whatever the CPU. */
std::uint32_t Crc32cPortable(const std::uint8_t* data, std::size_t len,
                             std::uint32_t crc = 0);

/** Which Crc32c backend this process uses: "sse4.2", "armv8", "portable". */
const char* Crc32cBackend();

/** Header view of a raw page buffer. */
inline PageHeader*
HeaderOf(std::uint8_t* page)
{
    return reinterpret_cast<PageHeader*>(page);
}

inline const PageHeader*
HeaderOf(const std::uint8_t* page)
{
    return reinterpret_cast<const PageHeader*>(page);
}

/** Payload start of a raw page buffer. */
inline std::uint8_t*
PayloadOf(std::uint8_t* page)
{
    return page + kPageHeaderSize;
}

inline const std::uint8_t*
PayloadOf(const std::uint8_t* page)
{
    return page + kPageHeaderSize;
}

/** Stamps magic/id/type on @p page (checksum left for the writer). */
void InitPage(std::uint8_t* page, std::size_t page_size,
              std::uint32_t page_id, PageType type);

}  // namespace dbscore::storage

#endif  // DBSCORE_STORAGE_PAGE_H
