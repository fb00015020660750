/**
 * @file
 * Tests for dbscore::storage — the out-of-core paged data plane — and
 * its integration with the DBMS layer:
 *
 *  - Pager: alloc/write/read round-trips, superblock page-size
 *    adoption, format-version checks on open, and corruption
 *    detection (a flipped byte on disk must surface as
 *    DataCorruption, never as bad feature values);
 *  - the CRC32C page checksum: its known-answer vector, hardware and
 *    portable backends agreeing, and every single-bit flip in a page
 *    caught;
 *  - BufferPool: hit/miss accounting, LRU eviction order, the
 *    pinned-never-evicted invariant (CapacityError instead), dirty
 *    write-back round-trips through eviction, victims and counters
 *    equal to a linear-scan reference model over random sequences,
 *    and a write-back that throws mid-eviction;
 *  - PagedTable: append/scan round-trips, persistence across
 *    Open(), zone-map pruning that provably reduces pages read, and
 *    zero-copy streaming (no RowBlock copy bytes after load);
 *  - fault injection at FaultSite::kStorageRead: transient faults are
 *    retried invisibly, sticky faults propagate, and a failed pool
 *    fill never leaves a garbage frame resident;
 *  - an 8-thread concurrent scan+score chaos run (the TSan/ASan CI
 *    jobs run this suite);
 *  - DBMS wiring: paged scoring queries bit-identical to in-memory
 *    with a pool far smaller than the table, CSV bulk load,
 *    EXEC sp_storage_stats, and pinned chunks flowing into the
 *    serving layer.
 *
 * Every test writes its page files into a self-cleaning temp dir.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/data/row_block.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/pipeline.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/fault/fault.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/scoring_service.h"
#include "dbscore/storage/buffer_pool.h"
#include "dbscore/storage/paged_table.h"
#include "dbscore/storage/pager.h"

namespace dbscore {
namespace {

using storage::BufferPool;
using storage::FeatureStream;
using storage::PagedTable;
using storage::PageHandle;
using storage::Pager;
using storage::PageType;
using storage::ScanPredicate;
using storage::StorageOptions;
using storage::StreamChunk;

/** Self-cleaning scratch directory for page files. */
class StorageTest : public ::testing::Test {
 protected:
    void SetUp() override
    {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("dbscore_storage_") + info->test_suite_name() +
                "_" + info->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string Path(const std::string& name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

using PagerTest = StorageTest;
using PageChecksumTest = StorageTest;
using BufferPoolTest = StorageTest;
using PagedTableTest = StorageTest;
using StorageFaultTest = StorageTest;
using StorageChaosTest = StorageTest;
using PagedDbmsTest = StorageTest;

// ------------------------------------------------------------ pager --

TEST_F(PagerTest, AllocWriteReadRoundTrip)
{
    Pager::Options options;
    options.create = true;
    options.page_size = 512;
    Pager pager(Path("t.dbpages"), options);
    EXPECT_EQ(pager.num_pages(), 1u);  // superblock

    const std::uint32_t id = pager.Alloc(PageType::kFeatures);
    EXPECT_EQ(id, 1u);
    std::vector<std::uint8_t> page(512);
    pager.Read(id, page.data());
    EXPECT_EQ(storage::HeaderOf(page.data())->page_id, id);

    storage::PayloadOf(page.data())[0] = 0xAB;
    storage::HeaderOf(page.data())->payload_bytes = 1;
    pager.Write(id, page.data());

    std::vector<std::uint8_t> back(512);
    pager.Read(id, back.data());
    EXPECT_EQ(storage::PayloadOf(back.data())[0], 0xAB);
    EXPECT_EQ(storage::HeaderOf(back.data())->payload_bytes, 1u);
    EXPECT_GE(pager.stats().reads, 2u);
    EXPECT_GE(pager.stats().writes, 2u);
}

TEST_F(PagerTest, ReopenAdoptsSuperblockPageSize)
{
    const std::string path = Path("t.dbpages");
    {
        Pager::Options options;
        options.create = true;
        options.page_size = 1024;
        Pager pager(path, options);
        pager.Alloc(PageType::kFeatures);
    }
    // Reopen with a different (ignored) requested size: the superblock
    // wins.
    Pager::Options reopen;
    reopen.page_size = 4096;
    Pager pager(path, reopen);
    EXPECT_EQ(pager.page_size(), 1024u);
    EXPECT_EQ(pager.num_pages(), 2u);
}

TEST_F(PagerTest, FlippedByteOnDiskIsDataCorruption)
{
    const std::string path = Path("t.dbpages");
    std::uint32_t id = 0;
    {
        Pager::Options options;
        options.create = true;
        options.page_size = 512;
        Pager pager(path, options);
        id = pager.Alloc(PageType::kFeatures);
        std::vector<std::uint8_t> page(512);
        pager.Read(id, page.data());
        std::memset(storage::PayloadOf(page.data()), 0x5A, 64);
        storage::HeaderOf(page.data())->payload_bytes = 64;
        pager.Write(id, page.data());
    }
    {
        // Flip one payload byte behind the pager's back (torn write /
        // bit rot).
        std::fstream file(path,
                          std::ios::in | std::ios::out | std::ios::binary);
        file.seekp(static_cast<std::streamoff>(id) * 512 + 100);
        file.put(static_cast<char>(0xFF));
    }
    Pager pager(path, Pager::Options{});
    std::vector<std::uint8_t> page(512);
    EXPECT_THROW(pager.Read(id, page.data()), DataCorruption);
    EXPECT_GE(pager.stats().checksum_failures, 1u);
}

TEST_F(PagerTest, OutOfRangeReadThrows)
{
    Pager::Options options;
    options.create = true;
    Pager pager(Path("t.dbpages"), options);
    std::vector<std::uint8_t> page(pager.page_size());
    EXPECT_THROW(pager.Read(99, page.data()), InvalidArgument);
}

/** Reads page 0 of @p path, sets the superblock's format version to
 * @p version, restamps a valid checksum, and writes the page back. */
void
StampSuperblockVersion(const std::string& path, std::size_t page_size,
                       std::uint32_t version)
{
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    std::vector<std::uint8_t> page(page_size);
    file.read(reinterpret_cast<char*>(page.data()),
              static_cast<std::streamsize>(page_size));
    // Superblock payload: magic, version, page size (u32 each).
    std::memcpy(storage::PayloadOf(page.data()) + sizeof(std::uint32_t),
                &version, sizeof(version));
    storage::HeaderOf(page.data())->checksum =
        storage::ComputePageChecksum(page.data(), page_size);
    file.seekp(0);
    file.write(reinterpret_cast<const char*>(page.data()),
               static_cast<std::streamsize>(page_size));
}

TEST_F(PagerTest, OpenRejectsOtherFormatVersion)
{
    const std::string path = Path("t.dbpages");
    {
        Pager::Options options;
        options.create = true;
        options.page_size = 512;
        Pager pager(path, options);
    }
    // Restamping the current version keeps the file valid, so the only
    // thing the next reopen can object to is the version itself.
    StampSuperblockVersion(path, 512, storage::kPageFormatVersion);
    EXPECT_NO_THROW(Pager(path, Pager::Options{}));

    StampSuperblockVersion(path, 512, 1);
    try {
        Pager pager(path, Pager::Options{});
        FAIL() << "a version-1 page file opened";
    } catch (const DataCorruption& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("format version 1"), std::string::npos) << what;
        EXPECT_NE(what.find("expected version 2"), std::string::npos)
            << what;
        EXPECT_EQ(what.find("integrity"), std::string::npos) << what;
    }
}

// ---------------------------------------------------------- checksum --

TEST_F(PageChecksumTest, KnownAnswerVector)
{
    const std::string text = "123456789";
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(text.data());
    EXPECT_EQ(storage::Crc32c(bytes, text.size()), 0xE3069283u);
    EXPECT_EQ(storage::Crc32cPortable(bytes, text.size()), 0xE3069283u);
    EXPECT_EQ(storage::Crc32c(bytes, 0), 0u);
    // Continuation: a split buffer checksums like the whole one.
    EXPECT_EQ(storage::Crc32c(bytes + 4, 5, storage::Crc32c(bytes, 4)),
              0xE3069283u);
#if defined(DBSCORE_SIMD_DISABLED)
    EXPECT_STREQ(storage::Crc32cBackend(), "portable");
#endif
}

TEST_F(PageChecksumTest, HardwareAgreesWithPortableAtEveryLengthAndOffset)
{
    Rng rng(0xC5C32);
    std::vector<std::uint8_t> buf(4096 + 8);
    for (std::uint8_t& b : buf) {
        b = static_cast<std::uint8_t>(rng.Next());
    }
    for (std::size_t len = 0; len <= 4096; ++len) {
        const std::uint8_t* p = buf.data() + len % 8;  // unaligned
        const std::uint32_t seed = static_cast<std::uint32_t>(rng.Next());
        ASSERT_EQ(storage::Crc32c(p, len, seed),
                  storage::Crc32cPortable(p, len, seed))
            << "len " << len << " backend " << storage::Crc32cBackend();
    }
}

TEST_F(PageChecksumTest, EverySingleBitFlipIsDataCorruption)
{
    const std::string path = Path("t.dbpages");
    constexpr std::size_t kPageSize = 256;
    Pager::Options options;
    options.create = true;
    options.page_size = kPageSize;
    Pager pager(path, options);
    const std::uint32_t id = pager.Alloc(PageType::kFeatures);
    std::vector<std::uint8_t> page(kPageSize);
    pager.Read(id, page.data());
    for (std::size_t i = 0; i < 100; ++i) {
        storage::PayloadOf(page.data())[i] = static_cast<std::uint8_t>(i);
    }
    storage::HeaderOf(page.data())->payload_bytes = 100;
    pager.Write(id, page.data());

    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    const auto offset = static_cast<std::streamoff>(id) * kPageSize;
    auto flip = [&](std::size_t byte, int bit) {
        file.seekg(offset + static_cast<std::streamoff>(byte));
        const int c = file.get();
        file.seekp(offset + static_cast<std::streamoff>(byte));
        file.put(static_cast<char>(c ^ (1 << bit)));
        file.flush();
    };
    std::uint64_t failures = pager.stats().checksum_failures;
    for (std::size_t byte = 0; byte < kPageSize; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            flip(byte, bit);
            EXPECT_THROW(pager.Read(id, page.data()), DataCorruption)
                << "byte " << byte << " bit " << bit;
            EXPECT_EQ(pager.stats().checksum_failures, ++failures);
            flip(byte, bit);
        }
    }
    // Every flip was undone: the page reads clean again.
    pager.Read(id, page.data());
    EXPECT_EQ(storage::PayloadOf(page.data())[99], 99);
}

// ------------------------------------------------------ buffer pool --

struct PoolFixture {
    Pager pager;
    BufferPool pool;

    PoolFixture(const std::string& path, std::size_t capacity,
                std::size_t pages)
        : pager(path,
                [] {
                    Pager::Options o;
                    o.create = true;
                    o.page_size = 512;
                    return o;
                }()),
          pool(pager, BufferPool::Options{capacity})
    {
        for (std::size_t i = 0; i < pages; ++i) {
            pager.Alloc(PageType::kFeatures);
        }
    }
};

TEST_F(BufferPoolTest, HitsAndMissesAreCounted)
{
    PoolFixture f(Path("t.dbpages"), 4, 2);
    { PageHandle h = f.pool.Pin(1); }
    { PageHandle h = f.pool.Pin(1); }
    { PageHandle h = f.pool.Pin(2); }
    EXPECT_EQ(f.pool.stats().misses, 2u);
    EXPECT_EQ(f.pool.stats().hits, 1u);
    EXPECT_EQ(f.pool.Resident(), 2u);
    EXPECT_NEAR(f.pool.stats().HitRatio(), 1.0 / 3.0, 1e-9);
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyPinnedFirst)
{
    PoolFixture f(Path("t.dbpages"), 2, 3);
    { PageHandle h = f.pool.Pin(1); }
    { PageHandle h = f.pool.Pin(2); }
    { PageHandle h = f.pool.Pin(1); }  // 2 is now the LRU page
    { PageHandle h = f.pool.Pin(3); }  // must evict 2, not 1
    EXPECT_EQ(f.pool.stats().evictions, 1u);
    const std::uint64_t misses = f.pool.stats().misses;
    { PageHandle h = f.pool.Pin(1); }  // still resident -> hit
    EXPECT_EQ(f.pool.stats().misses, misses);
    { PageHandle h = f.pool.Pin(2); }  // was evicted -> miss
    EXPECT_EQ(f.pool.stats().misses, misses + 1);
}

TEST_F(BufferPoolTest, PinnedFramesAreNeverEvicted)
{
    PoolFixture f(Path("t.dbpages"), 2, 3);
    PageHandle a = f.pool.Pin(1);
    PageHandle b = f.pool.Pin(2);
    const std::uint8_t* a_data = a.data();
    EXPECT_EQ(f.pool.PinnedFrames(), 2u);
    EXPECT_THROW(f.pool.Pin(3), CapacityError);
    // The failed fill must not have displaced either pinned frame.
    EXPECT_EQ(f.pool.stats().evictions, 0u);
    EXPECT_EQ(a.data(), a_data);
    EXPECT_EQ(storage::HeaderOf(a.data())->page_id, 1u);
    b.Release();
    PageHandle c = f.pool.Pin(3);  // now there is a victim
    EXPECT_EQ(storage::HeaderOf(c.data())->page_id, 3u);
}

TEST_F(BufferPoolTest, DirtyFrameRoundTripsThroughEviction)
{
    PoolFixture f(Path("t.dbpages"), 1, 2);
    {
        PageHandle h = f.pool.Pin(1);
        std::memset(h.MutablePayload(), 0x7E, 16);
        storage::HeaderOf(h.MutableData())->payload_bytes = 16;
    }
    { PageHandle h = f.pool.Pin(2); }  // evicts 1, forcing write-back
    EXPECT_GE(f.pool.stats().write_backs, 1u);
    PageHandle back = f.pool.Pin(1);  // re-read from disk
    EXPECT_EQ(back.payload()[0], 0x7E);
    EXPECT_EQ(back.payload()[15], 0x7E);
    EXPECT_EQ(storage::HeaderOf(back.data())->payload_bytes, 16u);
}

/**
 * Reference model of the pool's bookkeeping with the linear victim
 * scan: the lowest-index frame holding no page, else the unpinned
 * frame pinned least recently. Tracks each page's first payload byte
 * on disk and in its frame, and the counters BufferPoolStats keeps.
 */
struct PoolModel {
    struct Frame {
        std::uint32_t page = 0;
        std::uint64_t tick = 0;
        int pins = 0;
        bool used = false;
        bool dirty = false;
        std::uint8_t byte = 0;
    };

    PoolModel(std::size_t capacity, std::size_t pages)
        : frames(capacity), disk(pages + 1, 0)
    {
    }

    std::optional<std::size_t>
    Resident(std::uint32_t page) const
    {
        for (std::size_t i = 0; i < frames.size(); ++i) {
            if (frames[i].used && frames[i].page == page) {
                return i;
            }
        }
        return std::nullopt;
    }

    /** The frame Pin(@p page) lands in; nullopt: CapacityError. */
    std::optional<std::size_t>
    Pin(std::uint32_t page)
    {
        if (const std::optional<std::size_t> hit = Resident(page)) {
            ++frames[*hit].pins;
            frames[*hit].tick = ++clock;
            ++stats.hits;
            return hit;
        }
        ++stats.misses;
        std::size_t victim = frames.size();
        std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < frames.size(); ++i) {
            if (!frames[i].used) {
                victim = i;
                break;
            }
            if (frames[i].pins == 0 && frames[i].tick < oldest) {
                victim = i;
                oldest = frames[i].tick;
            }
        }
        if (victim == frames.size()) {
            return std::nullopt;
        }
        Frame& frame = frames[victim];
        if (frame.used) {
            if (frame.dirty) {
                disk[frame.page] = frame.byte;
                ++stats.write_backs;
            }
            ++stats.evictions;
        }
        frame = {page, ++clock, 1, true, false, disk[page]};
        return victim;
    }

    std::vector<Frame> frames;
    std::vector<std::uint8_t> disk;
    std::uint64_t clock = 0;
    storage::BufferPoolStats stats;
};

TEST_F(BufferPoolTest, VictimsMatchLinearScanModelOnRandomSequences)
{
    constexpr std::size_t kFrames = 6;
    constexpr std::size_t kPages = 14;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        PoolFixture f(Path("t" + std::to_string(seed) + ".dbpages"),
                      kFrames, kPages);
        PoolModel model(kFrames, kPages);
        // Frame memory never moves, so a handle's data() names its
        // frame; each model frame learns its address on first fill.
        std::vector<const std::uint8_t*> frame_data(kFrames, nullptr);
        struct Held {
            PageHandle handle;
            std::size_t frame;
        };
        std::vector<Held> held;
        Rng rng(seed);
        std::uint8_t next_byte = 0;
        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t op = rng.NextBelow(100);
            const std::string where = "seed " + std::to_string(seed) +
                                      " step " + std::to_string(step);
            if (op < 45 || held.empty()) {
                const auto page =
                    static_cast<std::uint32_t>(1 + rng.NextBelow(kPages));
                const std::optional<std::size_t> frame = model.Pin(page);
                if (!frame.has_value()) {
                    ASSERT_THROW(f.pool.Pin(page), CapacityError) << where;
                } else {
                    PageHandle h = f.pool.Pin(page);
                    if (frame_data[*frame] == nullptr) {
                        ASSERT_EQ(std::count(frame_data.begin(),
                                             frame_data.end(), h.data()),
                                  0)
                            << where;
                        frame_data[*frame] = h.data();
                    }
                    ASSERT_EQ(h.data(), frame_data[*frame])
                        << where << ": page " << page << " landed in "
                        << "another frame than the linear scan picks";
                    ASSERT_EQ(h.page_id(), page) << where;
                    ASSERT_EQ(h.payload()[0], model.frames[*frame].byte)
                        << where;
                    held.push_back({std::move(h), *frame});
                }
            } else if (op < 75) {
                const std::size_t i = rng.NextBelow(held.size());
                --model.frames[held[i].frame].pins;
                held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
            } else if (op < 90) {
                Held& h = held[rng.NextBelow(held.size())];
                h.handle.MutablePayload()[0] = ++next_byte;
                model.frames[h.frame].dirty = true;
                model.frames[h.frame].byte = next_byte;
            } else {
                // Invalidate an unpinned page (resident or not).
                const auto page =
                    static_cast<std::uint32_t>(1 + rng.NextBelow(kPages));
                const std::optional<std::size_t> frame = model.Resident(page);
                if (frame.has_value() && model.frames[*frame].pins > 0) {
                    continue;
                }
                f.pool.Invalidate(page);
                if (frame.has_value()) {
                    model.frames[*frame].used = false;
                    model.frames[*frame].dirty = false;
                }
            }
            const storage::BufferPoolStats got = f.pool.stats();
            ASSERT_EQ(got.hits, model.stats.hits) << where;
            ASSERT_EQ(got.misses, model.stats.misses) << where;
            ASSERT_EQ(got.evictions, model.stats.evictions) << where;
            ASSERT_EQ(got.write_backs, model.stats.write_backs) << where;
            std::size_t resident = 0;
            std::size_t pinned = 0;
            for (const PoolModel::Frame& frame : model.frames) {
                resident += frame.used ? 1 : 0;
                pinned += frame.used && frame.pins > 0 ? 1 : 0;
            }
            ASSERT_EQ(f.pool.Resident(), resident) << where;
            ASSERT_EQ(f.pool.PinnedFrames(), pinned) << where;
        }
        EXPECT_GT(model.stats.evictions, 0u);
        EXPECT_GT(model.stats.write_backs, 0u);
    }
}

TEST_F(BufferPoolTest, ThrowingWriteBackLeavesVictimEvictable)
{
    PoolFixture f(Path("t.dbpages"), 2, 3);
    {
        PageHandle h = f.pool.Pin(1);
        h.MutablePayload()[0] = 0x5A;
    }
    { PageHandle h = f.pool.Pin(2); }  // page 1 is the LRU victim
    {
        fault::FaultPlan plan;
        plan.seed = 3;
        plan.At(fault::FaultSite::kStorageWrite).probability = 1.0;
        fault::ScopedFaultPlan scoped(plan);
        EXPECT_THROW(f.pool.Pin(3), fault::FaultInjected);
    }
    // The write-back of page 1 tore: nothing was evicted, page 3 is not
    // resident, and page 1 keeps its dirty bytes in its frame.
    EXPECT_EQ(f.pool.stats().misses, 3u);
    EXPECT_EQ(f.pool.stats().evictions, 0u);
    EXPECT_EQ(f.pool.stats().write_backs, 0u);
    EXPECT_EQ(f.pool.Resident(), 2u);
    EXPECT_EQ(f.pool.PinnedFrames(), 0u);

    // A torn write leaves the pager down until the file is reopened, so
    // the next miss fails too, on the write-back of the same victim:
    // had page 1 left the victim index, clean page 2 would be evicted.
    EXPECT_THROW(f.pool.Pin(3), IoError);
    EXPECT_EQ(f.pool.stats().evictions, 0u);
    EXPECT_EQ(f.pool.Resident(), 2u);
    {
        PageHandle h = f.pool.Pin(1);
        EXPECT_EQ(h.payload()[0], 0x5A);
    }
    { PageHandle h = f.pool.Pin(2); }
    EXPECT_EQ(f.pool.stats().hits, 2u);
}

// ------------------------------------------------------ paged table --

StorageOptions
SmallPages()
{
    StorageOptions options;
    options.page_size = 512;  // 4 rows of 28 features per page
    options.pool_pages = 8;
    return options;
}

std::shared_ptr<PagedTable>
MakeHiggsTable(const std::string& path, const Dataset& data,
               const StorageOptions& options)
{
    std::vector<std::string> columns;
    for (std::size_t c = 0; c < data.num_features(); ++c) {
        columns.push_back("f" + std::to_string(c));
    }
    columns.push_back("label");
    auto table =
        PagedTable::Create(path, columns, data.num_features(), options);
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
        table->AppendRow(data.Row(r), data.num_features(), data.Label(r));
    }
    table->Flush();
    return table;
}

TEST_F(PagedTableTest, AppendScanRoundTripWithTinyPool)
{
    const Dataset data = MakeHiggs(200, 11);
    auto table = MakeHiggsTable(Path("t.dbpages"), data, SmallPages());
    ASSERT_EQ(table->num_rows(), 200u);
    EXPECT_GT(table->NumDataPages(), 8u);  // table >> pool

    // Point reads.
    EXPECT_EQ(table->Feature(137, 5), data.At(137, 5));
    EXPECT_EQ(table->Label(137), data.Label(137));

    // Full streamed scan reassembles every row in order.
    FeatureStream stream = table->Scan();
    EXPECT_EQ(stream.total_rows(), 200u);
    StreamChunk chunk;
    std::size_t rows_seen = 0;
    while (stream.Next(chunk)) {
        ASSERT_EQ(chunk.row_begin, rows_seen);
        for (std::size_t r = 0; r < chunk.view.rows(); ++r) {
            const std::size_t global = chunk.row_begin + r;
            ASSERT_EQ(chunk.view.At(r, 3), data.At(global, 3))
                << "row " << global;
        }
        rows_seen += chunk.view.rows();
    }
    EXPECT_EQ(rows_seen, 200u);
}

TEST_F(PagedTableTest, StreamingIsZeroCopy)
{
    const Dataset data = MakeHiggs(100, 12);
    auto table = MakeHiggsTable(Path("t.dbpages"), data, SmallPages());
    RowBlock::ResetCopyStats();
    FeatureStream stream = table->Scan();
    StreamChunk chunk;
    float sink = 0.0f;
    while (stream.Next(chunk)) {
        sink += chunk.view.At(0, 0);
    }
    EXPECT_EQ(RowBlock::CopyStats().bytes, 0u) << "sink " << sink;
}

TEST_F(PagedTableTest, PinOutlivesStreamViaViewKeepalive)
{
    const Dataset data = MakeHiggs(50, 13);
    auto table = MakeHiggsTable(Path("t.dbpages"), data, SmallPages());
    RowView first_rows;
    {
        FeatureStream stream = table->Scan();
        StreamChunk chunk;
        ASSERT_TRUE(stream.Next(chunk));
        first_rows = chunk.view.Slice(0, 2);
    }  // stream gone; the slice's keepalive still pins the page
    EXPECT_EQ(first_rows.At(1, 1), data.At(1, 1));
}

TEST_F(PagedTableTest, PersistsAcrossOpen)
{
    const Dataset data = MakeHiggs(120, 14);
    const std::string path = Path("t.dbpages");
    { MakeHiggsTable(path, data, SmallPages()); }

    auto table = PagedTable::Open(path, SmallPages());
    ASSERT_EQ(table->num_rows(), 120u);
    EXPECT_EQ(table->num_feature_cols(), 28u);
    EXPECT_EQ(table->label_col(), 28u);
    EXPECT_TRUE(table->has_label());
    EXPECT_EQ(table->columns().front(), "f0");
    for (std::size_t r : {std::size_t{0}, std::size_t{63}, std::size_t{119}}) {
        for (std::size_t c = 0; c < 28; ++c) {
            ASSERT_EQ(table->Feature(r, c), data.At(r, c));
        }
        ASSERT_EQ(table->Label(r), data.Label(r));
    }
}

TEST_F(PagedTableTest, ZoneMapPruningReducesPagesRead)
{
    // Clustered table: feature 0 is the row index, so each page covers
    // a disjoint [min,max] range and a narrow predicate prunes all but
    // one page.
    StorageOptions options = SmallPages();
    options.pool_pages = 2;  // smaller than the table: drains hit disk
    std::vector<std::string> columns{"f0", "f1"};
    auto table = PagedTable::Create(Path("t.dbpages"), columns, 2, options);
    for (std::size_t r = 0; r < 400; ++r) {
        const float row[2] = {static_cast<float>(r), 0.5f};
        table->AppendRow(row, 2, 0.0f);
    }
    table->Flush();
    const std::size_t data_pages = table->NumDataPages();
    ASSERT_GT(data_pages, 4u);

    auto drain = [&](const std::optional<ScanPredicate>& pred) {
        table->ResetStats();
        FeatureStream stream = table->Scan(pred);
        StreamChunk chunk;
        std::size_t rows = 0;
        while (stream.Next(chunk)) {
            rows += chunk.view.rows();
        }
        return rows;
    };

    const std::size_t full_rows = drain(std::nullopt);
    EXPECT_EQ(full_rows, 400u);
    const std::uint64_t full_reads = table->Stats().pager.reads;
    EXPECT_EQ(table->Stats().pages_pruned, 0u);

    ScanPredicate pred;
    pred.column = 0;
    pred.min = 100.0f;
    pred.max = 101.0f;
    const std::size_t pruned_rows = drain(pred);
    const storage::StorageStats stats = table->Stats();
    // Conservative superset: the surviving pages contain every match.
    EXPECT_GE(pruned_rows, 2u);
    EXPECT_LT(pruned_rows, 400u);
    EXPECT_GT(stats.pages_pruned, 0u);
    EXPECT_EQ(stats.pages_pruned + stats.pages_scanned, data_pages);
    EXPECT_LT(stats.pager.reads, full_reads);

    // The zone map itself is queryable.
    const std::vector<storage::ZoneRange> zone = table->ZoneMap(0);
    ASSERT_EQ(zone.size(), 2u);
    EXPECT_EQ(zone[0].min, 0.0f);
    EXPECT_EQ(zone[1].min, 0.5f);
    EXPECT_EQ(zone[1].max, 0.5f);
}

TEST_F(PagedTableTest, RejectsRowWiderThanPage)
{
    StorageOptions options;
    options.page_size = 256;  // payload 232 bytes < 100 floats
    std::vector<std::string> columns(101, "c");
    EXPECT_THROW(
        PagedTable::Create(Path("t.dbpages"), columns, 100, options),
        CapacityError);
}

// -------------------------------------------------- fault injection --

TEST_F(StorageFaultTest, TransientReadFaultsAreRetriedInvisibly)
{
    const Dataset data = MakeHiggs(60, 15);
    const std::string path = Path("t.dbpages");
    { MakeHiggsTable(path, data, SmallPages()); }

    fault::FaultPlan plan;
    plan.seed = 7;
    plan.At(fault::FaultSite::kStorageRead).every_nth = 3;
    fault::ScopedFaultPlan scoped(plan);

    StorageOptions options = SmallPages();
    options.pool_pages = 2;  // force repeated re-reads
    auto table = PagedTable::Open(path, options);
    FeatureStream stream = table->Scan();
    StreamChunk chunk;
    std::size_t rows = 0;
    while (stream.Next(chunk)) {
        for (std::size_t r = 0; r < chunk.view.rows(); ++r) {
            ASSERT_EQ(chunk.view.At(r, 0),
                      data.At(chunk.row_begin + r, 0));
        }
        rows += chunk.view.rows();
    }
    EXPECT_EQ(rows, 60u);
    EXPECT_GT(table->Stats().pager.read_retries, 0u);
}

TEST_F(StorageFaultTest, StickyFaultPropagatesAndPoolRecovers)
{
    const Dataset data = MakeHiggs(40, 16);
    const std::string path = Path("t.dbpages");
    { MakeHiggsTable(path, data, SmallPages()); }
    auto table = PagedTable::Open(path, SmallPages());

    {
        fault::FaultPlan plan;
        plan.seed = 8;
        plan.At(fault::FaultSite::kStorageRead).probability = 1.0;
        plan.At(fault::FaultSite::kStorageRead).sticky = true;
        fault::ScopedFaultPlan scoped(plan);
        EXPECT_THROW(table->Feature(0, 0), fault::FaultInjected);
    }
    // The failed fill was rolled back: with the disk healthy again the
    // same read succeeds and returns correct data.
    EXPECT_EQ(table->Feature(0, 0), data.At(0, 0));
    EXPECT_EQ(table->Feature(39, 27), data.At(39, 27));
}

// ------------------------------------------------------------ chaos --

TEST_F(StorageChaosTest, ConcurrentScansUnderPoolPressureStayCorrect)
{
    const Dataset data = MakeHiggs(240, 17);
    StorageOptions options = SmallPages();
    // One frame per concurrent stream (plus headroom), but still far
    // fewer frames than the ~60 data pages so eviction churn is real.
    // The pool throws CapacityError when every frame is pinned, so the
    // pool must be sized for peak simultaneous pins, not total data.
    constexpr int kThreads = 8;
    options.pool_pages = 2 * kThreads;
    auto table = MakeHiggsTable(Path("t.dbpages"), data, options);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 3; ++round) {
                FeatureStream stream = table->Scan();
                StreamChunk chunk;
                while (stream.Next(chunk)) {
                    for (std::size_t r = 0; r < chunk.view.rows(); ++r) {
                        const std::size_t global = chunk.row_begin + r;
                        const std::size_t col =
                            static_cast<std::size_t>(t) % 28;
                        if (chunk.view.At(r, col) !=
                            data.At(global, col)) {
                            mismatches.fetch_add(1);
                        }
                    }
                }
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(table->Stats().pool.HitRatio(), table->Stats().pool.HitRatio());
    EXPECT_GT(table->Stats().pool.evictions, 0u);
}

// ------------------------------------------------------ dbms wiring --

TEST_F(PagedDbmsTest, PagedScoringIsBitIdenticalToInMemory)
{
    const Dataset data = MakeHiggs(400, 70);
    ForestTrainerConfig config;
    config.num_trees = 8;
    config.max_depth = 8;
    config.seed = 70;
    const RandomForest forest = TrainForest(data, config);

    Database db;
    db.StoreDataset("mem", data);
    db.StoreModel("model_rf", TreeEnsemble::FromForest(forest));
    StorageOptions options;
    options.page_size = 512;
    options.pool_pages = 4;  // ~25 data pages: table is 6x the pool
    Table& paged =
        db.StoreDatasetPaged("paged", data, Path("t.dbpages"), options);
    ASSERT_TRUE(paged.paged());
    ASSERT_GT(paged.store()->NumDataPages(), 4u * 4u);

    HardwareProfile profile = HardwareProfile::Paper();
    ExternalRuntimeParams rt_params;
    ScoringPipeline pipeline(db, profile, rt_params);
    const auto mem =
        pipeline.RunScoringQuery("model_rf", "mem",
                                 BackendKind::kCpuSklearn);
    const auto out =
        pipeline.RunScoringQuery("model_rf", "paged",
                                 BackendKind::kCpuSklearn);
    ASSERT_EQ(out.predictions.size(), mem.predictions.size());
    EXPECT_EQ(0, std::memcmp(out.predictions.data(),
                             mem.predictions.data(),
                             mem.predictions.size() * sizeof(float)));
    EXPECT_EQ(out.predictions, forest.PredictBatch(data));
    // The paged run exercised the pool (it cannot hold the table).
    EXPECT_GT(paged.store()->Stats().pool.evictions, 0u);
    // Stage accounting mirrors the in-memory path's shape.
    EXPECT_GT(out.stages.python_invocation.seconds(), 0.0);
    EXPECT_GT(out.stages.data_transfer.seconds(), 0.0);
    EXPECT_GT(out.stages.scoring.Total().seconds(), 0.0);
}

TEST_F(PagedDbmsTest, MaxRowsAndAttachWork)
{
    const Dataset data = MakeHiggs(100, 71);
    ForestTrainerConfig config;
    config.num_trees = 4;
    config.max_depth = 6;
    config.seed = 71;
    const RandomForest forest = TrainForest(data, config);

    const std::string path = Path("t.dbpages");
    {
        Database db;
        db.StoreDatasetPaged("paged", data, path, StorageOptions{});
    }
    Database db;
    db.StoreModel("m", TreeEnsemble::FromForest(forest));
    Table& table = db.AttachPagedTable("paged", path, StorageOptions{});
    EXPECT_EQ(table.NumRows(), 100u);

    HardwareProfile profile = HardwareProfile::Paper();
    ExternalRuntimeParams rt_params;
    ScoringPipeline pipeline(db, profile, rt_params);
    const auto out = pipeline.RunScoringQuery(
        "m", "paged", BackendKind::kCpuSklearn, 30);
    ASSERT_EQ(out.predictions.size(), 30u);
    const std::vector<float> reference = forest.PredictBatch(data);
    for (std::size_t i = 0; i < 30; ++i) {
        ASSERT_EQ(out.predictions[i], reference[i]);
    }
}

TEST_F(PagedDbmsTest, BulkLoadCsvPagedParsesAndScores)
{
    const std::string csv_path = Path("data.csv");
    {
        std::ofstream csv(csv_path);
        csv << "f0,f1,label\n";
        for (int r = 0; r < 50; ++r) {
            csv << r * 1.5 << "," << r * -0.5 << "," << (r % 2) << "\n";
        }
    }
    Database db;
    Table& table =
        db.BulkLoadCsvPaged("t", csv_path, Path("t.dbpages"),
                            StorageOptions{});
    ASSERT_TRUE(table.paged());
    EXPECT_EQ(table.NumRows(), 50u);
    EXPECT_EQ(table.store()->num_feature_cols(), 2u);
    EXPECT_EQ(table.store()->Feature(10, 0), 15.0f);
    EXPECT_EQ(table.store()->Label(11), 1.0f);

    // Malformed rows carry their record number.
    const std::string bad_path = Path("bad.csv");
    {
        std::ofstream csv(bad_path);
        csv << "f0,label\n1.0,0\nnot_a_number,1\n";
    }
    EXPECT_THROW(db.BulkLoadCsvPaged("bad", bad_path, Path("bad.dbpages"),
                                     StorageOptions{}),
                 ParseError);
}

TEST_F(PagedDbmsTest, SpStorageStatsReportsAndResets)
{
    const Dataset data = MakeHiggs(200, 72);
    ForestTrainerConfig config;
    config.num_trees = 4;
    config.max_depth = 6;
    config.seed = 72;
    const RandomForest forest = TrainForest(data, config);

    Database db;
    db.StoreModel("m", TreeEnsemble::FromForest(forest));
    StorageOptions options;
    options.page_size = 512;
    options.pool_pages = 4;
    db.StoreDatasetPaged("paged", data, Path("t.dbpages"), options);

    HardwareProfile profile = HardwareProfile::Paper();
    ExternalRuntimeParams rt_params;
    ScoringPipeline pipeline(db, profile, rt_params);
    QueryEngine engine(db, pipeline);

    engine.Execute(
        "EXEC sp_score_model @model = 'm', @data = 'paged', "
        "@backend = 'CPU_SKLearn'");
    QueryResult stats =
        engine.Execute("EXEC sp_storage_stats @table = 'paged'");
    ASSERT_EQ(stats.rows.size(), 1u);
    ASSERT_EQ(stats.columns.front(), "table");
    EXPECT_EQ(std::get<std::string>(stats.rows[0][0]), "paged");
    auto col = [&stats](const std::string& name) {
        for (std::size_t c = 0; c < stats.columns.size(); ++c) {
            if (stats.columns[c] == name) {
                return c;
            }
        }
        throw std::out_of_range(name);
    };
    EXPECT_GT(std::get<std::int64_t>(stats.rows[0][col("misses")]), 0);
    EXPECT_GT(std::get<std::int64_t>(stats.rows[0][col("evictions")]), 0);
    EXPECT_GT(std::get<std::int64_t>(stats.rows[0][col("page_reads")]), 0);

    // @reset = 1 zeroes the counters after reporting.
    engine.Execute("EXEC sp_storage_stats @table = 'paged', @reset = 1");
    QueryResult after =
        engine.Execute("EXEC sp_storage_stats @table = 'paged'");
    EXPECT_EQ(std::get<std::int64_t>(after.rows[0][col("misses")]), 0);

    // All-tables form skips in-memory tables instead of failing.
    db.StoreDataset("mem", data);
    QueryResult all = engine.Execute("EXEC sp_storage_stats");
    EXPECT_EQ(all.rows.size(), 1u);
}

TEST_F(PagedDbmsTest, PinnedChunksFlowIntoServingLayer)
{
    const Dataset data = MakeHiggs(96, 73);
    ForestTrainerConfig config;
    config.num_trees = 4;
    config.max_depth = 6;
    config.seed = 73;
    const RandomForest forest = TrainForest(data, config);
    const TreeEnsemble ensemble = TreeEnsemble::FromForest(forest);
    const ModelStats model_stats = ComputeModelStats(forest, &data);

    Database db;
    StorageOptions options;
    options.page_size = 512;
    options.pool_pages = 4;
    Table& table =
        db.StoreDatasetPaged("paged", data, Path("t.dbpages"), options);

    serve::ScoringService service(HardwareProfile::Paper(), {});
    service.RegisterModel("m", ensemble, model_stats);
    service.Start();

    const std::vector<float> reference = forest.PredictBatch(data);
    FeatureStream stream = table.ScanFeatures();
    StreamChunk chunk;
    std::size_t checked = 0;
    while (stream.Next(chunk)) {
        serve::ScoreRequest request;
        request.model_id = "m";
        request.num_rows = chunk.view.rows();
        request.rows = chunk.view;  // pinned zero-copy page frame
        serve::ScoreReply reply = service.ScoreSync(std::move(request));
        ASSERT_EQ(reply.status, serve::RequestStatus::kCompleted);
        ASSERT_EQ(reply.predictions.size(), chunk.view.rows());
        for (std::size_t r = 0; r < reply.predictions.size(); ++r) {
            ASSERT_EQ(reply.predictions[r],
                      reference[chunk.row_begin + r]);
        }
        checked += reply.predictions.size();
    }
    service.Stop();
    EXPECT_EQ(checked, 96u);
}

}  // namespace
}  // namespace dbscore
