/**
 * @file
 * Sectored Sequence Number Cache tests: one directory tag covering
 * several consecutive L2 lines' sequence numbers (tag-area saving +
 * spatial prefetch), including the engine-level cofetch behaviour.
 */

#include <gtest/gtest.h>

#include "mem/memory_channel.hh"
#include "secure/engines.hh"
#include "secure/snc.hh"

namespace
{

using namespace secproc;
using namespace secproc::secure;

SncConfig
sectoredConfig(uint32_t sector_lines, uint64_t capacity = 4 * 1024)
{
    SncConfig config;
    config.capacity_bytes = capacity;
    config.bytes_per_entry = 2;
    config.assoc = 0; // fully associative
    config.allow_replacement = true;
    config.l2_line_size = 128;
    config.sector_lines = sector_lines;
    return config;
}

TEST(SncSector, GeometryAccounting)
{
    const SncConfig config = sectoredConfig(4);
    EXPECT_EQ(config.entries(), 2048u);
    EXPECT_EQ(config.sectors(), 512u);
    EXPECT_EQ(config.sectorSpan(), 512u);
}

TEST(SncSector, EntriesMustDivideIntoSectors)
{
    SncConfig config = sectoredConfig(3); // 2048 % 3 != 0
    EXPECT_DEATH_IF_SUPPORTED(
        {
            SequenceNumberCache snc(config);
            (void)snc;
        },
        "multiple of the sector size");
}

TEST(SncSector, NeighbourSlotIsEmptyAfterSingleInstall)
{
    SequenceNumberCache snc(sectoredConfig(4));
    const auto install = snc.install(0x1000, 7);
    EXPECT_TRUE(install.installed);
    EXPECT_EQ(snc.query(0x1000), std::optional<uint32_t>{7});
    // Same sector, different line: tag present, slot empty -> miss.
    EXPECT_FALSE(snc.query(0x1080).has_value());
    EXPECT_FALSE(snc.contains(0x1080));
    EXPECT_EQ(snc.occupancy(), 1u);
    EXPECT_EQ(snc.sectorOccupancy(), 1u);
}

TEST(SncSector, InstallReportsCofetchedNeighbours)
{
    SequenceNumberCache snc(sectoredConfig(4));
    const auto install = snc.install(0x1080, 9);
    // Sector base 0x1000, span 0x200: neighbours are the other three.
    EXPECT_EQ(install.cofetched.size(), 3u);
    for (const uint64_t line : {0x1000ull, 0x1100ull, 0x1180ull}) {
        EXPECT_NE(std::find(install.cofetched.begin(),
                            install.cofetched.end(), line),
                  install.cofetched.end());
    }
}

TEST(SncSector, SetEntryPopulatesResidentSector)
{
    SequenceNumberCache snc(sectoredConfig(4));
    snc.install(0x1000, 7);
    EXPECT_TRUE(snc.setEntry(0x1080, 11));
    EXPECT_EQ(snc.query(0x1080), std::optional<uint32_t>{11});
    EXPECT_EQ(snc.occupancy(), 2u);
    EXPECT_EQ(snc.sectorOccupancy(), 1u);
    // Non-resident sector: refused.
    EXPECT_FALSE(snc.setEntry(0x9000, 1));
}

TEST(SncSector, SecondInstallInSectorDisplacesNothing)
{
    SequenceNumberCache snc(sectoredConfig(4));
    snc.install(0x1000, 7);
    const auto install = snc.install(0x1080, 9);
    EXPECT_TRUE(install.installed);
    EXPECT_FALSE(install.victim_valid);
    EXPECT_TRUE(install.victims.empty());
    EXPECT_TRUE(install.cofetched.empty());
}

TEST(SncSector, VictimSectorSpillsEveryPopulatedEntry)
{
    // Two-sector directory: 4 entries, 2 lines per sector.
    SncConfig config = sectoredConfig(2, /*capacity=*/8);
    SequenceNumberCache snc(config);
    ASSERT_EQ(config.sectors(), 2u);

    snc.install(0x0000, 1);
    snc.setEntry(0x0080, 2); // sector 0 fully populated
    snc.install(0x0100, 3);  // sector 1, one slot

    // A third sector displaces the LRU sector (sector 0): both its
    // entries must come back for spilling.
    const auto install = snc.install(0x0200, 4);
    EXPECT_TRUE(install.installed);
    ASSERT_EQ(install.victims.size(), 2u);
    EXPECT_EQ(install.victims[0].line_va, 0x0000u);
    EXPECT_EQ(install.victims[0].seqnum, 1u);
    EXPECT_EQ(install.victims[1].line_va, 0x0080u);
    EXPECT_EQ(install.victims[1].seqnum, 2u);
    EXPECT_EQ(snc.spills(), 2u);
    // The new sector reuses the victim's directory slot; none of the
    // victim's sequence numbers may show through in it.
    EXPECT_FALSE(snc.contains(0x0280));
    EXPECT_EQ(snc.occupancy(), 2u);
}

TEST(SncSector, IncrementOnEmptySlotIsUpdateMiss)
{
    SequenceNumberCache snc(sectoredConfig(4));
    snc.install(0x1000, 7);
    EXPECT_FALSE(snc.increment(0x1080).has_value());
    EXPECT_EQ(snc.updateMisses(), 1u);
    EXPECT_EQ(snc.increment(0x1000), std::optional<uint32_t>{8});
}

TEST(SncSector, FlushReturnsAllPopulatedEntries)
{
    SequenceNumberCache snc(sectoredConfig(4));
    snc.install(0x1000, 1);
    snc.setEntry(0x1100, 2);
    snc.install(0x5000, 3);
    auto entries = snc.flush();
    EXPECT_EQ(entries.size(), 3u);
    EXPECT_EQ(snc.occupancy(), 0u);
    EXPECT_EQ(snc.sectorOccupancy(), 0u);
    EXPECT_FALSE(snc.query(0x1000).has_value());
}

// --------------------------------------------- engine-level cofetch

class SectoredEngine : public ::testing::TestWithParam<uint32_t>
{
  protected:
    SectoredEngine()
        : channel_(mem::ChannelConfig{}),
          config_(makeConfig(GetParam())),
          engine_(config_, channel_, keys_)
    {
        std::vector<uint8_t> key(8, 0x42);
        keys_.install(1, CipherKind::Des, key);
    }

    static ProtectionConfig
    makeConfig(uint32_t sector_lines)
    {
        ProtectionConfig config;
        config.model = SecurityModel::OtpSnc;
        config.snc.capacity_bytes = 1024; // 512 entries
        config.snc.bytes_per_entry = 2;
        config.snc.sector_lines = sector_lines;
        config.snc.l2_line_size = 128;
        config.line_size = 128;
        return config;
    }

    mem::MemoryChannel channel_;
    KeyTable keys_;
    ProtectionConfig config_;
    OtpEngine engine_;
};

TEST_P(SectoredEngine, WritebackThenReadRoundTrips)
{
    // Evict (creates the seqnum), then fill: the seqnum must come
    // back identical whatever the sector geometry.
    for (uint64_t line = 0; line < 32; ++line) {
        const uint64_t va = 0x10000 + line * 128;
        const EvictPlan evict =
            engine_.planEvict(va, mem::RegionKind::Protected);
        EXPECT_EQ(evict.state, LineCipherState::Otp);
        const FillPlan fill =
            engine_.planFill(va, false, mem::RegionKind::Protected);
        EXPECT_EQ(fill.seqnum, evict.seqnum)
            << "line " << line << " sector " << GetParam();
    }
}

TEST_P(SectoredEngine, EvictedSeqnumsSurviveSncThrash)
{
    // Write back twice as many lines as the SNC holds, then read
    // them all back: every seqnum must be recoverable (from the SNC
    // or the spill table), and OTP state must be consistent.
    const uint64_t lines = 1024; // SNC holds 512
    std::vector<uint32_t> expected(lines);
    for (uint64_t i = 0; i < lines; ++i) {
        const uint64_t va = 0x40000 + i * 128;
        expected[i] =
            engine_.planEvict(va, mem::RegionKind::Protected).seqnum;
    }
    for (uint64_t i = 0; i < lines; ++i) {
        const uint64_t va = 0x40000 + i * 128;
        const FillPlan fill =
            engine_.planFill(va, false, mem::RegionKind::Protected);
        ASSERT_EQ(fill.state, LineCipherState::Otp);
        EXPECT_EQ(fill.seqnum, expected[i]) << "line " << i;
    }
}

TEST_P(SectoredEngine, SequentialQueryMissesShrinkWithSectoring)
{
    // Populate the spill table with many lines, flush the SNC, then
    // walk the lines sequentially: each sector miss cofetches the
    // neighbours, so larger sectors must produce fewer query misses.
    const uint64_t lines = 256;
    for (uint64_t i = 0; i < lines; ++i)
        engine_.planEvict(0x80000 + i * 128, mem::RegionKind::Protected);
    engine_.flushSnc(0);

    for (uint64_t i = 0; i < lines; ++i)
        engine_.planFill(0x80000 + i * 128, false,
                         mem::RegionKind::Protected);

    const uint64_t misses = engine_.snc().queryMisses();
    // Exactly one miss per sector (the walk is sequential and the
    // SNC is big enough to keep the walked sectors resident).
    EXPECT_EQ(misses, lines / GetParam());
}

INSTANTIATE_TEST_SUITE_P(SectorSizes, SectoredEngine,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto &info) {
                             return "lines" +
                                    std::to_string(info.param);
                         });

} // namespace
