/**
 * @file
 * Property-based sweeps over the whole design space.
 *
 * Where the unit tests pin single behaviours, these tests assert the
 * *relations* the paper's argument rests on, across parameter grids:
 * engine fill-cost identities over (memory, crypto) latency pairs,
 * the machine ordering baseline <= SNC-LRU <= SNC-NoRepl <= XOM on
 * every benchmark profile, monotonicity in SNC capacity and crypto
 * latency, and model-based equivalence of the cache and SNC against
 * tiny reference implementations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <list>
#include <map>
#include <tuple>

#include "crypto/latency.hh"
#include "mem/cache.hh"
#include "mem/memory_channel.hh"
#include "secure/engines.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "util/random.hh"

namespace
{

using namespace secproc;
using namespace secproc::sim;
using secproc::util::Rng;

// ================================================ engine cost identities

/** (memory latency, crypto latency). */
using LatencyPair = std::tuple<uint32_t, uint32_t>;

class EngineCosts : public ::testing::TestWithParam<LatencyPair>
{
  protected:
    EngineCosts()
    {
        std::vector<uint8_t> key(8, 0x42);
        keys_.install(1, secure::CipherKind::Des, key);
    }

    /** A fresh channel with pure latencies (no bus occupancy). */
    mem::MemoryChannel
    makeChannel() const
    {
        mem::ChannelConfig config;
        config.access_latency = std::get<0>(GetParam());
        config.transfer_cycles = 0;
        config.small_transfer_cycles = 0;
        return mem::MemoryChannel(config);
    }

    secure::ProtectionConfig
    makeConfig(secure::SecurityModel model) const
    {
        secure::ProtectionConfig config;
        config.model = model;
        config.crypto.latency = std::get<1>(GetParam());
        config.crypto.initiation_interval = 1;
        config.snc.l2_line_size = 128;
        config.line_size = 128;
        return config;
    }

    secure::KeyTable keys_;
};

TEST_P(EngineCosts, XomFillIsMemoryPlusCrypto)
{
    const auto [m, c] = GetParam();
    auto channel = makeChannel();
    secure::XomEngine engine(makeConfig(secure::SecurityModel::Xom),
                             channel, keys_);
    engine.planEvict(0x1000, mem::RegionKind::Protected); // Direct now
    const auto fill = engine.lineFill(0x1000, /*cycle=*/100'000, false,
                                      mem::RegionKind::Protected);
    EXPECT_EQ(fill.ready_cycle, 100'000 + m + c);
}

TEST_P(EngineCosts, OtpFastPathIsMaxPlusOne)
{
    const auto [m, c] = GetParam();
    auto channel = makeChannel();
    secure::OtpEngine engine(makeConfig(secure::SecurityModel::OtpSnc),
                             channel, keys_);
    engine.planEvict(0x1000, mem::RegionKind::Protected); // SNC entry
    const auto fill = engine.lineFill(0x1000, 100'000, false,
                                      mem::RegionKind::Protected);
    EXPECT_TRUE(fill.fast_path);
    EXPECT_EQ(fill.ready_cycle, 100'000 + std::max(m, c) + 1);
}

TEST_P(EngineCosts, InstructionFetchAlwaysFast)
{
    const auto [m, c] = GetParam();
    auto channel = makeChannel();
    secure::OtpEngine engine(makeConfig(secure::SecurityModel::OtpSnc),
                             channel, keys_);
    const auto fill = engine.lineFill(0x4000, 100'000, /*ifetch=*/true,
                                      mem::RegionKind::Protected);
    EXPECT_TRUE(fill.fast_path);
    EXPECT_EQ(fill.ready_cycle, 100'000 + std::max(m, c) + 1);
}

TEST_P(EngineCosts, OtpQueryMissSerialCost)
{
    const auto [m, c] = GetParam();
    auto channel = makeChannel();
    secure::OtpEngine engine(makeConfig(secure::SecurityModel::OtpSnc),
                             channel, keys_);
    engine.planEvict(0x1000, mem::RegionKind::Protected);
    engine.flushSnc(0); // seqnum now only in the in-memory table
    const auto fill = engine.lineFill(0x1000, 100'000, false,
                                      mem::RegionKind::Protected);
    EXPECT_TRUE(fill.snc_query_miss);
    // Algorithm 1 (serial): seqnum fetch (m) + seqnum decrypt (c),
    // then pad generation (another c) overlaps the line fetch (m):
    // ready = max(2m + c, m + 2c) + 1.
    const uint64_t expected =
        std::max(2 * m + c, m + 2 * c) + 1;
    EXPECT_EQ(fill.ready_cycle, 100'000 + expected);
}

TEST_P(EngineCosts, OtpQueryMissParallelFetchIsNoSlower)
{
    const auto [m, c] = GetParam();
    auto serial_channel = makeChannel();
    auto config = makeConfig(secure::SecurityModel::OtpSnc);
    secure::OtpEngine serial(config, serial_channel, keys_);
    serial.planEvict(0x1000, mem::RegionKind::Protected);
    serial.flushSnc(0);
    const auto slow = serial.lineFill(0x1000, 100'000, false,
                                      mem::RegionKind::Protected);

    auto parallel_channel = makeChannel();
    config.parallel_seqnum_fetch = true;
    secure::OtpEngine parallel(config, parallel_channel, keys_);
    parallel.planEvict(0x1000, mem::RegionKind::Protected);
    parallel.flushSnc(0);
    const auto fast = parallel.lineFill(0x1000, 100'000, false,
                                        mem::RegionKind::Protected);
    EXPECT_LE(fast.ready_cycle, slow.ready_cycle);
    (void)m;
    (void)c;
}

TEST_P(EngineCosts, BaselineFillIsMemoryOnly)
{
    const auto [m, c] = GetParam();
    auto channel = makeChannel();
    secure::BaselineEngine engine(
        makeConfig(secure::SecurityModel::Baseline), channel, keys_);
    const auto fill = engine.lineFill(0x1000, 100'000, false,
                                      mem::RegionKind::Protected);
    EXPECT_EQ(fill.ready_cycle, 100'000 + m);
    (void)c;
}

INSTANTIATE_TEST_SUITE_P(
    LatencyGrid, EngineCosts,
    ::testing::Combine(::testing::Values(50u, 100u, 200u),
                       ::testing::Values(25u, 50u, 102u, 200u)),
    [](const auto &info) {
        return "mem" + std::to_string(std::get<0>(info.param)) +
               "_crypto" + std::to_string(std::get<1>(info.param));
    });

// ============================================== whole-machine orderings

class MachineOrdering : public ::testing::TestWithParam<std::string>
{
  protected:
    static uint64_t
    cyclesFor(const std::string &bench, const SystemConfig &config)
    {
        SyntheticWorkload workload(benchmarkProfile(bench),
                                   config.l2.line_size);
        System system(config, workload);
        system.run(300'000);
        return system.core().cycles();
    }
};

TEST_P(MachineOrdering, BaselineLruNoreplXom)
{
    const std::string bench = GetParam();
    const uint64_t base =
        cyclesFor(bench, paperConfig(secure::SecurityModel::Baseline));
    auto lru_config = paperConfig(secure::SecurityModel::OtpSnc);
    const uint64_t lru = cyclesFor(bench, lru_config);
    auto norepl_config = paperConfig(secure::SecurityModel::OtpSnc);
    norepl_config.protection.snc.allow_replacement = false;
    const uint64_t norepl = cyclesFor(bench, norepl_config);
    const uint64_t xom =
        cyclesFor(bench, paperConfig(secure::SecurityModel::Xom));

    // The paper's Figure 5 ordering, with a 1% slack for runs where
    // two machines are effectively tied.
    EXPECT_LE(base, lru);
    EXPECT_LE(lru, norepl + norepl / 100);
    EXPECT_LE(norepl, xom + xom / 100);
}

TEST_P(MachineOrdering, SlowdownShrinksWithSncCapacity)
{
    const std::string bench = GetParam();
    const uint64_t base =
        cyclesFor(bench, paperConfig(secure::SecurityModel::Baseline));
    uint64_t previous = ~0ull;
    for (const uint64_t kb : {32ull, 64ull, 128ull}) {
        auto config = paperConfig(secure::SecurityModel::OtpSnc);
        config.protection.snc.capacity_bytes = kb * 1024;
        const uint64_t cycles = cyclesFor(bench, config);
        EXPECT_GE(base, 1u);
        EXPECT_LE(cycles, previous + previous / 100)
            << bench << " at " << kb << "KB";
        previous = cycles;
    }
}

TEST_P(MachineOrdering, OtpInsensitiveToCryptoLatencyXomIsNot)
{
    const std::string bench = GetParam();
    const uint64_t base =
        cyclesFor(bench, paperConfig(secure::SecurityModel::Baseline));

    auto xom50 = paperConfig(secure::SecurityModel::Xom);
    auto xom102 = paperConfig(secure::SecurityModel::Xom);
    xom102.protection.crypto.latency =
        crypto::kStrongCipherLatency;
    const uint64_t x50 = cyclesFor(bench, xom50);
    const uint64_t x102 = cyclesFor(bench, xom102);
    EXPECT_GE(x102, x50) << "longer crypto cannot speed XOM up";

    auto otp50 = paperConfig(secure::SecurityModel::OtpSnc);
    auto otp102 = paperConfig(secure::SecurityModel::OtpSnc);
    otp102.protection.crypto.latency =
        crypto::kStrongCipherLatency;
    const uint64_t o50 = cyclesFor(bench, otp50);
    const uint64_t o102 = cyclesFor(bench, otp102);

    // Figure 10's claim: the OTP fast path is max(mem, crypto) + 1,
    // so moving crypto from 50 to 102 (vs 100-cycle memory) shifts
    // OTP by at most a few points while XOM pays the full delta on
    // every fill. Slowdown deltas, in percent of baseline:
    const double otp_delta = 100.0 *
        (static_cast<double>(o102) - static_cast<double>(o50)) /
        static_cast<double>(base);
    const double xom_delta = 100.0 *
        (static_cast<double>(x102) - static_cast<double>(x50)) /
        static_cast<double>(base);
    EXPECT_LE(otp_delta, 5.0) << bench;
    if (xom_delta > 2.0) {
        EXPECT_GT(xom_delta, otp_delta)
            << "memory-bound " << bench
            << ": XOM must suffer more from slower crypto";
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, MachineOrdering,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const auto &info) { return info.param; });

// ======================================== cache vs reference LRU model

struct CacheGeometry
{
    uint64_t size_bytes;
    uint32_t assoc; // 0 = fully associative
    uint32_t line_size;
    /** First address of the stream (high bases leave the dense range). */
    uint64_t base = 0;
};

class CacheModelEquivalence
    : public ::testing::TestWithParam<CacheGeometry>
{};

/**
 * Minimal reference: per-set LRU lists with a map for lookup. It
 * also models directory slots, because invalidateAll() reports
 * victims in slot order: each set hands out free slots from a stack
 * (slot 0 first, the most recently freed next), an eviction reuses
 * the victim's slot, and a full flush frees the resident slots
 * LRU-first behind the ones that were already free.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheGeometry &geometry)
        : geometry_(geometry)
    {
        const uint64_t lines = geometry.size_bytes / geometry.line_size;
        ways_ = geometry.assoc == 0 ? lines : geometry.assoc;
        sets_.resize(lines / ways_);
        for (size_t set = 0; set < sets_.size(); ++set) {
            for (uint64_t way = ways_; way-- > 0;) {
                sets_[set].free.push_back(
                    static_cast<uint32_t>(set * ways_ + way));
            }
        }
    }

    bool
    access(uint64_t addr)
    {
        const auto it = where_.find(addr / geometry_.line_size);
        if (it == where_.end())
            return false;
        Set &set = setFor(addr);
        set.lru.splice(set.lru.begin(), set.lru, it->second);
        return true;
    }

    /** @return displaced line number, or ~0 if none. */
    uint64_t
    fill(uint64_t addr)
    {
        if (access(addr))
            return ~0ull;
        Set &set = setFor(addr);
        const uint64_t line = addr / geometry_.line_size;
        uint64_t victim = ~0ull;
        uint32_t slot;
        if (!set.free.empty()) {
            slot = set.free.back();
            set.free.pop_back();
        } else {
            victim = set.lru.back().first;
            slot = set.lru.back().second;
            where_.erase(victim);
            set.lru.pop_back();
        }
        set.lru.emplace_front(line, slot);
        where_[line] = set.lru.begin();
        return victim;
    }

    /** @return the removed line number, or ~0 if it was absent. */
    uint64_t
    invalidate(uint64_t addr)
    {
        const uint64_t line = addr / geometry_.line_size;
        const auto it = where_.find(line);
        if (it == where_.end())
            return ~0ull;
        Set &set = setFor(addr);
        set.free.push_back(it->second->second);
        set.lru.erase(it->second);
        where_.erase(it);
        return line;
    }

    /** @return every resident line number in ascending slot order. */
    std::vector<uint64_t>
    invalidateAll()
    {
        std::map<uint32_t, uint64_t> by_slot;
        for (Set &set : sets_) {
            std::vector<uint32_t> free;
            for (const auto &[line, slot] : set.lru) {
                by_slot[slot] = line;
                free.push_back(slot);
            }
            free.insert(free.end(), set.free.begin(), set.free.end());
            set.free = std::move(free);
            set.lru.clear();
        }
        where_.clear();
        std::vector<uint64_t> lines;
        for (const auto &entry : by_slot)
            lines.push_back(entry.second);
        return lines;
    }

  private:
    using Lru = std::list<std::pair<uint64_t, uint32_t>>; // MRU first

    struct Set
    {
        Lru lru;
        std::vector<uint32_t> free; ///< back = next slot handed out
    };

    Set &
    setFor(uint64_t addr)
    {
        const uint64_t line = addr / geometry_.line_size;
        return sets_[line % sets_.size()];
    }

    CacheGeometry geometry_;
    uint64_t ways_;
    std::vector<Set> sets_;
    std::map<uint64_t, Lru::iterator> where_;
};

TEST_P(CacheModelEquivalence, RandomStreamMatchesReference)
{
    const CacheGeometry geometry = GetParam();
    mem::CacheConfig config;
    config.size_bytes = geometry.size_bytes;
    config.assoc = geometry.assoc;
    config.line_size = geometry.line_size;
    config.policy = mem::ReplacementPolicy::Lru;
    mem::Cache cache(config);
    ReferenceCache reference(geometry);

    const auto expectVictim = [&](const mem::Victim &victim,
                                  uint64_t ref_line, uint64_t op) {
        if (ref_line == ~0ull) {
            ASSERT_FALSE(victim.valid) << "op " << op;
        } else {
            ASSERT_TRUE(victim.valid) << "op " << op;
            ASSERT_EQ(victim.line_addr, ref_line * geometry.line_size)
                << "op " << op;
        }
    };

    Rng rng(geometry.size_bytes ^ geometry.line_size ^ geometry.base);
    const uint64_t span = geometry.size_bytes * 4;
    // Long enough to cycle the paper's 32K-line SNC between flushes.
    const uint64_t lines = geometry.size_bytes / geometry.line_size;
    const uint64_t ops = std::max<uint64_t>(20'000, 8 * lines);
    const uint64_t flush_every = ops / 3;
    for (uint64_t i = 0; i < ops; ++i) {
        const uint64_t addr = geometry.base + rng.nextRange(span);
        if (i % flush_every == flush_every - 1) {
            const std::vector<mem::Victim> victims =
                cache.invalidateAll();
            const std::vector<uint64_t> ref_lines =
                reference.invalidateAll();
            ASSERT_EQ(victims.size(), ref_lines.size()) << "op " << i;
            for (size_t v = 0; v < victims.size(); ++v)
                expectVictim(victims[v], ref_lines[v], i);
            ASSERT_EQ(cache.occupancy(), 0u);
            continue;
        }
        if (rng.nextRange(16) == 0) {
            expectVictim(cache.invalidate(addr),
                         reference.invalidate(addr), i);
            continue;
        }
        const bool hit = cache.access(addr, /*write=*/false);
        const bool ref_hit = reference.access(addr);
        ASSERT_EQ(hit, ref_hit) << "op " << i << " addr " << addr;
        if (!hit) {
            const auto victim = cache.fill(addr, false, 0);
            ASSERT_TRUE(victim.has_value());
            expectVictim(*victim, reference.fill(addr), i);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelEquivalence,
    ::testing::Values(
        CacheGeometry{1024, 1, 64}, CacheGeometry{4096, 4, 64},
        CacheGeometry{8192, 0, 128}, CacheGeometry{2048, 2, 32},
        CacheGeometry{64 * 1024, 32, 128},
        // Above the radix directory's dense range: the SNC's
        // history filler and the multitask address-space strides.
        CacheGeometry{8192, 0, 128, 0x7F00'0000'0000ull},
        CacheGeometry{8192, 0, 128, 1ull << 40},
        // The paper's SNC: 32K fully associative 128-byte lines.
        CacheGeometry{32 * 1024 * 128, 0, 128}),
    [](const auto &info) {
        std::string name = std::to_string(info.param.size_bytes) +
                           "B_" + std::to_string(info.param.assoc) +
                           "w_" + std::to_string(info.param.line_size) +
                           "l";
        if (info.param.base != 0) {
            char base[32];
            std::snprintf(base, sizeof(base), "_at%llx",
                          static_cast<unsigned long long>(
                              info.param.base));
            name += base;
        }
        return name;
    });

// ===================================== workload generator properties

class WorkloadProperties : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadProperties, DeterministicAcrossInstances)
{
    SyntheticWorkload a(benchmarkProfile(GetParam()), 128);
    SyntheticWorkload b(benchmarkProfile(GetParam()), 128);
    for (int i = 0; i < 20'000; ++i) {
        const TraceOp &x = a.next();
        const TraceOp &y = b.next();
        ASSERT_EQ(x.cls, y.cls);
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.fetch_line, y.fetch_line);
        ASSERT_EQ(x.dep1, y.dep1);
        ASSERT_EQ(x.mispredict, y.mispredict);
    }
}

TEST_P(WorkloadProperties, ResetReplaysTheSameStream)
{
    SyntheticWorkload workload(benchmarkProfile(GetParam()), 128);
    std::vector<uint64_t> first;
    for (int i = 0; i < 5'000; ++i)
        first.push_back(workload.next().addr);
    workload.reset();
    for (int i = 0; i < 5'000; ++i)
        ASSERT_EQ(workload.next().addr, first[i]) << "op " << i;
}

TEST_P(WorkloadProperties, MemFractionApproximatelyRespected)
{
    SyntheticWorkload workload(benchmarkProfile(GetParam()), 128);
    const double target = workload.profile().mem_frac;
    uint64_t mem = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i) {
        const OpClass cls = workload.next().cls;
        mem += cls == OpClass::Load || cls == OpClass::Store;
    }
    const double measured = static_cast<double>(mem) / n;
    EXPECT_NEAR(measured, target, 0.05) << GetParam();
}

TEST_P(WorkloadProperties, AddressesStayInsideDeclaredRegions)
{
    SyntheticWorkload workload(benchmarkProfile(GetParam()), 128);
    const auto &regions = workload.profile().regions;
    for (int i = 0; i < 50'000; ++i) {
        const TraceOp &op = workload.next();
        if (op.cls != OpClass::Load && op.cls != OpClass::Store)
            continue;
        bool inside = false;
        for (const DataRegion &region : regions) {
            uint64_t extent = region.footprint;
            if (region.behavior == RegionBehavior::ConflictStream) {
                extent = std::max(extent, region.conflict_lines *
                                              region.conflict_stride);
            }
            if (op.addr >= region.base &&
                op.addr < region.base + extent) {
                inside = true;
                break;
            }
        }
        ASSERT_TRUE(inside)
            << GetParam() << " op " << i << " addr " << op.addr;
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadProperties,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const auto &info) { return info.param; });

} // namespace
