/**
 * @file
 * Tests for the simulation engine: core timing model properties,
 * workload generator statistics and determinism, system-level
 * behaviour of the three security models, and the paper's headline
 * orderings as end-to-end properties.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "crypto/latency.hh"
#include "sim/core.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/workload.hh"

namespace
{

using namespace secproc;
using namespace secproc::sim;

// ------------------------------------------------------------- core model

/** Scriptable memory system: fixed latencies, records accesses. */
class FakeMemory : public MemorySystem
{
  public:
    uint64_t data_latency = 10;
    uint64_t ifetch_latency = 1;
    std::vector<uint64_t> data_accesses;

    uint64_t
    dataAccess(uint64_t vaddr, uint64_t cycle, bool) override
    {
        data_accesses.push_back(vaddr);
        return cycle + data_latency;
    }

    uint64_t
    ifetch(uint64_t, uint64_t cycle) override
    {
        return cycle + ifetch_latency;
    }
};

TraceOp
aluOp(uint8_t dep = 0)
{
    TraceOp op;
    op.cls = OpClass::IntAlu;
    op.dep1 = dep;
    return op;
}

TEST(OooCore, WidthLimitsThroughput)
{
    FakeMemory memory;
    CoreConfig config;
    config.width = 4;
    OooCore core(config, memory);
    // 400 independent single-cycle ops at width 4: ~100 cycles.
    for (int i = 0; i < 400; ++i)
        core.step(aluOp());
    EXPECT_GE(core.cycles(), 100u);
    EXPECT_LE(core.cycles(), 110u);
}

TEST(OooCore, DependenceChainSerializes)
{
    FakeMemory memory;
    OooCore core(CoreConfig{}, memory);
    // Every op depends on the previous one: 1 IPC regardless of
    // width.
    for (int i = 0; i < 300; ++i)
        core.step(aluOp(/*dep=*/1));
    EXPECT_GE(core.cycles(), 300u);
}

TEST(OooCore, IndependentLoadsOverlap)
{
    FakeMemory memory;
    memory.data_latency = 100;
    OooCore core(CoreConfig{}, memory);
    // 32 independent loads: latencies overlap inside the window, so
    // total time is far below 32 * 100.
    for (int i = 0; i < 32; ++i) {
        TraceOp op;
        op.cls = OpClass::Load;
        op.addr = 0x1000 + 64 * i;
        core.step(op);
    }
    EXPECT_LT(core.cycles(), 32u * 100u / 4);
    EXPECT_EQ(core.loads(), 32u);
}

TEST(OooCore, DependentLoadsDoNotOverlap)
{
    FakeMemory memory;
    memory.data_latency = 100;
    OooCore core(CoreConfig{}, memory);
    for (int i = 0; i < 16; ++i) {
        TraceOp op;
        op.cls = OpClass::Load;
        op.addr = 0x1000 + 64 * i;
        op.dep1 = 1; // chained
        core.step(op);
    }
    EXPECT_GE(core.cycles(), 16u * 100u);
}

TEST(OooCore, RobLimitsMemoryParallelism)
{
    FakeMemory memory;
    memory.data_latency = 1000;
    CoreConfig small_rob;
    small_rob.rob_size = 8;
    OooCore core(small_rob, memory);
    // Window of 8: at most 8 of these loads can be in flight; 64
    // loads take at least (64/8) * 1000 cycles.
    for (int i = 0; i < 64; ++i) {
        TraceOp op;
        op.cls = OpClass::Load;
        op.addr = 0x1000 + 64 * i;
        core.step(op);
    }
    EXPECT_GE(core.cycles(), 8u * 1000u);
}

TEST(OooCore, MispredictRedirectsFetch)
{
    FakeMemory memory;
    OooCore baseline(CoreConfig{}, memory);
    OooCore redirected(CoreConfig{}, memory);
    for (int i = 0; i < 100; ++i) {
        TraceOp op;
        op.cls = OpClass::Branch;
        baseline.step(op);
        op.mispredict = true;
        redirected.step(op);
    }
    EXPECT_GT(redirected.cycles(), baseline.cycles());
    EXPECT_EQ(redirected.mispredicts(), 100u);
}

TEST(OooCore, StoresDoNotBlockRetirement)
{
    FakeMemory memory;
    memory.data_latency = 1000;
    OooCore core(CoreConfig{}, memory);
    for (int i = 0; i < 100; ++i) {
        TraceOp op;
        op.cls = OpClass::Store;
        op.addr = 0x2000 + 64 * i;
        core.step(op);
    }
    EXPECT_LT(core.cycles(), 1000u)
        << "stores retire through the store buffer";
}

TEST(OooCore, ResetRestartsTiming)
{
    FakeMemory memory;
    OooCore core(CoreConfig{}, memory);
    for (int i = 0; i < 100; ++i)
        core.step(aluOp());
    core.reset();
    EXPECT_EQ(core.cycles(), 0u);
    EXPECT_EQ(core.instructions(), 0u);
}

// -------------------------------------------------------------- workloads

TEST(Workload, Deterministic)
{
    SyntheticWorkload a(benchmarkProfile("gcc"));
    SyntheticWorkload b(benchmarkProfile("gcc"));
    for (int i = 0; i < 20000; ++i) {
        const TraceOp &op_a = a.next();
        const TraceOp &op_b = b.next();
        ASSERT_EQ(op_a.cls, op_b.cls);
        ASSERT_EQ(op_a.addr, op_b.addr);
        ASSERT_EQ(op_a.dep1, op_b.dep1);
    }
}

TEST(Workload, ResetReproducesStream)
{
    SyntheticWorkload workload(benchmarkProfile("mcf"));
    std::vector<uint64_t> first;
    for (int i = 0; i < 5000; ++i)
        first.push_back(workload.next().addr);
    workload.reset();
    for (int i = 0; i < 5000; ++i)
        ASSERT_EQ(workload.next().addr, first[static_cast<size_t>(i)]);
}

TEST(Workload, MixMatchesProfile)
{
    const WorkloadProfile profile = benchmarkProfile("parser");
    SyntheticWorkload workload(profile);
    std::map<OpClass, uint64_t> counts;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[workload.next().cls];
    const double mem_frac =
        static_cast<double>(counts[OpClass::Load] +
                            counts[OpClass::Store]) /
        n;
    EXPECT_NEAR(mem_frac, profile.mem_frac, 0.01);
    const double branch_frac =
        static_cast<double>(counts[OpClass::Branch]) / n;
    EXPECT_NEAR(branch_frac, profile.branch_frac, 0.01);
}

TEST(Workload, AddressesStayInRegions)
{
    const WorkloadProfile profile = benchmarkProfile("ammp");
    SyntheticWorkload workload(profile);
    for (int i = 0; i < 100000; ++i) {
        const TraceOp &op = workload.next();
        if (op.cls != OpClass::Load && op.cls != OpClass::Store)
            continue;
        bool inside = false;
        for (const DataRegion &region : workload.profile().regions) {
            const uint64_t extent =
                region.behavior == RegionBehavior::ConflictStream
                    ? region.conflict_lines * region.conflict_stride
                    : region.footprint;
            if (op.addr >= region.base &&
                op.addr < region.base + extent) {
                inside = true;
                break;
            }
        }
        ASSERT_TRUE(inside)
            << "address " << std::hex << op.addr << " outside regions";
    }
}

TEST(Workload, ChaseLoadsAreSerialized)
{
    SyntheticWorkload workload(benchmarkProfile("mcf"));
    uint64_t serialized = 0, chase_loads = 0;
    uint64_t chase_base = 0, chase_end = 0;
    for (const DataRegion &region : workload.profile().regions) {
        if (region.behavior == RegionBehavior::Chase) {
            chase_base = region.base;
            chase_end = region.base + region.footprint;
        }
    }
    ASSERT_NE(chase_base, 0u);
    for (int i = 0; i < 100000; ++i) {
        const TraceOp &op = workload.next();
        if (op.cls == OpClass::Load && op.addr >= chase_base &&
            op.addr < chase_end) {
            ++chase_loads;
            serialized += (op.dep1 != 0);
        }
    }
    EXPECT_GT(chase_loads, 1000u);
    EXPECT_GT(static_cast<double>(serialized) /
                  static_cast<double>(chase_loads),
              0.9)
        << "chase loads must depend on their predecessor";
}

TEST(Workload, LiveLinesMatchBehaviour)
{
    SyntheticWorkload workload(benchmarkProfile("gcc"));
    const auto &regions = workload.profile().regions;
    for (size_t i = 0; i < regions.size(); ++i) {
        const auto live = workload.liveLines(i);
        if (regions[i].behavior == RegionBehavior::WriteOnce) {
            EXPECT_TRUE(live.empty());
            continue;
        }
        EXPECT_FALSE(live.empty());
        std::set<uint64_t> unique(live.begin(), live.end());
        EXPECT_EQ(unique.size(), live.size()) << "no duplicate lines";
    }
}

TEST(Workload, AllElevenBenchmarksExist)
{
    EXPECT_EQ(benchmarkNames().size(), 11u);
    for (const std::string &name : benchmarkNames()) {
        const WorkloadProfile profile = benchmarkProfile(name);
        EXPECT_EQ(profile.name, name);
        EXPECT_FALSE(profile.regions.empty());
        // Paper numbers exist for every benchmark.
        const PaperNumbers numbers = paperNumbers(name);
        EXPECT_GT(numbers.xom_slowdown, 0.0);
    }
}

// ----------------------------------------------------------- full system

SystemConfig
quickConfig(secure::SecurityModel model)
{
    auto config = paperConfig(model);
    return config;
}

uint64_t
runCycles(const std::string &bench, const SystemConfig &config,
          uint64_t instructions)
{
    SyntheticWorkload workload(benchmarkProfile(bench),
                               config.l2.line_size);
    System system(config, workload);
    system.run(instructions / 4);
    system.beginMeasurement();
    system.run(instructions);
    return system.stats().cycles;
}

TEST(SystemOrdering, XomSlowerThanBaseline)
{
    // The paper's central premise, as a property over two memory-
    // bound benchmarks.
    for (const std::string bench : {"art", "mcf"}) {
        const uint64_t base = runCycles(
            bench, quickConfig(secure::SecurityModel::Baseline),
            400000);
        const uint64_t xom = runCycles(
            bench, quickConfig(secure::SecurityModel::Xom), 400000);
        EXPECT_GT(xom, base + base / 10)
            << bench << ": XOM must cost >10%";
    }
}

TEST(SystemOrdering, OtpBeatsXom)
{
    // The paper's central result.
    for (const std::string bench : {"art", "vpr"}) {
        const uint64_t xom = runCycles(
            bench, quickConfig(secure::SecurityModel::Xom), 400000);
        const uint64_t otp = runCycles(
            bench, quickConfig(secure::SecurityModel::OtpSnc), 400000);
        EXPECT_LT(otp, xom) << bench << ": OTP+SNC must beat XOM";
    }
}

TEST(SystemOrdering, LruBeatsNoReplacementOnGcc)
{
    // Figure 5's gcc pathology: drifting working sets fill a
    // no-replacement SNC with dead entries.
    auto lru = quickConfig(secure::SecurityModel::OtpSnc);
    auto norepl = lru;
    norepl.protection.snc.allow_replacement = false;
    const uint64_t lru_cycles = runCycles("gcc", lru, 600000);
    const uint64_t norepl_cycles = runCycles("gcc", norepl, 600000);
    EXPECT_LT(lru_cycles, norepl_cycles);
}

TEST(SystemOrdering, BiggerSncHelpsMcf)
{
    // Figure 6 on the most footprint-bound benchmark.
    auto small = quickConfig(secure::SecurityModel::OtpSnc);
    small.protection.snc.capacity_bytes = 32 * 1024;
    auto large = quickConfig(secure::SecurityModel::OtpSnc);
    large.protection.snc.capacity_bytes = 128 * 1024;
    const uint64_t small_cycles = runCycles("mcf", small, 600000);
    const uint64_t large_cycles = runCycles("mcf", large, 600000);
    EXPECT_LT(large_cycles, small_cycles);
}

TEST(SystemOrdering, CryptoLatencyHurtsXomNotOtp)
{
    // Figure 10's property: XOM degrades with crypto latency, the
    // OTP fast path absorbs it.
    auto xom_fast = quickConfig(secure::SecurityModel::Xom);
    auto xom_slow = xom_fast;
    xom_slow.protection.crypto.latency =
        crypto::kStrongCipherLatency;
    auto otp_fast = quickConfig(secure::SecurityModel::OtpSnc);
    auto otp_slow = otp_fast;
    otp_slow.protection.crypto.latency =
        crypto::kStrongCipherLatency;

    const uint64_t base = runCycles(
        "art", quickConfig(secure::SecurityModel::Baseline), 400000);
    const uint64_t xf = runCycles("art", xom_fast, 400000);
    const uint64_t xs = runCycles("art", xom_slow, 400000);
    const uint64_t of = runCycles("art", otp_fast, 400000);
    const uint64_t os = runCycles("art", otp_slow, 400000);

    EXPECT_GT(xs, xf) << "102-cycle crypto must slow XOM further";
    const double otp_delta =
        std::abs(static_cast<double>(os) - static_cast<double>(of)) /
        static_cast<double>(base);
    EXPECT_LT(otp_delta, 0.05)
        << "OTP slowdown is insensitive to crypto latency";
}

TEST(System, MshrLimitEnforced)
{
    auto config = quickConfig(secure::SecurityModel::Baseline);
    config.mshrs = 1;
    const uint64_t serialized = runCycles("art", config, 200000);
    config.mshrs = 16;
    const uint64_t parallel = runCycles("art", config, 200000);
    EXPECT_LT(parallel, serialized)
        << "more MSHRs must increase miss overlap";
}

TEST(System, StatsAreConsistent)
{
    auto config = quickConfig(secure::SecurityModel::OtpSnc);
    SyntheticWorkload workload(benchmarkProfile("parser"),
                               config.l2.line_size);
    System system(config, workload);
    system.run(100000);
    system.beginMeasurement();
    system.run(200000);
    const RunStats stats = system.stats();
    EXPECT_EQ(stats.instructions, 200000u);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.ipc, 0.0);
    EXPECT_LE(stats.l2_misses, stats.l2_accesses);
    EXPECT_GT(stats.data_bytes, 0u);
}

TEST(System, DeterministicAcrossRuns)
{
    const uint64_t first = runCycles(
        "vpr", quickConfig(secure::SecurityModel::OtpSnc), 300000);
    const uint64_t second = runCycles(
        "vpr", quickConfig(secure::SecurityModel::OtpSnc), 300000);
    EXPECT_EQ(first, second)
        << "identical configuration must give identical cycles";
}

// ------------------------------------------------------- SNC priming

/** FNV-1a over the SNC state a System exposes through the const API. */
uint64_t
sncStateDigest(const System &system, const WorkloadProfile &profile,
               uint64_t line)
{
    const auto &otp =
        static_cast<const secure::OtpEngine &>(system.engine());
    const secure::SequenceNumberCache &snc = otp.snc();
    uint64_t digest = 0xcbf29ce484222325ull;
    const auto mix = [&digest](uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            digest ^= (word >> (8 * byte)) & 0xFF;
            digest *= 0x100000001b3ull;
        }
    };
    const auto mixLine = [&](uint64_t line_va) {
        const auto seqnum = snc.peek(line_va);
        mix(seqnum.has_value() ? uint64_t{*seqnum} + 1 : 0);
    };
    mix(snc.occupancy());
    mix(snc.spills());
    for (const DataRegion &region : profile.regions) {
        if (region.behavior == RegionBehavior::ConflictStream) {
            for (uint64_t i = 0; i < region.conflict_lines; ++i)
                mixLine(region.base + i * region.conflict_stride);
        } else {
            for (uint64_t va = region.base;
                 va < region.base + region.footprint; va += line)
                mixLine(va);
        }
    }
    // The history filler System::preinitializeRegions installs.
    for (uint64_t i = 0; i < 32 * 1024; ++i)
        mixLine(0x7F00'0000'0000ull + i * line);
    return digest;
}

TEST(SncPriming, StateMatchesParent)
{
    // Digests of the primed SNC (right after construction) and of
    // the same SNC after 20k instructions, recorded before the SNC
    // directory moved to a radix tree and a flat slot table. Any
    // change in victims, LRU order or sequence numbers moves them.
    struct Expected
    {
        const char *bench;
        bool lru;
        uint64_t primed;
        uint64_t after_run;
    };
    const Expected cases[] = {
        {"gcc", true, 0x70865289ed18c116ull, 0xd668b982aeff9d36ull},
        {"gcc", false, 0x2e180496948e82a5ull, 0x2e180496948e82a5ull},
        {"ammp", true, 0x37c001653e996b77ull, 0x380d9aece529f3cull},
        {"ammp", false, 0x5fa1626e67e29ee5ull, 0x69e8b0b432bffc5ull},
        {"mcf", true, 0xe9741876dc72bb3eull, 0x90c3d62bb2d5ee4full},
        {"mcf", false, 0x89ff1610e4d086e5ull, 0x401c643a80a081c4ull},
    };
    for (const Expected &expected : cases) {
        SystemConfig config = quickConfig(secure::SecurityModel::OtpSnc);
        config.protection.snc.allow_replacement = expected.lru;
        SyntheticWorkload workload(benchmarkProfile(expected.bench),
                                   config.l2.line_size);
        System system(config, workload);
        const uint64_t line = config.l2.line_size;
        const uint64_t primed =
            sncStateDigest(system, workload.profile(), line);
        system.run(20'000);
        const uint64_t after_run =
            sncStateDigest(system, workload.profile(), line);
        EXPECT_EQ(primed, expected.primed)
            << expected.bench << (expected.lru ? " LRU" : " NoRepl");
        EXPECT_EQ(after_run, expected.after_run)
            << expected.bench << (expected.lru ? " LRU" : " NoRepl");
    }
}

/** Parameterized: every benchmark runs under every model. */
class EveryBenchEveryModel
    : public ::testing::TestWithParam<
          std::tuple<std::string, secure::SecurityModel>>
{};

TEST_P(EveryBenchEveryModel, RunsAndProducesSaneStats)
{
    const auto &[bench, model] = GetParam();
    auto config = quickConfig(model);
    SyntheticWorkload workload(benchmarkProfile(bench),
                               config.l2.line_size);
    System system(config, workload);
    system.run(60000);
    system.beginMeasurement();
    system.run(120000);
    const RunStats stats = system.stats();
    EXPECT_EQ(stats.instructions, 120000u);
    EXPECT_GT(stats.ipc, 0.05);
    EXPECT_LT(stats.ipc, 4.0);
}

std::string
matrixName(const ::testing::TestParamInfo<
           std::tuple<std::string, secure::SecurityModel>> &info)
{
    std::string name =
        std::get<0>(info.param) + "_" +
        secure::securityModelName(std::get<1>(info.param));
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EveryBenchEveryModel,
    ::testing::Combine(
        ::testing::ValuesIn(benchmarkNames()),
        ::testing::Values(secure::SecurityModel::Baseline,
                          secure::SecurityModel::Xom,
                          secure::SecurityModel::OtpSnc)),
    matrixName);

} // namespace
