/**
 * @file
 * Trace record/replay tests: bit-exact round trips, cycle-identical
 * System replays, wrap semantics, and malformed- and non-canonical-
 * input rejection.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/trace_io.hh"

namespace
{

using namespace secproc;
using namespace secproc::sim;

/** Unique temp path per test; removed on destruction. */
class TempTrace
{
  public:
    explicit TempTrace(const std::string &tag)
        : path_(std::filesystem::temp_directory_path() /
                ("secproc_trace_" + tag + ".bin"))
    {}

    ~TempTrace() { std::filesystem::remove(path_); }

    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

WorkloadProfile
traceProfile(uint64_t seed)
{
    WorkloadProfile profile;
    profile.name = "trace-test";
    profile.mem_frac = 0.35;
    profile.code_footprint = 8 * 1024;
    profile.rng_seed = seed;
    DataRegion hot;
    hot.behavior = RegionBehavior::Hot;
    hot.footprint = 32 * 1024;
    hot.weight = 0.5;
    DataRegion zipf;
    zipf.behavior = RegionBehavior::Zipf;
    zipf.footprint = 1024 * 1024;
    zipf.weight = 0.5;
    zipf.store_frac = 0.4;
    profile.regions = {hot, zipf};
    return profile;
}

/** A two-region trace with no ops: its last eight bytes are the op
 *  count. */
std::vector<uint8_t>
emptyTrace()
{
    TraceImage image;
    image.profile = traceProfile(6);
    image.live_lines.resize(image.profile.regions.size());
    return encodeTrace(image);
}

/** The first region's behaviour byte: after magic and version, the
 *  name's one-byte length and bytes, 80 bytes of profile scalars and
 *  the one-byte region count. */
size_t
firstRegionAt(const std::vector<uint8_t> &bytes)
{
    return 8 + 1 + bytes[8] + 80 + 1;
}

TEST(TraceIo, RoundTripIsBitExact)
{
    TempTrace path("roundtrip");
    SyntheticWorkload source(traceProfile(1), 128);
    recordTrace(path.str(), source, 20'000);

    SyntheticWorkload reference(traceProfile(1), 128);
    TraceWorkload replay(path.str());
    ASSERT_EQ(replay.length(), 20'000u);
    for (int i = 0; i < 20'000; ++i) {
        const TraceOp &want = reference.next();
        const TraceOp &got = replay.next();
        ASSERT_EQ(got.cls, want.cls) << "op " << i;
        ASSERT_EQ(got.addr, want.addr) << "op " << i;
        ASSERT_EQ(got.fetch_line, want.fetch_line) << "op " << i;
        ASSERT_EQ(got.dep1, want.dep1) << "op " << i;
        ASSERT_EQ(got.dep2, want.dep2) << "op " << i;
        ASSERT_EQ(got.mispredict, want.mispredict) << "op " << i;
    }
}

TEST(TraceIo, ProfileSurvivesSerialization)
{
    TempTrace path("profile");
    SyntheticWorkload source(traceProfile(2), 128);
    recordTrace(path.str(), source, 100);

    TraceWorkload replay(path.str());
    const WorkloadProfile &original = source.profile();
    const WorkloadProfile &restored = replay.profile();
    EXPECT_EQ(restored.name, original.name);
    EXPECT_EQ(restored.rng_seed, original.rng_seed);
    EXPECT_EQ(restored.code_footprint, original.code_footprint);
    ASSERT_EQ(restored.regions.size(), original.regions.size());
    for (size_t i = 0; i < original.regions.size(); ++i) {
        EXPECT_EQ(restored.regions[i].base, original.regions[i].base);
        EXPECT_EQ(restored.regions[i].footprint,
                  original.regions[i].footprint);
        EXPECT_EQ(restored.regions[i].behavior,
                  original.regions[i].behavior);
    }
    for (size_t i = 0; i < original.regions.size(); ++i)
        EXPECT_EQ(replay.liveLines(i), source.liveLines(i));
}

TEST(TraceIo, ReplayedSystemMatchesLiveSystemCycles)
{
    // The headline property: a System driven by a recorded trace
    // must produce byte-identical timing to one driven by the live
    // generator, because preinitialization state (profile + live
    // lines) travels inside the trace.
    const uint64_t instructions = 150'000;
    TempTrace path("cycles");
    {
        SyntheticWorkload recorder(traceProfile(3), 128);
        recordTrace(path.str(), recorder, instructions);
    }

    SyntheticWorkload live(traceProfile(3), 128);
    System live_system(paperConfig(secure::SecurityModel::OtpSnc),
                       live);
    live_system.run(instructions);

    TraceWorkload replay(path.str());
    System replay_system(paperConfig(secure::SecurityModel::OtpSnc),
                         replay);
    replay_system.run(instructions);

    EXPECT_EQ(replay_system.core().cycles(),
              live_system.core().cycles());
}

TEST(TraceIo, ReplayWrapsAroundAtEnd)
{
    TempTrace path("wrap");
    SyntheticWorkload source(traceProfile(4), 128);
    recordTrace(path.str(), source, 1'000);

    TraceWorkload replay(path.str());
    std::vector<uint64_t> first_pass;
    for (int i = 0; i < 1'000; ++i)
        first_pass.push_back(replay.next().addr);
    EXPECT_EQ(replay.wraps(), 1u);
    for (int i = 0; i < 1'000; ++i)
        ASSERT_EQ(replay.next().addr, first_pass[i]) << "op " << i;
    EXPECT_EQ(replay.wraps(), 2u);

    replay.reset();
    EXPECT_EQ(replay.wraps(), 0u);
    EXPECT_EQ(replay.next().addr, first_pass[0]);
}

TEST(TraceIo, RejectsNonTraceFile)
{
    TempTrace path("garbage");
    FILE *f = std::fopen(path.str().c_str(), "wb");
    std::fputs("definitely not a trace", f);
    std::fclose(f);
    EXPECT_DEATH_IF_SUPPORTED(
        {
            TraceWorkload replay(path.str());
            (void)replay;
        },
        "not a secproc trace");
}

TEST(TraceIo, RejectsTruncatedFile)
{
    TempTrace path("truncated");
    SyntheticWorkload source(traceProfile(5), 128);
    recordTrace(path.str(), source, 500);
    const std::vector<uint8_t> full = readBytes(path.str());
    std::vector<std::vector<uint8_t>> damaged;

    // Chop the tail off.
    damaged.emplace_back(full.begin(), full.begin() + full.size() / 2);

    // A profile-name length that wraps the read position to zero:
    // magic + version (8 bytes), then a 10-byte varint of 2^64 - 18
    // in place of the one-byte length of "trace-test".
    std::vector<uint8_t> wrapped(full.begin(), full.begin() + 8);
    for (int i = 0; i < 9; ++i)
        wrapped.push_back(i == 0 ? 0xEE : 0xFF);
    wrapped.push_back(0x01);
    wrapped.insert(wrapped.end(), full.begin() + 9, full.end());
    damaged.push_back(std::move(wrapped));

    // Op counts the file cannot hold. With no ops recorded the count
    // is the last eight bytes; 2^61 ops overflow a vector's max_size
    // and 2^40 its allocator.
    TraceImage empty;
    empty.profile = traceProfile(5);
    empty.live_lines.resize(empty.profile.regions.size());
    writeTrace(path.str(), empty);
    const std::vector<uint8_t> no_ops = readBytes(path.str());
    for (const int shift : {61, 40}) {
        std::vector<uint8_t> bytes = no_ops;
        for (int i = 0; i < 8; ++i)
            bytes[bytes.size() - 8 + i] =
                static_cast<uint8_t>((uint64_t{1} << shift) >> (8 * i));
        damaged.push_back(std::move(bytes));
    }

    for (const std::vector<uint8_t> &bytes : damaged) {
        writeBytes(path.str(), bytes);
        EXPECT_DEATH_IF_SUPPORTED(
            {
                TraceWorkload replay(path.str());
                (void)replay;
            },
            "truncated");
    }
}

TEST(TraceIo, RejectsMissingFile)
{
    EXPECT_DEATH_IF_SUPPORTED(
        {
            TraceWorkload replay("/nonexistent/dir/file.bin");
            (void)replay;
        },
        "cannot open");
    // A directory opens but does not read.
    EXPECT_DEATH_IF_SUPPORTED(
        {
            TraceWorkload replay(
                std::filesystem::temp_directory_path().string());
            (void)replay;
        },
        "cannot read");
}

TEST(TraceIo, DecodeRejectsNonMinimalVarint)
{
    const std::vector<uint8_t> good = emptyTrace();
    ASSERT_TRUE(decodeTrace(good));
    // The profile name's one-byte length respelled with a redundant
    // zero high byte, and as ten bytes with bits set past bit 63.
    const uint8_t len = good[8] | 0x80;
    const std::vector<std::vector<uint8_t>> spellings = {
        {len, 0x00},
        {len, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}};
    for (const std::vector<uint8_t> &spelling : spellings) {
        std::vector<uint8_t> bytes(good.begin(), good.begin() + 8);
        bytes.insert(bytes.end(), spelling.begin(), spelling.end());
        bytes.insert(bytes.end(), good.begin() + 9, good.end());
        EXPECT_FALSE(decodeTrace(bytes)) << spelling.size() << " bytes";
    }
}

TEST(TraceIo, DecodeRejectsFlagByteAboveOne)
{
    const std::vector<uint8_t> good = emptyTrace();
    // plaintext and preinitialized close the region, before its base.
    const size_t plaintext = firstRegionAt(good) + 89;
    ASSERT_EQ(good[plaintext], 0);
    ASSERT_EQ(good[plaintext + 1], 1);
    for (const size_t at : {plaintext, plaintext + 1}) {
        std::vector<uint8_t> bytes = good;
        bytes[at] = 2;
        EXPECT_FALSE(decodeTrace(bytes)) << "offset " << at;
    }
}

TEST(TraceIo, DecodeRejectsBehaviourPastWriteOnce)
{
    const std::vector<uint8_t> good = emptyTrace();
    const size_t at = firstRegionAt(good);
    ASSERT_EQ(good[at], static_cast<uint8_t>(RegionBehavior::Hot));
    const uint8_t last = static_cast<uint8_t>(RegionBehavior::WriteOnce);
    for (const uint8_t behaviour : {last, uint8_t(last + 1), uint8_t{200}}) {
        std::vector<uint8_t> bytes = good;
        bytes[at] = behaviour;
        EXPECT_EQ(decodeTrace(bytes).has_value(), behaviour == last)
            << "behaviour " << int{behaviour};
    }
}

TEST(TraceIo, DecodeRejectsAnnouncedFieldOfZero)
{
    std::vector<uint8_t> one_op = emptyTrace();
    one_op[one_op.size() - 8] = 1;
    // Header bits 4-7 announce addr, fetch_line, dep1, dep2; the
    // writer sets them only for nonzero fields. A Load at +8 parses.
    const std::vector<std::pair<uint8_t, uint8_t>> ops = {
        {0x13, 0x10}, {0x13, 0x00}, {0x20, 0x00}, {0x40, 0x00},
        {0x80, 0x00}};
    for (const auto &[header, field] : ops) {
        std::vector<uint8_t> bytes = one_op;
        bytes.push_back(header);
        bytes.push_back(field);
        EXPECT_EQ(decodeTrace(bytes).has_value(), field != 0)
            << "header " << int{header};
    }
}

TEST(TraceIo, CompressionIsCompact)
{
    // Delta+varint encoding should keep the common op well under
    // four bytes: a 20k-op trace of a loopy workload must be far
    // smaller than the naive 24-byte-per-op encoding.
    TempTrace path("size");
    SyntheticWorkload source(benchmarkProfile("gzip"), 128);
    recordTrace(path.str(), source, 20'000);
    const auto size = std::filesystem::file_size(path.str());
    EXPECT_LT(size, 20'000u * 8)
        << "expected < 8 bytes/op, got " << size;
}

TEST(TraceIo, AllBenchmarkProfilesRoundTrip)
{
    for (const std::string &name : benchmarkNames()) {
        TempTrace path("bench_" + name);
        SyntheticWorkload source(benchmarkProfile(name), 128);
        recordTrace(path.str(), source, 2'000);
        SyntheticWorkload reference(benchmarkProfile(name), 128);
        TraceWorkload replay(path.str());
        for (int i = 0; i < 2'000; ++i) {
            const TraceOp &want = reference.next();
            const TraceOp &got = replay.next();
            ASSERT_EQ(got.addr, want.addr) << name << " op " << i;
            ASSERT_EQ(got.cls, want.cls) << name << " op " << i;
        }
    }
}

} // namespace
