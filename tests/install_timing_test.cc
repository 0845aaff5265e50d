/**
 * @file
 * Tests for the cycle-plane install replay: plan derivation from
 * real bundles, idle-machine replay timing, and — the point of the
 * whole subsystem — foreground interference that scales with the
 * crypto engine's latency because install and workload share one
 * engine and one memory channel.
 */

#include <gtest/gtest.h>

#include <utility>

#include "crypto/latency.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "update/device_rig.hh"
#include "util/random.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

constexpr uint32_t kLine = 128;

// ------------------------------------------------------------------ plans

TEST(InstallPlan, FromImageBytes)
{
    const InstallPlan plan =
        InstallPlan::fromImageBytes(64 * kLine, kLine);
    EXPECT_EQ(plan.load_lines, 64u);
    EXPECT_EQ(plan.stage_lines, 65u) << "one line of framing overhead";
    EXPECT_EQ(plan.verify_lines, plan.stage_lines);
}

TEST(InstallPlan, FromBundleMatchesSerializedSize)
{
    FirmwareVendor vendor(7);
    const UpdateBundle bundle = firmwareBundle(
        vendor.builder, vendor.processor.pub, UpdateSpec{},
        std::vector<uint8_t>(32 * kLine, 0x5A), vendor.rng, "fw",
        0x400000);

    const InstallPlan plan = InstallPlan::fromBundle(
        frameBundle(bundle).size(), bundle.image.totalBytes(), kLine);
    const uint64_t bundle_lines =
        (util::encodedSize(bundle) + kSlotHeaderBytes + kLine - 1) /
        kLine;
    EXPECT_EQ(plan.stage_lines, bundle_lines);
    EXPECT_EQ(plan.verify_lines, bundle_lines);
    EXPECT_EQ(plan.load_lines,
              (bundle.image.totalBytes() + kLine - 1) / kLine);
    EXPECT_GE(plan.stage_lines, plan.load_lines)
        << "the staged bundle wraps the image";
}

// ----------------------------------------------------------- idle replay

TEST(InstallTiming, IdleReplayScalesWithImageSize)
{
    mem::ChannelConfig channel_config;
    crypto::CryptoEngineConfig engine_config;

    auto replayCycles = [&](uint64_t image_bytes) {
        mem::MemoryChannel channel(channel_config);
        crypto::CryptoEngineModel engine(engine_config);
        InstallTiming timing(channel, engine, kLine);
        timing.start(InstallPlan::fromImageBytes(image_bytes, kLine),
                     0);
        const uint64_t end = timing.replay();
        EXPECT_TRUE(timing.done());
        EXPECT_EQ(timing.installsCompleted(), 1u);
        EXPECT_EQ(timing.installCycles(), end);
        return end;
    };

    const uint64_t small = replayCycles(64 * kLine);
    const uint64_t large = replayCycles(512 * kLine);
    EXPECT_GT(small, 0u);
    EXPECT_GT(large, 4 * small)
        << "8x the image must cost well over 4x the cycles";
}

TEST(InstallTiming, ReplayMovesAttributedTraffic)
{
    mem::MemoryChannel channel{mem::ChannelConfig{}};
    crypto::CryptoEngineModel engine{crypto::CryptoEngineConfig{}};
    InstallTiming timing(channel, engine, kLine);

    const InstallPlan plan = InstallPlan::fromImageBytes(64 * kLine,
                                                        kLine);
    timing.start(plan, 0);
    timing.replay();

    // Two verification passes read the staged lines; stage + load
    // write them.
    EXPECT_EQ(channel.transactions(mem::Traffic::UpdateFill),
              2 * plan.verify_lines);
    EXPECT_EQ(channel.transactions(mem::Traffic::UpdateWriteback),
              plan.stage_lines + plan.load_lines);
    EXPECT_EQ(channel.agentBytes(timing.agent()),
              channel.updateBytes());
    EXPECT_EQ(channel.agentBytes(mem::kCoreAgent), 0u);
    channel.assertFullyAttributed();

    // Digest per verified line + three signature-class reservations
    // (admission, re-verify, capsule unwrap) + the attestation quote.
    EXPECT_EQ(engine.reservedOperations(),
              2 * plan.verify_lines +
                  4 * InstallTiming::kSignatureEngineOps);
}

TEST(InstallTiming, AdvanceIsSelfPacedAndMonotonic)
{
    mem::MemoryChannel channel{mem::ChannelConfig{}};
    crypto::CryptoEngineModel engine{crypto::CryptoEngineConfig{}};
    InstallTiming timing(channel, engine, kLine);
    timing.start(InstallPlan::fromImageBytes(16 * kLine, kLine), 0);

    // Advancing a little at a time must make monotonic progress and
    // finish; transactions issued so far never exceed what the
    // elapsed cycles allow.
    uint64_t issued_at_half = 0;
    for (uint64_t now = 0; !timing.done() && now < 1'000'000;
         now += 100) {
        timing.advance(now);
        if (now == 5'000)
            issued_at_half = channel.agentTransactions(timing.agent());
    }
    EXPECT_TRUE(timing.done());
    EXPECT_GT(issued_at_half, 0u);
    EXPECT_LT(issued_at_half,
              channel.agentTransactions(timing.agent()))
        << "work must still be pending mid-replay";
}

// ------------------------------------------------------ exact cycles

/** The phases are contiguous: their accounts sum to the install. */
void
expectPhasesSumToInstall(const InstallTiming &timing)
{
    uint64_t sum = 0;
    for (size_t i = 0; i < static_cast<size_t>(InstallPhase::Idle); ++i)
        sum += timing.phaseCycles(static_cast<InstallPhase>(i));
    EXPECT_EQ(sum, timing.installCycles());
}

/** Idle-machine replay of a 64 KB synthetic plan on the paper
 *  machine's channel and an @p crypto_latency engine. */
uint64_t
timingReplayCycles(InstallPacing pacing, uint32_t crypto_latency)
{
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    config.protection.crypto.latency = crypto_latency;
    mem::MemoryChannel channel(config.channel);
    crypto::CryptoEngineModel engine(config.protection.crypto);
    InstallTiming timing(channel, engine, kLine, pacing);
    timing.start(InstallPlan::fromImageBytes(64ull << 10, kLine), 0);
    const uint64_t end = timing.replay();
    EXPECT_EQ(timing.installCycles(), end);
    expectPhasesSumToInstall(timing);
    return end;
}

/** Vendor keys, a base release and a delta-shipped successor. */
struct ReleaseRig
{
    FirmwareVendor vendor{0xC1C1E};
    UpdateBundle base;
    UpdateBundle next;
    DeltaBundle delta;

    ReleaseRig()
    {
        std::vector<uint8_t> text(32ull << 10);
        util::Rng fill(0xF111);
        for (auto &byte : text)
            byte = static_cast<uint8_t>(fill.nextRange(256));

        UpdateSpec spec;
        util::Rng base_rng(0xB0B0);
        base = firmwareBundle(vendor.builder, vendor.processor.pub, spec,
                              text, base_rng);

        // Every tenth 64-byte block changes in the successor.
        for (size_t i = 0; i < text.size(); i += 640)
            text[i] ^= 0x5A;
        spec.image_version = 2;
        spec.rollback_counter = 2;
        spec.base_digest = sha256DigestOfImage(base.image);
        util::Rng next_rng(0xB0B0);
        next = firmwareBundle(vendor.builder, vendor.processor.pub, spec,
                              text, next_rng);
        delta = vendor.builder.buildDelta(base, next);
    }
};

/** Idle-machine LiveInstall replays of @p rig's full base install and
 *  then its delta successor over one fixed seeded lossy downlink.
 *  @return {full cycles, delta cycles}. */
std::pair<uint64_t, uint64_t>
liveReplayCycles(const ReleaseRig &rig)
{
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::SyntheticWorkload workload(sim::benchmarkProfile("gcc"),
                                    config.l2.line_size);
    sim::System system(config, workload);

    LiveInstallConfig live_config;
    live_config.line_bytes = kLine;
    live_config.pacing = InstallPacing::Arbiter;
    live_config.transport.chunk_bytes = 1024;
    live_config.transport.cycles_per_chunk = 256;
    live_config.transport.loss_rate = 0.05;
    live_config.transport.burst_length = 2.0;
    live_config.transport.reorder_rate = 0.05;
    live_config.transport.retransmit_delay = 4096;
    live_config.transport.seed = 0x5EED;
    DeviceRig device(rig.vendor.builder.publicKey(), rig.vendor.processor,
                     system, live_config,
                     StagingConfig{0x4000'0000, 1ull << 20});
    LiveInstall &live = device.live();

    live.start(rig.base, 0);
    const uint64_t full_end = live.replay();
    EXPECT_EQ(live.phase(), LiveInstallPhase::Done);
    const uint64_t full = live.installCycles();
    EXPECT_EQ(full_end, full);
    expectPhasesSumToInstall(live);

    live.startDelta(rig.delta, full_end);
    const uint64_t delta_end = live.replay();
    EXPECT_EQ(live.phase(), LiveInstallPhase::Done);
    EXPECT_EQ(delta_end - full_end, live.installCycles());
    expectPhasesSumToInstall(live);
    return {full, live.installCycles()};
}

TEST(InstallTiming, ExactIdleReplayCycles)
{
    // Any change to these numbers changes what every install bench
    // and the fleet calibration measure: re-record deliberately.
    EXPECT_EQ(timingReplayCycles(InstallPacing::Fixed,
                                 crypto::kPaperCryptoLatency),
              173500u);
    EXPECT_EQ(timingReplayCycles(InstallPacing::Fixed,
                                 crypto::kStrongCipherLatency),
              230180u);
    EXPECT_EQ(timingReplayCycles(InstallPacing::Arbiter,
                                 crypto::kPaperCryptoLatency),
              173500u);
    EXPECT_EQ(timingReplayCycles(InstallPacing::Arbiter,
                                 crypto::kStrongCipherLatency),
              230180u);

    // LiveInstall's timing is where the executor's rules come from:
    // its cycles must never move silently.
    const ReleaseRig rig;
    const auto [full, delta] = liveReplayCycles(rig);
    EXPECT_EQ(full, 95822u);
    EXPECT_EQ(delta, 96564u);
}

// ------------------------------------------------------- interference

uint64_t
foregroundCycles(uint32_t crypto_latency, bool background_install)
{
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    config.protection.crypto.latency = crypto_latency;

    sim::WorkloadProfile profile = sim::benchmarkProfile("gcc");
    sim::SyntheticWorkload workload(profile, config.l2.line_size);
    sim::System system(config, workload);

    InstallTiming timing(system.channel(), system.cryptoEngine(),
                         config.l2.line_size);
    if (background_install) {
        timing.start(InstallPlan::fromImageBytes(1ull << 20,
                                                 config.l2.line_size),
                     0, /*repeat=*/true);
        system.attachAgent(&timing);
    }

    system.run(50'000);
    system.beginMeasurement();
    system.run(200'000);
    return system.stats().cycles;
}

TEST(InstallTiming, BackgroundInstallSlowsForeground)
{
    const uint64_t alone =
        foregroundCycles(crypto::kPaperCryptoLatency, false);
    const uint64_t contended =
        foregroundCycles(crypto::kPaperCryptoLatency, true);
    EXPECT_GT(contended, alone)
        << "a streaming install must cost the foreground something";
}

TEST(InstallTiming, InterferenceGrowsWithEngineLatency)
{
    // The acceptance criterion of the cycle-plane refactor: because
    // install digesting holds the *shared* engine for a whole line
    // time, a 102-cycle engine hurts the foreground more than the
    // 50-cycle engine — the contention is engine-latency sensitive,
    // not just bus sensitive.
    const double slow50 = 100.0 *
        (static_cast<double>(foregroundCycles(
             crypto::kPaperCryptoLatency, true)) /
             static_cast<double>(foregroundCycles(
                 crypto::kPaperCryptoLatency, false)) -
         1.0);
    const double slow102 = 100.0 *
        (static_cast<double>(foregroundCycles(
             crypto::kStrongCipherLatency, true)) /
             static_cast<double>(foregroundCycles(
                 crypto::kStrongCipherLatency, false)) -
         1.0);
    EXPECT_GT(slow50, 0.0);
    EXPECT_GT(slow102, slow50)
        << "102-cycle engine: slowdown " << slow102
        << "% must exceed the 50-cycle engine's " << slow50 << "%";
}

TEST(InstallTiming, CoreOnlyRunsAreUntouchedByAttachableAgents)
{
    // Constructing a System after the refactor, with no agent
    // attached, must behave exactly like the pre-refactor machine:
    // same cycles, same channel traffic split.
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::WorkloadProfile profile = sim::benchmarkProfile("mcf");

    auto runOnce = [&]() {
        sim::SyntheticWorkload workload(profile, config.l2.line_size);
        sim::System system(config, workload);
        system.run(20'000);
        system.beginMeasurement();
        system.run(80'000);
        return system.stats();
    };
    const sim::RunStats a = runOnce();
    const sim::RunStats b = runOnce();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.data_bytes, b.data_bytes);
    EXPECT_EQ(a.seqnum_bytes, b.seqnum_bytes);
}

} // namespace
