/**
 * @file
 * Unified-plane install tests.
 *
 * The tentpole property: one System run advances real bytes and real
 * cycles together, and the two planes can never disagree — for every
 * (image size x cipher x engine latency) cell, LiveInstall's final
 * slot bytes, active manifest and rollback counter are byte-identical
 * to a pure functional UpdateEngine run of the same bundle. On the
 * cycle side, the arbiter-paced install must cost the foreground
 * strictly less than the PR-4 fixed pacing at both engine latencies.
 */

#include <gtest/gtest.h>

#include <optional>

#include "crypto/latency.hh"
#include "exp/runner.hh"
#include "ota/transport.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "update/device_rig.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

constexpr uint32_t kLine = 128;
constexpr StagingConfig kStaging{0x4000'0000, 1ull << 20};

secure::CipherKind
cipherFor(const std::string &bench)
{
    return bench == "aes128" ? secure::CipherKind::Aes128
                             : secure::CipherKind::Des;
}

/** A full machine with a LiveInstall agent attached. */
struct LiveRig
{
    sim::SystemConfig config;
    sim::SyntheticWorkload workload;
    sim::System system;
    DeviceRig device;

    LiveRig(const FirmwareVendor &vendor, uint32_t crypto_latency,
            const LiveInstallConfig &live_config)
        : config(machine(crypto_latency)),
          workload(sim::benchmarkProfile("gcc"), config.l2.line_size),
          system(config, workload),
          device(vendor.builder.publicKey(), vendor.processor, system,
                 live_config, kStaging)
    {}

    static sim::SystemConfig
    machine(uint32_t crypto_latency)
    {
        sim::SystemConfig config =
            sim::paperConfig(secure::SecurityModel::OtpSnc);
        config.protection.crypto.latency = crypto_latency;
        return config;
    }
};

LiveInstallConfig
liveConfig(ota::TransportConfig transport,
           InstallPacing pacing = InstallPacing::Arbiter)
{
    LiveInstallConfig config;
    config.line_bytes = kLine;
    config.pacing = pacing;
    config.transport = transport;
    return config;
}

ota::TransportConfig
lossyTransport()
{
    ota::TransportConfig transport;
    transport.chunk_bytes = 1024;
    transport.cycles_per_chunk = 256;
    transport.loss_rate = 0.10;
    transport.burst_length = 2.0;
    transport.reorder_rate = 0.15;
    transport.retransmit_delay = 4096;
    transport.seed = 0xD15C;
    return transport;
}

ota::TransportConfig
fastTransport()
{
    ota::TransportConfig transport;
    transport.chunk_bytes = 1024;
    transport.cycles_per_chunk = 64;
    return transport;
}

// -------------------------------------------------------- differential

/**
 * One differential cell: a live (timed, lossy-transport,
 * arbiter-paced) install and a pure functional install of the same
 * bundle must land byte-identical device state.
 */
exp::CellOutput
differentialCell(uint64_t image_bytes, uint32_t crypto_latency,
                 const std::string &bench, uint64_t key_seed)
{
    FirmwareVendor vendor(key_seed);
    const secure::CipherKind cipher = cipherFor(bench);
    const UpdateBundle bundle = vendor.release(2, image_bytes, cipher);

    // Pure functional reference: install v1 then v2.
    DeviceRig reference(vendor.builder.publicKey(), vendor.processor,
                        kStaging);
    exp::CellOutput cell;
    cell.measured = 0.0;
    if (!reference.install(vendor.release(1, image_bytes, cipher)).ok())
        return cell;
    if (!reference.install(bundle).ok())
        return cell;

    // Live machine: same v1 baseline functionally, then v2 through
    // the unified plane while the foreground runs.
    LiveRig rig(vendor, crypto_latency, liveConfig(lossyTransport()));
    DeviceRig &device = rig.device;
    if (!device.install(vendor.release(1, image_bytes, cipher)).ok())
        return cell;
    device.live().start(bundle, rig.system.core().cycles());
    if (!device.runToCompletion())
        return cell;
    cell.extras.emplace_back(
        "install_ok",
        device.live().phase() == LiveInstallPhase::Done ? 1.0 : 0.0);
    cell.extras.emplace_back(
        "retransmit_passes",
        static_cast<double>(
            device.live().transport().retransmitPasses()));
    if (device.live().phase() != LiveInstallPhase::Done)
        return cell;

    // The planes can never disagree: slot bytes, manifest, counter.
    if (device.updater().activeSlot() !=
        reference.updater().activeSlot())
        return cell;
    const bool bytes_match =
        device.activeSlotBytes() == reference.activeSlotBytes();
    const auto &got = device.updater().activeManifest();
    const auto &want = reference.updater().activeManifest();
    const bool manifest_match = got.has_value() && want.has_value() &&
                                util::encode(*got) == util::encode(*want);
    const bool counter_match = device.rollback().current("fw") ==
                               reference.rollback().current("fw");
    cell.extras.emplace_back("bytes_match", bytes_match ? 1.0 : 0.0);
    cell.extras.emplace_back("manifest_match",
                             manifest_match ? 1.0 : 0.0);
    cell.extras.emplace_back("counter_match",
                             counter_match ? 1.0 : 0.0);
    cell.measured =
        bytes_match && manifest_match && counter_match ? 100.0 : 0.0;
    return cell;
}

TEST(LiveInstallDifferential, PlanesNeverDisagree)
{
    struct Variant
    {
        const char *label;
        uint64_t image_bytes;
        uint32_t crypto_latency;
    };
    const Variant variants[] = {
        {"8KB-c50", 8ull << 10, crypto::kPaperCryptoLatency},
        {"8KB-c102", 8ull << 10, crypto::kStrongCipherLatency},
        {"32KB-c50", 32ull << 10, crypto::kPaperCryptoLatency},
        {"32KB-c102", 32ull << 10, crypto::kStrongCipherLatency},
    };

    exp::ExperimentSpec spec;
    spec.name = "live_install_differential";
    spec.title = "Unified-plane vs pure-functional installs";
    spec.subtitle = "% of device state identical (must be 100)";
    spec.benchmarks = {"des", "aes128"};
    uint64_t seed = 0x11FE;
    for (const Variant &variant : variants) {
        const uint64_t key_seed = seed++;
        spec.addCustom(
            variant.label,
            [variant, key_seed](const std::string &bench,
                                const exp::RunOptions &) {
                return differentialCell(variant.image_bytes,
                                        variant.crypto_latency, bench,
                                        key_seed);
            });
    }

    exp::RunnerOptions runner;
    runner.threads = 2;
    const exp::Report report = exp::Runner(runner).run(spec);
    size_t checked = 0;
    for (const exp::CellResult &cell : report.cells()) {
        ASSERT_TRUE(cell.measured.has_value());
        EXPECT_DOUBLE_EQ(*cell.measured, 100.0)
            << cell.variant << "/" << cell.bench
            << ": the functional and cycle planes disagree";
        ++checked;
    }
    EXPECT_EQ(checked, 8u);
}

// ------------------------------------------------- unified verdicts

TEST(LiveInstall, OneRunRendersBothVerdicts)
{
    FirmwareVendor vendor(0x77AA);
    const UpdateBundle bundle = vendor.release(1, 16ull << 10);

    // Baseline: the same machine with nothing installing.
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::SyntheticWorkload alone_workload(
        sim::benchmarkProfile("gcc"), config.l2.line_size);
    sim::System alone(config, alone_workload);
    alone.run(400'000);

    LiveRig rig(vendor, crypto::kPaperCryptoLatency,
                liveConfig(lossyTransport()));
    LiveInstall &live = rig.device.live();
    live.start(bundle, 0);
    rig.system.run(400'000);

    // Functional verdict from the very same run...
    ASSERT_EQ(live.phase(), LiveInstallPhase::Done)
        << "install did not land within the run";
    ASSERT_TRUE(live.result().has_value());
    EXPECT_TRUE(live.result()->ok());
    EXPECT_TRUE(live.admission()->ok());
    EXPECT_EQ(rig.device.rollback().current("fw"), 1u);
    EXPECT_GT(live.activatedAt(), 0u);
    EXPECT_EQ(live.stagedBytesWritten(),
              kSlotHeaderBytes + util::encodedSize(bundle));

    // ...and the cycle verdict: the install cost the foreground
    // cycles, attributed to the installer's channel agents.
    EXPECT_GT(rig.system.core().cycles(), alone.core().cycles());
    EXPECT_GT(rig.system.channel().agentBytes(live.agent()), 0u);
    EXPECT_GT(rig.system.channel().agentBytes(live.dmaAgent()), 0u);
    EXPECT_GT(rig.system.channel().agentStallCycles(live.agent()), 0u)
        << "an arbiter-paced install must have queued behind the "
           "foreground at least once";
    rig.system.channel().assertFullyAttributed();
}

/** Foreground cycles for a 400k-instruction gcc run under a given
 *  install regime. */
uint64_t
foregroundCycles(uint32_t crypto_latency, const char *mode)
{
    const sim::SystemConfig config = LiveRig::machine(crypto_latency);
    sim::SyntheticWorkload workload(sim::benchmarkProfile("gcc"),
                                    config.l2.line_size);
    sim::System system(config, workload);

    // Fixed pacing: the bare InstallTiming executor, repeating 256KB
    // installs for the whole run.
    InstallTiming fixed(system.channel(), system.cryptoEngine(),
                        config.l2.line_size);

    // Self-throttled: the unified-plane agent, same 256KB image.
    FirmwareVendor vendor(0x5EED);
    std::optional<DeviceRig> device;

    const uint64_t image_bytes = 256ull << 10;
    const bool live_mode = std::string(mode) == "live";
    uint32_t version = 1;
    if (std::string(mode) == "fixed") {
        fixed.start(InstallPlan::fromImageBytes(
                        image_bytes, config.l2.line_size),
                    0, /*repeat=*/true);
        system.attachAgent(&fixed);
    } else if (live_mode) {
        device.emplace(vendor.builder.publicKey(), vendor.processor,
                       system, liveConfig(fastTransport()), kStaging);
        device->live().start(vendor.release(version++, image_bytes), 0);
    }

    // Continuous pressure on both sides: the fixed replay repeats by
    // itself; the live agent is restarted with the next version the
    // moment an install lands, so the comparison is steady-state
    // against steady-state.
    auto run = [&](uint64_t instructions) {
        for (uint64_t ran = 0; ran < instructions; ran += 10'000) {
            system.run(10'000);
            if (live_mode && device->live().done()) {
                EXPECT_EQ(device->live().phase(),
                          LiveInstallPhase::Done);
                device->live().start(
                    vendor.release(version++, image_bytes),
                    system.core().cycles());
            }
        }
    };
    run(100'000);
    system.beginMeasurement();
    run(400'000);
    return system.stats().cycles;
}
TEST(LiveInstall, ArbiterThrottlesBelowFixedPace)
{
    // The acceptance criterion: at both engine latencies, the
    // self-throttled 256KB install costs the foreground strictly
    // less than PR 4's fixed pacing.
    for (const uint32_t latency :
         {crypto::kPaperCryptoLatency, crypto::kStrongCipherLatency}) {
        const uint64_t alone = foregroundCycles(latency, "none");
        const uint64_t fixed = foregroundCycles(latency, "fixed");
        const uint64_t live = foregroundCycles(latency, "live");
        const double fixed_slowdown =
            100.0 * (static_cast<double>(fixed) /
                         static_cast<double>(alone) -
                     1.0);
        const double live_slowdown =
            100.0 * (static_cast<double>(live) /
                         static_cast<double>(alone) -
                     1.0);
        EXPECT_GT(fixed_slowdown, 0.0) << "c" << latency;
        EXPECT_GE(live_slowdown, 0.0) << "c" << latency;
        EXPECT_LT(live_slowdown, fixed_slowdown)
            << "c" << latency
            << ": the arbiter-paced install must undercut fixed "
               "pacing";
    }
}

TEST(LiveInstall, SystemResetDropsInFlightWork)
{
    FirmwareVendor vendor(0xABCD);
    const UpdateBundle bundle = vendor.release(1, 32ull << 10);
    LiveRig rig(vendor, crypto::kPaperCryptoLatency,
                liveConfig(fastTransport()));
    LiveInstall &live = rig.device.live();
    live.start(bundle, 0);

    // Run until the slot is partially written: 500-instruction steps
    // cannot cover the whole stage stream's bus time, so the cut
    // lands mid-stage with a genuinely torn slot.
    while (live.stagedBytesWritten() == 0 &&
           rig.system.core().cycles() < 2'000'000)
        rig.system.run(500);
    ASSERT_FALSE(live.done());
    ASSERT_EQ(live.phase(), LiveInstallPhase::Stage);
    ASSERT_LT(live.stagedBytesWritten(),
              kSlotHeaderBytes + util::encodedSize(bundle))
        << "the cut must leave a torn slot";

    rig.system.reset();
    EXPECT_TRUE(live.done()) << "reset abandons the install";
    EXPECT_EQ(rig.system.channel().backgroundQueued(), 0u);
    EXPECT_EQ(rig.system.channel().busyUntil(), 0u);
    EXPECT_EQ(rig.system.cryptoEngine().busyUntil(), 0u);
    rig.system.channel().assertFullyAttributed();

    // The device recovers: a clean functional re-install of the
    // same bundle (nothing was committed) succeeds.
    EXPECT_FALSE(rig.device.updater().stagedPending());
    EXPECT_TRUE(rig.device.install(bundle).ok());

    // And the agent can start a fresh install afterwards.
    live.start(vendor.release(2, 8ull << 10),
               rig.system.core().cycles());
    EXPECT_TRUE(rig.device.runToCompletion());
    EXPECT_EQ(live.phase(), LiveInstallPhase::Done);
}

} // namespace
