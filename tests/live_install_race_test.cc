/**
 * @file
 * Concurrent-update race matrix (ROADMAP scenario item).
 *
 * A live install races everything the machine does: context switches
 * flush the SNC and swap compartments mid-stream, and power can die
 * at any cycle of the install. The A/B invariant must hold at every
 * interleaving: after a cut the device is in {previous image active,
 * new image active} — never a torn state — and a clean re-stage
 * always recovers.
 *
 * Expressed as an ExperimentSpec so the sweep parallelizes through
 * the standard Runner: variants are (scenario x transport pattern) —
 * power cuts at N evenly spaced install cycles under lossless /
 * burst-loss / reordering downlinks, and context-switch storms under
 * the same links — benchmarks are cipher kinds, and each cell's
 * measured value is the percentage of trials that landed in an
 * allowed state. Anything under 100 is a torn image.
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
constexpr uint64_t kImageBytes = 8ull << 10;
/** Evenly spaced injection points per cell. */
constexpr int kInjectionPoints = 6;

secure::CipherKind
cipherFor(const std::string &bench)
{
    return bench == "aes128" ? secure::CipherKind::Aes128
                             : secure::CipherKind::Des;
}

enum class Scenario
{
    PowerCut,
    ContextSwitch,
    JournalResume,
};

/** A compact second task so context switches have somewhere to go. */
sim::WorkloadProfile
sideProfile()
{
    sim::WorkloadProfile profile;
    profile.name = "side";
    profile.mem_frac = 0.35;
    profile.code_footprint = 4 * 1024;
    profile.rng_seed = 0xFACE;
    profile.va_offset = 1ull << 40;
    sim::DataRegion hot;
    hot.behavior = sim::RegionBehavior::Hot;
    hot.footprint = 64 * 1024;
    hot.weight = 0.7;
    hot.store_frac = 0.4;
    profile.regions = {hot};
    return profile;
}

LiveInstallConfig
liveConfig(const ota::TransportConfig &transport)
{
    LiveInstallConfig live_config;
    live_config.line_bytes = kLine;
    live_config.pacing = InstallPacing::Arbiter;
    live_config.transport = transport;
    return live_config;
}

std::vector<sim::TaskSpec>
tasks(sim::Workload &foreground, sim::Workload *side)
{
    std::vector<sim::TaskSpec> specs{{&foreground, 1}};
    if (side != nullptr)
        specs.push_back({side, 2});
    return specs;
}

/** One machine with a live install racing the given scenario. */
struct RaceRig
{
    sim::SystemConfig config;
    sim::SyntheticWorkload foreground;
    std::optional<sim::SyntheticWorkload> side;
    sim::System system;
    DeviceRig device;

    RaceRig(const FirmwareVendor &vendor,
            const ota::TransportConfig &transport, bool two_tasks)
        : config(sim::paperConfig(secure::SecurityModel::OtpSnc)),
          foreground(sim::benchmarkProfile("gcc"), config.l2.line_size),
          side(two_tasks ? std::make_optional<sim::SyntheticWorkload>(
                               sideProfile(), config.l2.line_size)
                         : std::nullopt),
          system(config, tasks(foreground, side ? &*side : nullptr)),
          device(vendor.builder.publicKey(), vendor.processor, system,
                 liveConfig(transport), kStaging)
    {}

    LiveInstall &live() { return device.live(); }

    uint32_t
    activeVersion()
    {
        const UpdateManifest *manifest =
            device.updater().compartmentManifest(1);
        return manifest == nullptr ? 0 : manifest->image_version;
    }
};

/** How long this cell's undisturbed install takes, start to Done. */
uint64_t
dryRunInstallCycles(FirmwareVendor &vendor, const UpdateBundle &v1,
                    const UpdateBundle &v2,
                    const ota::TransportConfig &transport)
{
    RaceRig rig(vendor, transport, /*two_tasks=*/false);
    if (!rig.device.install(v1).ok())
        return 0;
    rig.live().start(v2, 0);
    for (int i = 0; i < 2000 && !rig.live().done(); ++i)
        rig.system.run(2'000);
    if (rig.live().phase() != LiveInstallPhase::Done)
        return 0;
    return rig.live().installCycles();
}

/**
 * One power-cut trial: cut at @p cut_cycle, then check the A/B
 * invariant and that a fresh install recovers the device.
 */
bool
powerCutTrial(FirmwareVendor &vendor, const UpdateBundle &v1,
              const UpdateBundle &v2,
              const std::vector<uint8_t> &framed_v1,
              const std::vector<uint8_t> &framed_v2,
              const ota::TransportConfig &transport,
              uint64_t cut_cycle, secure::CipherKind cipher)
{
    RaceRig rig(vendor, transport, /*two_tasks=*/false);
    if (!rig.device.install(v1).ok())
        return false;
    rig.live().start(v2, rig.system.core().cycles());
    while (!rig.live().done() &&
           rig.system.core().cycles() < cut_cycle)
        rig.system.run(200);

    // Power dies here: in-flight timing work vanishes, memory and
    // the device's persistent update state stay as they are.
    rig.system.reset();
    if (rig.system.channel().backgroundQueued() != 0)
        return false;

    // Reboot: whatever the cut left behind, the device must be on
    // v1 or v2 — and the active slot must hold exactly the framed
    // bytes of whichever version it claims.
    uint32_t version = rig.activeVersion();
    if (version != 1 && version != 2)
        return false;
    if (rig.device.rollback().current("fw") != version)
        return false;

    // The boot path tries to take any staged update live; a torn
    // slot must be refused, a fully staged one may activate.
    const InstallResult resumed = rig.device.activate();
    version = rig.activeVersion();
    if (resumed.ok() && version != 2)
        return false;
    if (!resumed.ok() && version != 1 && version != 2)
        return false;
    if (rig.device.activeSlotBytes() !=
        (version == 2 ? framed_v2 : framed_v1))
        return false;

    // Recovery: a clean re-stage of the next version always lands.
    const UpdateBundle v3 = vendor.release(3, kImageBytes, cipher);
    if (!rig.device.install(v3).ok())
        return false;
    return rig.activeVersion() == 3;
}

/**
 * One context-switch trial: storm switches at the injection points
 * while the install runs to completion; both planes must still
 * agree.
 */
bool
contextSwitchTrial(FirmwareVendor &vendor, const UpdateBundle &v1,
                   const UpdateBundle &v2,
                   const std::vector<uint8_t> &framed_v2,
                   const ota::TransportConfig &transport,
                   uint64_t install_cycles)
{
    RaceRig rig(vendor, transport, /*two_tasks=*/true);
    if (!rig.device.install(v1).ok())
        return false;
    rig.live().start(v2, rig.system.core().cycles());

    uint64_t switches_done = 0;
    const uint64_t start = rig.system.core().cycles();
    for (int i = 0; i < 4000 && !rig.live().done(); ++i) {
        rig.system.run(500);
        const uint64_t elapsed = rig.system.core().cycles() - start;
        const uint64_t due = std::min<uint64_t>(
            kInjectionPoints,
            (kInjectionPoints + 1) * elapsed /
                std::max<uint64_t>(install_cycles, 1));
        while (switches_done < due) {
            // Alternate tasks and policies: Flush exercises the SNC
            // spill path while the installer holds channel grants.
            rig.system.switchToTask(
                (switches_done + 1) % rig.system.taskCount(),
                switches_done % 2 == 0 ? sim::SncSwitchPolicy::Flush
                                       : sim::SncSwitchPolicy::Tag);
            ++switches_done;
        }
    }

    if (rig.live().phase() != LiveInstallPhase::Done)
        return false;
    if (switches_done == 0)
        return false;
    if (rig.activeVersion() != 2 || rig.device.rollback().current("fw") != 2)
        return false;
    return rig.device.activeSlotBytes() == framed_v2;
}

/**
 * One journal-resume trial: cut power at two successive mid-stage
 * points, re-attempting the SAME bundle each time with the staging
 * journal persisted across the cuts (serialize round-trip, like the
 * rollback store). A resume must be a resume, not a restart: every
 * attempt writes only the lines the previous cut had not reached —
 * the three attempts sum to exactly one framed bundle, never more —
 * already-staged chunks are NACKed out of the downlink instead of
 * re-transmitted, and the remaining work strictly decreases across
 * each cut. The final image must match an uninterrupted install and
 * activation must retire the journal record.
 */
bool
journalResumeTrial(FirmwareVendor &vendor, const UpdateBundle &v1,
                   const UpdateBundle &v2,
                   const std::vector<uint8_t> &framed_v2,
                   const ota::TransportConfig &transport, int point)
{
    RaceRig rig(vendor, transport, /*two_tasks=*/false);
    StagingJournal &journal = rig.device.journal();
    rig.device.updater().setJournal(&journal);
    if (!rig.device.install(v1).ok())
        return false;
    const uint32_t slot = rig.device.updater().stagingSlot();

    const uint64_t total = framed_v2.size();
    // Stage writes drain fast once admission ends (the downlink, not
    // the slot, bounds the install), so step at fine granularity to
    // observe a genuinely partial stage.
    auto runUntilStaged = [&](uint64_t target) {
        for (int i = 0; i < 500000 && !rig.live().done() &&
                        rig.live().stagedBytesWritten() < target;
             ++i)
            rig.system.run(1);
        return rig.live().stagedBytesWritten();
    };

    // First cut: an injection-point fraction of the staged bytes.
    rig.live().start(v2, rig.system.core().cycles());
    const uint64_t s1 = runUntilStaged(total * (point + 1) / 4);
    if (rig.live().done() || s1 == 0 || s1 >= total)
        return false; // the cut must land mid-stage
    rig.system.reset();

    // The journal survives the reboot through its serialized image.
    const auto persisted =
        StagingJournal::deserialize(util::encode(journal));
    if (!persisted.has_value())
        return false;
    journal = *persisted;

    // Second attempt resumes past the journaled lines; cut it again
    // halfway through what remains.
    rig.live().start(v2, rig.system.core().cycles());
    const uint64_t s2 = runUntilStaged((total - s1) / 2);
    const uint64_t skipped2 = rig.live().transport().chunksSkipped();
    if (rig.live().done() || s2 == 0 || s1 + s2 >= total)
        return false;
    if (skipped2 == 0)
        return false; // staged chunks must be NACKed, not re-sent
    rig.system.reset();

    // Third attempt runs to completion.
    rig.live().start(v2, rig.system.core().cycles());
    for (int i = 0; i < 4000 && !rig.live().done(); ++i)
        rig.system.run(2'000);
    if (rig.live().phase() != LiveInstallPhase::Done)
        return false;
    if (rig.live().transport().chunksSkipped() <= skipped2)
        return false; // remaining downlink work strictly decreased
    // Resume, not restart: the attempts cover each payload byte
    // exactly once between them.
    if (s1 + s2 + rig.live().stagedBytesWritten() != total)
        return false;
    if (rig.activeVersion() != 2 || rig.device.rollback().current("fw") != 2)
        return false;
    if (journal.active(slot))
        return false; // activation must retire the record
    return rig.device.activeSlotBytes() == framed_v2;
}

struct Pattern
{
    const char *label;
    Scenario scenario;
    ota::TransportConfig transport;
};

std::vector<Pattern>
patterns()
{
    ota::TransportConfig lossless;
    lossless.chunk_bytes = 1024;
    lossless.cycles_per_chunk = 256;

    ota::TransportConfig burst = lossless;
    burst.loss_rate = 0.15;
    burst.burst_length = 3.0;
    burst.retransmit_delay = 4096;
    burst.seed = 0xB0B;

    ota::TransportConfig reorder = lossless;
    reorder.reorder_rate = 0.30;
    reorder.reorder_window = 6;
    reorder.loss_rate = 0.05;
    reorder.seed = 0x0DD;

    return {
        {"powercut-lossless", Scenario::PowerCut, lossless},
        {"powercut-burst", Scenario::PowerCut, burst},
        {"powercut-reorder", Scenario::PowerCut, reorder},
        {"ctxswitch-lossless", Scenario::ContextSwitch, lossless},
        {"ctxswitch-burst", Scenario::ContextSwitch, burst},
        {"resume-lossless", Scenario::JournalResume, lossless},
        {"resume-burst", Scenario::JournalResume, burst},
    };
}

exp::CellOutput
raceCell(const Pattern &pattern, const std::string &bench,
         uint64_t key_seed)
{
    FirmwareVendor vendor(key_seed);
    const secure::CipherKind cipher = cipherFor(bench);
    const UpdateBundle v1 = vendor.release(1, kImageBytes, cipher);
    const UpdateBundle v2 = vendor.release(2, kImageBytes, cipher);
    const std::vector<uint8_t> framed_v1 = frameBundle(v1);
    const std::vector<uint8_t> framed_v2 = frameBundle(v2);

    exp::CellOutput cell;
    const uint64_t install_cycles =
        dryRunInstallCycles(vendor, v1, v2, pattern.transport);
    cell.extras.emplace_back("install_cycles",
                             static_cast<double>(install_cycles));
    if (install_cycles == 0) {
        cell.measured = 0.0;
        return cell;
    }

    uint64_t trials = 0;
    uint64_t survived = 0;
    if (pattern.scenario == Scenario::PowerCut) {
        for (int k = 0; k < kInjectionPoints; ++k) {
            const uint64_t cut =
                install_cycles * (k + 1) / (kInjectionPoints + 1);
            ++trials;
            survived += powerCutTrial(vendor, v1, v2, framed_v1,
                                      framed_v2, pattern.transport,
                                      cut, cipher);
        }
    } else if (pattern.scenario == Scenario::JournalResume) {
        for (int k = 0; k < 3; ++k) {
            ++trials;
            survived += journalResumeTrial(vendor, v1, v2, framed_v2,
                                           pattern.transport, k);
        }
    } else {
        ++trials;
        survived += contextSwitchTrial(vendor, v1, v2, framed_v2,
                                       pattern.transport,
                                       install_cycles);
    }

    cell.extras.emplace_back("trials", static_cast<double>(trials));
    cell.measured = 100.0 * static_cast<double>(survived) /
                    static_cast<double>(trials);
    return cell;
}

TEST(LiveInstallRaceMatrix, AlwaysLandsInAnAllowedState)
{
    exp::ExperimentSpec spec;
    spec.name = "live_install_race_matrix";
    spec.title = "Concurrent-update race matrix";
    spec.subtitle = "% of interleavings in {previous, new} (must "
                    "be 100)";
    spec.benchmarks = {"des", "aes128"};
    uint64_t seed = 0x0ACE;
    for (const Pattern &pattern : patterns()) {
        const uint64_t key_seed = ++seed;
        spec.addCustom(pattern.label,
                       [pattern, key_seed](const std::string &bench,
                                           const exp::RunOptions &) {
                           return raceCell(pattern, bench, key_seed);
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
            << " reached a torn or unrecoverable state";
        ++checked;
    }
    EXPECT_EQ(checked, 14u);
}

} // namespace
