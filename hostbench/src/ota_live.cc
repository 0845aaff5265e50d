/**
 * @file
 * ota_live: two paper machines, one with a compute-bound foreground
 * (gcc) and one memory-bound (art), take back-to-back releases while
 * their foreground runs. Every release goes through
 * ImageBuilder::build; every other one ships as a signed delta
 * (buildDelta -> LiveInstall::startDelta). Releases travel over a
 * lossy downlink with arbiter pacing and a StagingJournal attached,
 * and every kCutEvery-th release is hit by a System::reset power cut
 * mid-stage and then resumes. This is the workload where update,
 * OTA, real DES/SHA/RSA, the channel arbiter and the event kernel
 * do most of the work: vendor-side encrypt+sign runs beside
 * device-side verify+decrypt, and full installs beside deltas.
 */

#include <iostream>
#include <memory>

#include "ota/transport.hh"
#include "sim/system.hh"
#include "update/image_builder.hh"
#include "update/live_install.hh"
#include "update/staging_journal.hh"
#include "update/update_engine.hh"
#include "util/random.hh"
#include "workloads.hh"

using namespace secproc;

namespace hostbench
{

namespace
{

constexpr uint64_t kImageBytes = 64ull << 10;
constexpr uint64_t kImageBase = 0x0800'0000;
constexpr uint64_t kStagingBase = 0x4000'0000;
constexpr uint64_t kSlotSize = 8ull << 20;
/** Releases per round; each lands on both machines. */
constexpr uint32_t kReleases = 32;
/** Releases k with k % kCutEvery == kCutEvery - 1 take a power cut. */
constexpr uint32_t kCutEvery = 4;
/** Share of 64-byte blocks each release rewrites. */
constexpr double kChangeFraction = 0.10;
/** Foreground instructions per System::run while installing. */
constexpr uint64_t kStep = 2'000;
/** An install that has not landed after this many is a failure. */
constexpr uint64_t kInstallLimit = 1ull << 26;

const char *const kForegrounds[] = {"gcc", "art"};

/** The lossy downlink bench/live_install ships over. */
ota::TransportConfig
downlink()
{
    ota::TransportConfig transport;
    transport.chunk_bytes = 1024;
    transport.cycles_per_chunk = 128;
    transport.loss_rate = 0.05;
    transport.burst_length = 2.0;
    transport.retransmit_delay = 8192;
    transport.seed = 0x0F0A;
    return transport;
}

sim::SystemConfig
machineConfig()
{
    return sim::paperConfig(secure::SecurityModel::OtpSnc);
}

/**
 * Vendor side of one variant: signing and device-class keys, and the
 * release train. Every release is built from the same key seed, so
 * unchanged plaintext keeps its ciphertext and deltas stay small.
 */
struct Vendor
{
    util::Rng rng;
    update::ImageBuilder builder;
    crypto::RsaKeyPair processor;
    uint64_t key_seed;
    xom::PlainProgram program;
    std::optional<update::UpdateBundle> previous;

    explicit Vendor(uint32_t variant)
        : rng(0x07A1'1FE0ull + 0x1000'0001ull * variant),
          builder(crypto::rsaGenerate(512, rng)),
          processor(crypto::rsaGenerate(512, rng)),
          key_seed(rng.next64())
    {
        program.title = "fw";
        program.entry_point = kImageBase;
        xom::PlainProgram::PlainSection text;
        text.name = ".text";
        text.vaddr = kImageBase;
        text.bytes.resize(kImageBytes);
        util::Rng fill(key_seed ^ 0xF111);
        for (auto &byte : text.bytes)
            byte = static_cast<uint8_t>(fill.nextRange(256));
        program.sections = {text};
    }

    /** Rewrite kChangeFraction of the image for release @p version. */
    void
    mutate(uint32_t version)
    {
        constexpr uint64_t kBlock = 64;
        auto &bytes = program.sections[0].bytes;
        const uint64_t blocks = bytes.size() / kBlock;
        const auto changed = static_cast<uint64_t>(
            static_cast<double>(blocks) * kChangeFraction);
        util::Rng edit(key_seed ^ (0xD1FFull + version));
        for (uint64_t c = 0; c < changed; ++c) {
            const uint64_t block = edit.nextRange(blocks);
            for (uint64_t i = 0; i < kBlock; ++i)
                bytes[block * kBlock + i] =
                    static_cast<uint8_t>(edit.nextRange(256));
        }
    }

    /** Build release @p version (1, 2, ... in order). */
    update::UpdateBundle
    build(uint32_t version)
    {
        if (version > 1)
            mutate(version);
        update::UpdateSpec spec;
        spec.image_version = version;
        spec.rollback_counter = version;
        spec.cipher = secure::CipherKind::Des;
        if (previous.has_value())
            spec.base_digest = update::sha256DigestOfImage(previous->image);
        util::Rng build_rng(key_seed);
        return builder.build(program, spec, processor.pub, build_rng);
    }
};

/** One machine taking the release train. */
struct Device
{
    const char *bench;
    secure::KeyTable keys;
    update::RollbackStore rollback{64};
    update::StagingJournal journal;
    std::unique_ptr<update::UpdateEngine> updater;
    std::unique_ptr<sim::SyntheticWorkload> workload;
    std::unique_ptr<sim::System> system;
    std::unique_ptr<update::LiveInstall> live;
    /** Traced run only: forwards to live and times its pumps. */
    std::unique_ptr<CountingAgent> counter;

    Device(const char *name, const Vendor &vendor, uint32_t variant,
           bool traced)
        : bench(name)
    {
        const sim::SystemConfig config = machineConfig();
        updater = std::make_unique<update::UpdateEngine>(
            vendor.builder.publicKey(), vendor.processor, keys, rollback,
            update::StagingConfig{kStagingBase, kSlotSize});
        updater->setJournal(&journal);
        workload = std::make_unique<sim::SyntheticWorkload>(
            variantProfile(name, variant), config.l2.line_size);
        system = std::make_unique<sim::System>(config, *workload);

        update::LiveInstallConfig live_config;
        live_config.line_bytes = config.l2.line_size;
        live_config.pacing = update::InstallPacing::Arbiter;
        live_config.transport = downlink();
        live = std::make_unique<update::LiveInstall>(live_config, *system,
                                                     *updater, 1);
        if (traced) {
            counter = std::make_unique<CountingAgent>(*live);
            system->attachAgent(counter.get());
        } else {
            system->attachAgent(live.get());
        }
    }

    /** SHA-256 prefix of the framed bytes in the active slot. */
    std::string
    slotDigest()
    {
        const uint32_t slot = updater->activeSlot();
        const auto extent =
            updater->framedExtent(slot, system->mainMemory());
        if (!extent.has_value())
            return "torn";
        std::vector<uint8_t> bytes(*extent);
        system->mainMemory().read(updater->slotBase(slot), bytes.data(),
                                  bytes.size());
        return digestHex(bytes.data(), bytes.size());
    }
};

struct OtaCounts
{
    uint64_t sent = 0, lost = 0, skipped = 0;

    void
    add(const ota::Transport &transport)
    {
        sent += transport.chunksSent();
        lost += transport.chunksLost();
        skipped += transport.chunksSkipped();
    }
};

} // namespace

Outcome
runOtaLive(const Options &options, Expected &expected)
{
    // Per install, start/startDelta to landing. The gated latency is
    // per release (build plus landing on both machines): the two
    // foregrounds put installs in two equal-sized clusters, whose
    // boundary is exactly where a per-install median would sit.
    std::vector<double> install_ms;
    const RoundFn round = [&](uint32_t variant, SpanLog &log,
                              Tally &tally, LayerValues &layers) {
        const Clock::time_point round_start = Clock::now();
        std::unique_ptr<Vendor> vendor;
        std::vector<std::unique_ptr<Device>> devices;
        {
            Scoped span(log, "setup");
            vendor = std::make_unique<Vendor>(variant);
            for (const char *bench : kForegrounds)
                devices.push_back(std::make_unique<Device>(
                    bench, *vendor, variant, log.enabled()));
        }
        const double setup_s = secondsSince(round_start);
        tally.setup_s.push_back(setup_s);

        OtaCounts ota;
        double build_s = 0.0, build_delta_s = 0.0;
        uint64_t installs = 0, delta_installs = 0, resumes = 0,
                 failed = 0;
        uint32_t op = 0;

        for (uint32_t version = 1; version <= kReleases; ++version) {
            log.setRun(++op);
            const Clock::time_point release_start = Clock::now();
            bool release_ok = true;
            update::UpdateBundle bundle;
            {
                Scoped span(log, "update.build");
                bundle = vendor->build(version);
            }
            build_s += secondsSince(release_start);

            const bool via_delta = version % 2 == 0;
            std::optional<update::DeltaBundle> delta;
            if (via_delta) {
                const Clock::time_point start = Clock::now();
                Scoped span(log, "update.build_delta");
                delta = vendor->builder.buildDelta(*vendor->previous,
                                                   bundle);
                build_delta_s += secondsSince(start);
            }
            const bool cut = !via_delta &&
                             version % kCutEvery == kCutEvery - 1;

            for (auto &device : devices) {
                log.setRun(++op);
                sim::System &system = *device->system;
                update::LiveInstall &live = *device->live;
                const Clock::time_point install_start = Clock::now();
                Scoped install_span(log, "install");
                auto begin = [&] {
                    if (via_delta)
                        live.startDelta(*delta, system.core().cycles());
                    else
                        live.start(bundle, system.core().cycles());
                };
                begin();

                bool journal_ok = true;
                if (cut) {
                    // Power cut once staging is under way; the
                    // journal survives through its serialized image
                    // and the retried install resumes from it.
                    for (uint64_t ran = 0; ran < kInstallLimit &&
                                           !live.done() &&
                                           live.stagedBytesWritten() == 0;
                         ran += 200) {
                        Scoped span(log, "sim.run");
                        system.run(200);
                    }
                    if (!live.done()) {
                        Scoped span(log, "system.reset");
                        ota.add(live.transport());
                        system.reset();
                        auto persisted = update::StagingJournal::deserialize(
                            device->journal.serialize());
                        journal_ok = persisted.has_value();
                        if (journal_ok)
                            device->journal = *persisted;
                        ++resumes;
                        begin();
                    }
                }
                for (uint64_t ran = 0; ran < kInstallLimit && !live.done();
                     ran += kStep) {
                    Scoped span(log, "sim.run");
                    system.run(kStep);
                }
                const double install_s = secondsSince(install_start);
                ota.add(live.transport());

                Scoped check(log, "check");
                const auto &manifest = device->updater->activeManifest();
                const bool landed =
                    journal_ok &&
                    live.phase() == update::LiveInstallPhase::Done &&
                    live.result().has_value() && live.result()->ok() &&
                    manifest.has_value();
                std::string signature = "not-landed";
                if (landed) {
                    const std::vector<uint8_t> manifest_bytes =
                        manifest->serialize();
                    signature =
                        "cycles=" + std::to_string(live.installCycles()) +
                        " slot=" + device->slotDigest() + " manifest=" +
                        digestHex(manifest_bytes.data(),
                                  manifest_bytes.size()) +
                        " version=" +
                        std::to_string(manifest->image_version) +
                        " rollback=" +
                        std::to_string(device->rollback.current("fw"));
                }
                ++tally.attempted;
                if (landed && expected.check(variant,
                                             std::string(device->bench) +
                                                 "/v" +
                                                 std::to_string(version),
                                             signature)) {
                    install_ms.push_back(install_s * 1e3);
                    ++installs;
                    delta_installs += via_delta;
                } else {
                    if (!landed)
                        std::cout << "FAILED " << device->bench << "/v"
                                  << version << ": install did not land\n";
                    ++tally.failed;
                    ++failed;
                    release_ok = false;
                }
            }
            if (release_ok)
                tally.op_ms.push_back(secondsSince(release_start) * 1e3);
            vendor->previous = std::move(bundle);
        }

        for (auto &device : devices) {
            const obs::MetricsSnapshot snapshot =
                device->system->metrics().snapshot();
            tally.instructions += snapshot.u64("core.instructions");
            if (log.enabled()) {
                addMachineCounters(snapshot, layers);
                layers["sim.agent_pumps"] += device->counter->pumps();
                layers["update.advance_s"] += device->counter->seconds();
            }
        }
        tally.round_rate.push_back(
            static_cast<double>(installs) /
            (secondsSince(round_start) - setup_s));

        if (log.enabled()) {
            layers["update.build_ms"] = build_s * 1e3 / kReleases;
            layers["update.build_delta_ms"] =
                build_delta_s * 1e3 / (kReleases / 2);
            layers["update.installs"] += installs;
            layers["update.delta_installs"] += delta_installs;
            layers["update.resumes"] += resumes;
            layers["update.failed"] += failed;
            layers["ota.chunks_sent"] += ota.sent;
            layers["ota.chunks_lost"] += ota.lost;
            layers["ota.chunks_skipped"] += ota.skipped;
        }
    };

    const ProbeFn probe = [](uint32_t variant, LayerValues &layers) {
        std::vector<sim::WorkloadProfile> profiles;
        for (const char *bench : kForegrounds)
            profiles.push_back(variantProfile(bench, variant));
        probeMachineLayers(profiles, 200'000, layers);
        probeCrypto(variant, layers);

        // Device-side verify and delta reconstruction, and the
        // downlink's schedule computation, on this variant's first
        // two releases.
        Vendor vendor(variant);
        const update::UpdateBundle base = vendor.build(1);
        vendor.previous = base;
        const update::UpdateBundle next = vendor.build(2);
        const update::DeltaBundle delta =
            vendor.builder.buildDelta(base, next);

        const sim::SystemConfig config = machineConfig();
        secure::KeyTable keys;
        mem::MemoryChannel channel(config.channel);
        secure::ProtectionConfig protection = config.protection;
        protection.line_size = config.l2.line_size;
        auto engine = secure::makeProtectionEngine(protection, channel, keys);
        update::RollbackStore rollback(64);
        update::UpdateEngine updater(
            vendor.builder.publicKey(), vendor.processor, keys, rollback,
            update::StagingConfig{kStagingBase, kSlotSize});
        mem::MainMemory memory;
        mem::VirtualMemory vm;
        const bool installed =
            updater.install(base, 1, memory, vm, 1, *engine).ok();

        constexpr int kReps = 20;
        bool ok = installed;
        Clock::time_point start = Clock::now();
        for (int i = 0; i < kReps; ++i)
            ok &= updater.verify(next).ok();
        layers["update.verify_ms"] = secondsSince(start) * 1e3 / kReps;

        start = Clock::now();
        for (int i = 0; i < kReps; ++i)
            ok &= updater.reconstructDelta(delta, memory).result.ok();
        layers["update.reconstruct_ms"] =
            secondsSince(start) * 1e3 / kReps;

        const std::vector<uint8_t> payload = update::frameBundle(next);
        start = Clock::now();
        for (int i = 0; i < kReps; ++i) {
            ota::Transport transport(downlink());
            transport.send(payload, 0);
            ok &= transport.completionCycle() > 0;
        }
        layers["ota.send_us"] = secondsSince(start) * 1e6 / kReps;
        if (!ok)
            std::cout << "FAILED standalone verify/reconstruct probe\n";
    };

    Outcome outcome = drive(options, round, probe);
    outcome.notes.push_back(
        "ota_live: install_ms_p50 " + num(quantile(install_ms, 0.5)) +
        " ms, install_ms_p90 " + num(quantile(install_ms, 0.9)) +
        " ms over " + std::to_string(install_ms.size()) +
        " installs (host wall time, start to landing)");
    outcome.notes.push_back(
        "ota_live: " + std::to_string(kReleases) +
        " releases per round on gcc and art machines (" +
        std::to_string(kImageBytes >> 10) +
        " KB image, every 2nd a delta, power cut on every " +
        std::to_string(kCutEvery) + "th)");
    return outcome;
}

} // namespace hostbench
