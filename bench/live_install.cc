/**
 * @file
 * Unified-plane install cost: one System run, both verdicts.
 *
 * Every cell runs a *real* secure install — signed bundle, lossy OTA
 * transport, functional UpdateEngine — as a background agent of the
 * foreground workload's machine, with the install self-throttling
 * through the channel's foreground-priority arbiter. The measured
 * value is the cycle verdict (percent foreground slowdown vs the
 * same machine with nothing installing); the functional verdict
 * (every completed install's slot bytes, manifest and rollback
 * counter byte-identical to a pure functional install of the same
 * bundle) rides along as the `functional_ok` extra, which must
 * always be 1.
 *
 * `fixed_slowdown` reports the PR-4 fixed-pace replay of the same
 * image on the same machine for comparison; `below_fixed` is 1 when
 * self-throttling undercut it (the ROADMAP acceptance number).
 */

#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <algorithm>
#include <iostream>

#include "crypto/latency.hh"
#include "exp/cell_cache.hh"
#include "exp/cli.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/profiles.hh"
#include "update/device_rig.hh"

using namespace secproc;

namespace
{

constexpr update::StagingConfig kStaging{0x4000'0000, 8ull << 20};

struct GridPoint
{
    const char *label;
    uint64_t image_bytes;
    uint32_t crypto_latency;
};

constexpr GridPoint kGrid[] = {
    {"live-256KB-c50", 256ull << 10, crypto::kPaperCryptoLatency},
    {"live-256KB-c102", 256ull << 10, crypto::kStrongCipherLatency},
    {"live-2MB-c50", 2ull << 20, crypto::kPaperCryptoLatency},
    {"live-2MB-c102", 2ull << 20, crypto::kStrongCipherLatency},
};

sim::SystemConfig
machineConfig(uint32_t crypto_latency)
{
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    config.protection.crypto.latency = crypto_latency;
    return config;
}

/** A modest-bandwidth downlink with mild burst loss. */
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

uint64_t
vendorSeed(uint64_t image_bytes, uint32_t crypto_latency)
{
    return 0x11E'0001 ^ image_bytes ^ crypto_latency;
}

/** Every live install here: arbiter-paced over downlink(). */
update::LiveInstallConfig
liveConfig(const sim::SystemConfig &config)
{
    update::LiveInstallConfig live_config;
    live_config.line_bytes = config.l2.line_size;
    live_config.pacing = update::InstallPacing::Arbiter;
    live_config.transport = downlink();
    return live_config;
}

/**
 * Shared vendor identity for every cell with the same (image size,
 * engine latency) pair. Those cells seed their RNG identically, so
 * the vendor/processor keypairs and the whole bundle sequence
 * v1, v2, ... are byte-for-byte the same across benchmarks — one
 * context builds each bundle once and the other benchmarks reuse it
 * instead of re-encrypting and re-signing a multi-hundred-KB image.
 * Bundles are built strictly in version order, so the RNG stream
 * here matches what a solo cell would have drawn.
 */
struct VendorContext
{
    update::FirmwareVendor vendor;
    uint64_t image_bytes;
    std::vector<update::UpdateBundle> bundles;
    std::mutex mutex;

    VendorContext(uint64_t bytes, uint32_t crypto_latency)
        : vendor(vendorSeed(bytes, crypto_latency)), image_bytes(bytes)
    {
    }

    const update::UpdateBundle &
    bundle(uint32_t version)
    {
        std::lock_guard<std::mutex> lock(mutex);
        while (bundles.size() < version) {
            bundles.push_back(vendor.release(
                static_cast<uint32_t>(bundles.size()) + 1, image_bytes));
        }
        return bundles[version - 1];
    }
};

VendorContext &
vendorContext(uint64_t image_bytes, uint32_t crypto_latency)
{
    static std::mutex registry_mutex;
    static std::map<std::pair<uint64_t, uint32_t>,
                    std::unique_ptr<VendorContext>>
        registry;
    std::lock_guard<std::mutex> lock(registry_mutex);
    auto &slot = registry[{image_bytes, crypto_latency}];
    if (slot == nullptr)
        slot = std::make_unique<VendorContext>(image_bytes,
                                               crypto_latency);
    return *slot;
}

/**
 * Foreground-alone cycles via the process-wide cell cache: cells
 * differing only in image size share one alone run, and workers
 * asking concurrently wait on the first worker's future.
 */
sim::RunStats
measureAlone(const std::string &bench, const sim::SystemConfig &config,
             const exp::RunOptions &options)
{
    return exp::cachedRunCell(bench, config, options);
}

/** PR-4 fixed-pace slowdown of the same image on the same machine. */
double
fixedPaceSlowdown(const std::string &bench, const GridPoint &point,
                  const exp::RunOptions &options, uint64_t alone_cycles)
{
    const sim::SystemConfig config =
        machineConfig(point.crypto_latency);
    const sim::WorkloadProfile profile = sim::benchmarkProfile(bench);
    sim::SyntheticWorkload workload(profile, config.l2.line_size);
    sim::System system(config, workload);

    update::InstallTiming timing(system.channel(), system.cryptoEngine(),
                                 config.l2.line_size);
    timing.start(update::InstallPlan::fromImageBytes(
                     point.image_bytes, config.l2.line_size),
                 0, /*repeat=*/true);
    system.attachAgent(&timing);
    system.run(options.warmup_instructions);
    system.beginMeasurement();
    system.run(options.measure_instructions);
    return exp::slowdownPct(alone_cycles, system.stats().cycles);
}

exp::RunFn
makeCell(const GridPoint &point)
{
    return [point](const std::string &bench,
                   const exp::RunOptions &options) {
        const sim::SystemConfig config =
            machineConfig(point.crypto_latency);
        const sim::RunStats alone =
            measureAlone(bench, config, options);

        // The live machine: functional updater + unified-plane agent.
        VendorContext &ctx =
            vendorContext(point.image_bytes, point.crypto_latency);
        const update::FirmwareVendor &vendor = ctx.vendor;
        const sim::WorkloadProfile profile =
            sim::benchmarkProfile(bench);
        sim::SyntheticWorkload workload(profile, config.l2.line_size);
        sim::System system(config, workload);
        update::DeviceRig device(vendor.builder.publicKey(),
                                 vendor.processor, system,
                                 liveConfig(config), kStaging);
        update::LiveInstall &live = device.live();

        // Pure functional reference device for the differential
        // verdict of every completed install.
        update::DeviceRig reference(vendor.builder.publicKey(),
                                    vendor.processor, kStaging);

        uint32_t version = 1;
        bool functional_ok = true;
        uint64_t completed = 0;
        const update::UpdateBundle *current = &ctx.bundle(version);
        live.start(*current, 0);

        // Steady-state install pressure: the moment an install
        // lands, verify it against the reference device and start
        // the next version.
        auto pump = [&](uint64_t instructions) {
            for (uint64_t ran = 0; ran < instructions;) {
                const uint64_t step =
                    std::min<uint64_t>(10'000, instructions - ran);
                system.run(step);
                ran += step;
                if (!live.done())
                    continue;
                functional_ok &=
                    live.phase() == update::LiveInstallPhase::Done;
                if (!functional_ok)
                    return;
                functional_ok &=
                    reference.install(*current).ok() &&
                    device.activeSlotBytes() ==
                        reference.activeSlotBytes() &&
                    util::encode(*device.updater().activeManifest()) ==
                        util::encode(
                            *reference.updater().activeManifest()) &&
                    device.rollback().current("fw") ==
                        reference.rollback().current("fw");
                ++completed;
                current = &ctx.bundle(++version);
                live.start(*current, system.core().cycles());
            }
        };

        pump(options.warmup_instructions);
        system.beginMeasurement();
        const uint64_t update_bytes_before =
            system.channel().updateBytes();
        pump(options.measure_instructions);

        exp::CellOutput cell;
        cell.stats = system.stats();
        cell.measured =
            exp::slowdownPct(alone.cycles, cell.stats.cycles);
        const double fixed = fixedPaceSlowdown(bench, point, options,
                                               alone.cycles);
        cell.extras.emplace_back("functional_ok",
                                 functional_ok ? 1.0 : 0.0);
        cell.extras.emplace_back("installs_completed",
                                 static_cast<double>(completed));
        cell.extras.emplace_back("fixed_slowdown", fixed);
        cell.extras.emplace_back(
            "below_fixed", *cell.measured < fixed ? 1.0 : 0.0);
        cell.extras.emplace_back(
            "stall_mcycles",
            static_cast<double>(
                system.channel().agentStallCycles(live.agent())) /
                1e6);
        cell.extras.emplace_back(
            "update_mbytes",
            static_cast<double>(system.channel().updateBytes() -
                                update_bytes_before) /
                1e6);
        cell.extras.emplace_back(
            "chunks_lost",
            static_cast<double>(live.transport().chunksLost()));
        system.channel().assertFullyAttributed();
        return cell;
    };
}

/**
 * --trace-out mode: run ONE complete traced install (gcc foreground,
 * 256KB image, paper crypto latency) instead of the grid, write the
 * Chrome/Perfetto trace, and dump the full metrics snapshot. One
 * exemplar keeps the CI smoke step fast; the grid's perf numbers
 * come from untraced runs only.
 */
int
runTracedExemplar(const exp::BenchCli &cli)
{
    const GridPoint &point = kGrid[0]; // live-256KB-c50
    const std::string bench = "gcc";
    const sim::SystemConfig config =
        machineConfig(point.crypto_latency);

    update::FirmwareVendor vendor(
        vendorSeed(point.image_bytes, point.crypto_latency));
    sim::SyntheticWorkload workload(sim::benchmarkProfile(bench),
                                    config.l2.line_size);
    sim::System system(config, workload);
    update::DeviceRig device(vendor.builder.publicKey(),
                             vendor.processor, system, liveConfig(config),
                             kStaging);
    update::LiveInstall &live = device.live();

    obs::TraceSink trace;
    system.setTraceSink(&trace);

    const update::UpdateBundle bundle =
        vendor.release(1, point.image_bytes);
    live.start(bundle, 0);
    while (!live.done())
        system.run(10'000);

    trace.writeChromeJson(cli.trace_out);
    const bool ok = live.phase() == update::LiveInstallPhase::Done;
    std::cout << "traced exemplar: " << bench << " / " << point.label
              << ", install " << (ok ? "done" : "FAILED")
              << " @ cycle " << system.core().cycles() << "\n"
              << "trace: " << trace.eventCount() << " events on "
              << trace.trackCount() << " tracks -> '" << cli.trace_out
              << "'\n\n-- metrics snapshot --\n";

    obs::MetricsRegistry registry;
    system.registerMetrics(registry);
    live.registerMetrics(registry);
    registry.snapshot().dump(std::cout);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const exp::BenchCli cli = exp::parseBenchCli(argc, argv);
    if (!cli.trace_out.empty())
        return runTracedExemplar(cli);

    exp::ExperimentSpec spec;
    spec.name = "live_install";
    spec.title = "Unified-plane OTA installs "
                 "(functional engine + arbiter self-throttling)";
    spec.subtitle = "foreground slowdown in % vs the same machine "
                    "with no install running";
    spec.benchmarks = {"gcc", "mcf", "art"};
    spec.options = cli.options;
    for (const GridPoint &point : kGrid)
        spec.addCustom(point.label, makeCell(point));

    const exp::Report report = exp::Runner(cli.runner).run(spec);
    report.printTable(std::cout);
    if (cli.write_json)
        report.writeJson(cli.json_path);
    return 0;
}
