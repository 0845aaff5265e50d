/**
 * @file
 * Delta vs full-bundle OTA cost, on the unified install plane.
 *
 * Every cell ships ONE release to a machine already running its
 * predecessor: the base image is installed functionally, then the
 * successor streams in over the OTA downlink and installs as a
 * background agent while the foreground workload runs — once as a
 * signed delta bundle (reconstructed slot-to-slot against the base),
 * once as the full bundle. The measured value is the foreground
 * slowdown of the *delta* install over the measurement window;
 * `full_slowdown` is the same window shipping the full bundle, and
 * `delta_below_full` must be 1 wherever the change fraction is small
 * — the DFU-grade claim that a point release is cheaper to take as a
 * delta. `identical` rides along as the functional verdict: both
 * machines' final slot bytes must match a pure functional
 * full-bundle install byte for byte.
 *
 * Grid: image size x change fraction x downlink class x crypto
 * engine latency, gcc foreground.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "crypto/latency.hh"
#include "exp/cell_cache.hh"
#include "exp/cli.hh"
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
    double change_fraction;
    uint32_t crypto_latency;
    bool slow_link;
};

constexpr GridPoint kGrid[] = {
    {"256KB-d2-fast-c50", 256ull << 10, 0.02,
     crypto::kPaperCryptoLatency, false},
    {"256KB-d10-fast-c50", 256ull << 10, 0.10,
     crypto::kPaperCryptoLatency, false},
    {"256KB-d50-fast-c50", 256ull << 10, 0.50,
     crypto::kPaperCryptoLatency, false},
    {"256KB-d10-slow-c50", 256ull << 10, 0.10,
     crypto::kPaperCryptoLatency, true},
    {"256KB-d10-fast-c102", 256ull << 10, 0.10,
     crypto::kStrongCipherLatency, false},
    {"256KB-d10-slow-c102", 256ull << 10, 0.10,
     crypto::kStrongCipherLatency, true},
    {"64KB-d10-fast-c50", 64ull << 10, 0.10,
     crypto::kPaperCryptoLatency, false},
};

sim::SystemConfig
machineConfig(uint32_t crypto_latency)
{
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    config.protection.crypto.latency = crypto_latency;
    return config;
}

ota::TransportConfig
downlink(bool slow)
{
    ota::TransportConfig transport;
    transport.chunk_bytes = 1024;
    transport.cycles_per_chunk = slow ? 512 : 64;
    if (slow) {
        transport.loss_rate = 0.05;
        transport.burst_length = 2.0;
        transport.retransmit_delay = 8192;
        transport.seed = 0x0D17A;
    }
    return transport;
}

/**
 * Shared vendor identity per (image size, change fraction): the base
 * and successor releases plus the delta between them are built once
 * and reused by every engine/link variant.
 */
struct VendorContext
{
    update::FirmwareVendor vendor;
    update::ReleasePair pair;

    VendorContext(uint64_t image_bytes, double change_fraction)
        : vendor(0xDE17A'0001 ^ image_bytes ^
                 static_cast<uint64_t>(change_fraction * 1000.0)),
          pair(vendor.releasePair(image_bytes, change_fraction,
                                  vendor.rng.next64()))
    {}
};

VendorContext &
vendorContext(uint64_t image_bytes, double change_fraction)
{
    static std::mutex registry_mutex;
    static std::map<std::pair<uint64_t, uint64_t>,
                    std::unique_ptr<VendorContext>>
        registry;
    const auto key = std::make_pair(
        image_bytes, static_cast<uint64_t>(change_fraction * 1000.0));
    std::lock_guard<std::mutex> lock(registry_mutex);
    auto &slot = registry[key];
    if (slot == nullptr)
        slot = std::make_unique<VendorContext>(image_bytes,
                                               change_fraction);
    return *slot;
}

/** One shipped release on one machine. */
struct ShipResult
{
    uint64_t cycles = 0;       ///< foreground cycles of the window
    uint64_t instructions = 0; ///< foreground instructions it spanned
    bool done = false;         ///< install landed within the window
    bool identical = false;    ///< slot bytes match the reference
};

/**
 * Install the base functionally, then ship the successor through the
 * unified plane (as a delta when @p via_delta) over the measurement
 * window. @p reference_slot is the framed slot a pure functional
 * full-bundle install of the successor produced. @p window is the
 * measured instruction count; 0 probes instead — run until the
 * install lands and report the instructions that took, so the caller
 * can pick one window long enough for every shipping mode.
 */
ShipResult
shipRelease(const std::string &bench, const GridPoint &point,
            const exp::RunOptions &options, VendorContext &ctx,
            const std::vector<uint8_t> &reference_slot, bool via_delta,
            uint64_t window)
{
    const sim::SystemConfig config =
        machineConfig(point.crypto_latency);
    sim::SyntheticWorkload workload(sim::benchmarkProfile(bench),
                                    config.l2.line_size);
    sim::System system(config, workload);

    update::LiveInstallConfig live_config;
    live_config.line_bytes = config.l2.line_size;
    live_config.pacing = update::InstallPacing::Arbiter;
    live_config.transport = downlink(point.slow_link);
    update::DeviceRig device(ctx.vendor.builder.publicKey(),
                             ctx.vendor.processor, system, live_config,
                             kStaging);
    update::LiveInstall &live = device.live();

    ShipResult result;
    if (!device.install(ctx.pair.base).ok())
        return result;

    system.run(options.warmup_instructions);
    system.beginMeasurement();
    if (via_delta)
        live.startDelta(ctx.pair.delta, system.core().cycles());
    else
        live.start(ctx.pair.next, system.core().cycles());
    if (window == 0) {
        // Probe: step until the install lands, whatever it takes.
        constexpr uint64_t kStep = 10'000;
        uint64_t ran = 0;
        while (live.phase() != update::LiveInstallPhase::Done &&
               ran < (1ull << 28)) {
            system.run(kStep);
            ran += kStep;
        }
        result.instructions = ran;
        // Exact start-to-done span (the run-step granularity above
        // is too coarse).
        result.cycles = live.installCycles();
        result.done =
            live.phase() == update::LiveInstallPhase::Done;
        return result;
    } else {
        // The shared window covers the whole install plus an
        // install-free tail in every shipping mode, so the modes are
        // compared over identical instruction counts.
        system.run(window);
        result.instructions = window;
    }
    result.cycles = system.stats().cycles;
    result.done = live.phase() == update::LiveInstallPhase::Done;
    if (!result.done)
        return result;

    result.identical = device.activeSlotBytes() == reference_slot;
    system.channel().assertFullyAttributed();
    return result;
}

exp::RunFn
makeCell(const GridPoint &point)
{
    return [point](const std::string &bench,
                   const exp::RunOptions &options) {
        const sim::SystemConfig config =
            machineConfig(point.crypto_latency);

        VendorContext &ctx =
            vendorContext(point.image_bytes, point.change_fraction);

        // Pure functional full-bundle install: the byte-identity
        // reference both shipping modes must reproduce.
        update::DeviceRig reference(ctx.vendor.builder.publicKey(),
                                    ctx.vendor.processor, kStaging);
        if (!reference.install(ctx.pair.base).ok() ||
            !reference.install(ctx.pair.next).ok())
            return exp::CellOutput{};
        const std::vector<uint8_t> reference_slot =
            reference.activeSlotBytes();

        // Pass 1 — probe each mode to completion, then size ONE
        // window long enough for the slower of the two. A fixed
        // smoke-length window would leave the full install still
        // downloading on slow links, turning the comparison into
        // finished-delta vs half-shipped-full noise.
        const ShipResult probe_delta = shipRelease(
            bench, point, options, ctx, reference_slot, true, 0);
        const ShipResult probe_full = shipRelease(
            bench, point, options, ctx, reference_slot, false, 0);
        const uint64_t window =
            std::max({options.measure_instructions,
                      probe_delta.instructions,
                      probe_full.instructions});

        exp::RunOptions windowed = options;
        windowed.measure_instructions = window;
        const sim::RunStats alone =
            exp::cachedRunCell(bench, config, windowed);

        // Pass 2 — the measured runs, both over the same window.
        const ShipResult delta = shipRelease(
            bench, point, options, ctx, reference_slot, true, window);
        const ShipResult full = shipRelease(
            bench, point, options, ctx, reference_slot, false, window);

        const double delta_slowdown =
            exp::slowdownPct(alone.cycles, delta.cycles);
        const double full_slowdown =
            exp::slowdownPct(alone.cycles, full.cycles);
        const double delta_kb =
            static_cast<double>(update::kSlotHeaderBytes +
                                util::encodedSize(ctx.pair.delta)) /
            1024.0;
        const double full_kb =
            static_cast<double>(update::kSlotHeaderBytes +
                                util::encodedSize(ctx.pair.next)) /
            1024.0;

        exp::CellOutput cell;
        cell.measured = delta_slowdown;
        cell.extras.emplace_back("full_slowdown", full_slowdown);
        cell.extras.emplace_back(
            "delta_below_full",
            delta_slowdown < full_slowdown ? 1.0 : 0.0);
        cell.extras.emplace_back("delta_kb", delta_kb);
        cell.extras.emplace_back("full_kb", full_kb);
        cell.extras.emplace_back(
            "bytes_saved_pct",
            100.0 * (1.0 - delta_kb / full_kb));
        cell.extras.emplace_back(
            "installs_done",
            (delta.done ? 1.0 : 0.0) + (full.done ? 1.0 : 0.0));
        cell.extras.emplace_back(
            "identical",
            delta.identical && full.identical ? 1.0 : 0.0);
        // Time-to-completion, from the probe pass: on a trickle
        // link the full bundle hides behind network wait (so its
        // *interference* can dip below the delta's base-readback
        // bandwidth), but the delta still lands much sooner.
        cell.extras.emplace_back(
            "delta_done_cycles",
            static_cast<double>(probe_delta.cycles));
        cell.extras.emplace_back(
            "full_done_cycles",
            static_cast<double>(probe_full.cycles));
        cell.extras.emplace_back(
            "delta_finishes_first",
            probe_delta.cycles < probe_full.cycles ? 1.0 : 0.0);
        return cell;
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const exp::BenchCli cli = exp::parseBenchCli(argc, argv);

    exp::ExperimentSpec spec;
    spec.name = "delta_update";
    spec.title = "Delta vs full-bundle OTA "
                 "(signed deltas, slot-to-slot reconstruction)";
    spec.subtitle = "foreground slowdown in % shipping one release "
                    "as a delta (full_slowdown = same release, full "
                    "bundle)";
    spec.benchmarks = {"gcc"};
    spec.options = cli.options;
    for (const GridPoint &point : kGrid)
        spec.addCustom(point.label, makeCell(point));

    const exp::Report report = exp::Runner(cli.runner).run(spec);
    report.printTable(std::cout);
    if (cli.write_json)
        report.writeJson(cli.json_path);
    return 0;
}
