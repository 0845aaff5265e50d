/**
 * @file
 * Cycle-plane cost of over-the-air installs: what does a background
 * OTA install do to foreground slowdown?
 *
 * The paper's machines hide the crypto engine behind memory access
 * for *demand* traffic; an install is different — it streams every
 * staged line through the channel and holds the engine for bulk
 * digesting, signature checks and the capsule unwrap. The grid
 * crosses install image size with crypto-engine latency (the 50-cycle
 * paper engine vs the 102-cycle stronger-cipher engine of Figure 10)
 * and with install pacing (fixed vs the foreground-priority channel
 * arbiter) and reports the headline number: percent slowdown of the
 * foreground OTP workload while installs stream continuously in the
 * background, against the same machine with the channel and engine
 * to itself.
 *
 * Extras per cell: the idle-machine duration of one install
 * (install_mcycles), installs completed during the measurement
 * window, and the update traffic moved.
 */

#include <iostream>

#include "crypto/latency.hh"
#include "exp/cell_cache.hh"
#include "exp/cli.hh"
#include "sim/profiles.hh"
#include "update/install_timing.hh"

using namespace secproc;

namespace
{

struct GridPoint
{
    const char *label;
    uint64_t image_bytes;
    uint32_t crypto_latency;
    update::InstallPacing pacing;
};

/**
 * The pacing axis: `fixed` is the PR-4 replay (the install takes
 * bandwidth whenever its pipeline is ready); `arbiter` queues every
 * transaction through the channel's foreground-priority arbiter, so
 * the install self-throttles into idle bus time.
 */
constexpr GridPoint kGrid[] = {
    {"install-256KB-c50", 256ull << 10, crypto::kPaperCryptoLatency,
     update::InstallPacing::Fixed},
    {"install-256KB-c102", 256ull << 10, crypto::kStrongCipherLatency,
     update::InstallPacing::Fixed},
    {"install-2MB-c50", 2ull << 20, crypto::kPaperCryptoLatency,
     update::InstallPacing::Fixed},
    {"install-2MB-c102", 2ull << 20, crypto::kStrongCipherLatency,
     update::InstallPacing::Fixed},
    {"install-256KB-c50-arbiter", 256ull << 10,
     crypto::kPaperCryptoLatency, update::InstallPacing::Arbiter},
    {"install-256KB-c102-arbiter", 256ull << 10,
     crypto::kStrongCipherLatency, update::InstallPacing::Arbiter},
    {"install-2MB-c50-arbiter", 2ull << 20,
     crypto::kPaperCryptoLatency, update::InstallPacing::Arbiter},
    {"install-2MB-c102-arbiter", 2ull << 20,
     crypto::kStrongCipherLatency, update::InstallPacing::Arbiter},
};

sim::SystemConfig
machineConfig(uint32_t crypto_latency)
{
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    config.protection.crypto.latency = crypto_latency;
    return config;
}

/**
 * The foreground workload with the machine to itself, via the
 * process-wide cell cache: cells that differ only in install size
 * share one (bench, config) alone run, and whichever worker claims
 * the key first simulates it while the rest wait on its future.
 */
sim::RunStats
measureAlone(const std::string &bench, const sim::SystemConfig &config,
             const exp::RunOptions &options)
{
    return exp::cachedRunCell(bench, config, options);
}

exp::RunFn
makeCell(const GridPoint &point)
{
    return [point](const std::string &bench,
                   const exp::RunOptions &options) {
        const sim::SystemConfig config =
            machineConfig(point.crypto_latency);
        const update::InstallPlan plan =
            update::InstallPlan::fromImageBytes(point.image_bytes,
                                                config.l2.line_size);

        // Idle-machine install duration: a private channel + engine,
        // nothing contending.
        mem::MemoryChannel idle_channel(config.channel);
        crypto::CryptoEngineModel idle_engine(config.protection.crypto);
        update::InstallTiming idle_replay(idle_channel, idle_engine,
                                          config.l2.line_size,
                                          point.pacing);
        idle_replay.start(plan, 0);
        const uint64_t idle_cycles = idle_replay.replay();

        // Foreground alone, then foreground + continuous installs on
        // the same machine configuration and workload seed.
        const sim::RunStats alone =
            measureAlone(bench, config, options);

        const sim::WorkloadProfile profile =
            sim::benchmarkProfile(bench);
        sim::SyntheticWorkload workload(profile, config.l2.line_size);
        sim::System system(config, workload);
        update::InstallTiming timing(system.channel(),
                                     system.cryptoEngine(),
                                     config.l2.line_size, point.pacing);
        timing.start(plan, 0, /*repeat=*/true);
        system.attachAgent(&timing);
        system.run(options.warmup_instructions);
        system.beginMeasurement();
        const uint64_t update_bytes_before =
            system.channel().updateBytes();
        const uint64_t installs_before = timing.installsCompleted();
        system.run(options.measure_instructions);

        exp::CellOutput cell;
        cell.stats = system.stats();
        cell.measured = exp::slowdownPct(alone.cycles,
                                         cell.stats.cycles);
        cell.extras.emplace_back("install_mcycles",
                                 static_cast<double>(idle_cycles) /
                                     1e6);
        cell.extras.emplace_back(
            "installs_completed",
            static_cast<double>(timing.installsCompleted() -
                                installs_before));
        cell.extras.emplace_back(
            "update_mbytes",
            static_cast<double>(system.channel().updateBytes() -
                                update_bytes_before) /
                1e6);
        if (point.pacing == update::InstallPacing::Arbiter) {
            cell.extras.emplace_back(
                "stall_mcycles",
                static_cast<double>(system.channel().agentStallCycles(
                    timing.agent())) /
                    1e6);
        }
        return cell;
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const exp::BenchCli cli = exp::parseBenchCli(argc, argv);

    exp::ExperimentSpec spec;
    spec.name = "update_install_timing";
    spec.title = "Background OTA install interference "
                 "(shared channel + crypto engine)";
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
