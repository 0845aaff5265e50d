/**
 * @file
 * Fleet-scale staged rollout: convergence time and p99 device-hours
 * per policy.
 *
 * Every cell pushes one release to a simulated fleet of lightweight
 * secure processors (bench default 50,000 devices; override with
 * --devices=N) under one rollout policy x one scenario:
 *
 *   healthy  clean release, default population
 *   faulty   release that bricks hardware variant 0 — the canary
 *            wave must halt the rollout and push a rollback wave
 *   lossy    clean release into a cellular-heavy, power-cut-prone
 *            population
 *
 * The measured value is the p99 of device-hours-to-healthy-install
 * (util::Histogram::percentile over the sharded per-device
 * completion times); convergence hours, wave/halt/rollback counts
 * and the embedded ground-truth devices' worst relative error ride
 * along as extras. Device populations are sharded over a fixed
 * shard count, so every cell is bit-identical across --threads
 * settings. `fleet_tool --trace-out=PATH` traces one rollout.
 */

#include <algorithm>
#include <iostream>

#include "exp/cli.hh"
#include "fleet/rollout.hh"

using namespace secproc;

namespace
{

constexpr uint64_t kBenchDevices = 50'000;

fleet::FleetConfig
fleetConfig(const fleet::FleetScenario &scenario, uint64_t devices)
{
    fleet::FleetConfig config;
    config.devices = devices;
    config.dist = scenario.dist;
    return config;
}

exp::RunFn
makeCell(const fleet::RolloutPolicy &policy, uint64_t devices)
{
    return [policy, devices](const std::string &bench,
                             const exp::RunOptions &) {
        const fleet::FleetScenario scenario =
            fleet::fleetScenarioByName(bench);

        // Cells already fan out across the bench's worker pool;
        // each rollout runs its shards serially (and is
        // bit-identical to any threaded run regardless).
        exp::RunnerOptions serial;
        serial.threads = 1;
        const exp::Runner runner(serial);

        fleet::FleetSimulator sim(fleetConfig(scenario, devices),
                                  policy, runner);
        const fleet::RolloutResult result = sim.run(
            scenario.defective_variant, scenario.defect_rate);

        double gt_max_rel_error = 0.0;
        bool gt_ok = !result.ground_truth.empty();
        for (const fleet::GroundTruthReport &gt :
             result.ground_truth) {
            gt_max_rel_error =
                std::max(gt_max_rel_error, gt.rel_error);
            gt_ok = gt_ok && gt.within_tolerance &&
                    gt.functional_ok;
        }

        exp::CellOutput out;
        out.stats.cycles = result.convergence_cycle;
        out.measured = result.device_hours.percentile(0.99);
        out.extras = {
            {"converged", result.converged ? 1.0 : 0.0},
            {"convergence_hours", result.convergence_hours},
            {"waves",
             static_cast<double>(result.waves.size())},
            {"halts", static_cast<double>(result.halts)},
            {"rollback_waves",
             static_cast<double>(result.rollback_waves)},
            {"updated", static_cast<double>(result.updated)},
            {"failed_health",
             static_cast<double>(result.failed_health)},
            {"skipped",
             static_cast<double>(result.skipped_no_quirk)},
            {"gt_max_rel_error", gt_max_rel_error},
            {"gt_ok", gt_ok ? 1.0 : 0.0},
        };
        return out;
    };
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t devices = kBenchDevices;
    const exp::BenchCli cli = exp::parseBenchCli(
        argc, argv,
        [&devices](const std::string &arg) {
            return exp::flagU64(arg, "--devices=", &devices);
        },
        "  --devices=N   fleet population per cell "
        "(default 50000)\n");

    exp::ExperimentSpec spec;
    spec.name = "fleet_rollout";
    spec.title = "Fleet rollout: p99 device-hours to updated";
    spec.subtitle =
        "staged release push to " + std::to_string(devices) +
        " lightweight secure processors; measured = p99 hours "
        "from publish to healthy install";
    spec.benchmarks = {"healthy", "faulty", "lossy"};
    spec.options = cli.options;

    for (const fleet::RolloutPolicy &policy :
         {fleet::RolloutPolicy::canaryStaged(),
          fleet::RolloutPolicy::conservative(),
          fleet::RolloutPolicy::bigBang()})
        spec.addCustom(policy.name, makeCell(policy, devices));

    const exp::Report report =
        exp::Runner(cli.runner).run(spec);
    report.printTable(std::cout);
    if (cli.write_json)
        report.writeJson(cli.json_path);
    return 0;
}
