/**
 * @file
 * fleet_rollout: FleetSimulator::run over a million devices, once as
 * a healthy canary-staged rollout shipping deltas and once as a
 * faulty one (halt plus rollback wave). Per-device evaluation
 * dominates (deviceTraits, simulateDownload, simulateInstall, shard
 * merge); the timing simulator only runs for calibration and the
 * three ground-truth machines. It is the workload that bypasses
 * paper_grid's hot paths.
 */

#include <memory>

#include "exp/runner.hh"
#include "fleet/rollout.hh"
#include "workloads.hh"

using namespace secproc;

namespace hostbench
{

namespace
{

constexpr uint64_t kDevices = 1'000'000;

struct Rollout
{
    const char *label;
    fleet::FleetScenario scenario;
    bool ship_deltas;
};

std::vector<Rollout>
rollouts()
{
    return {
        {"healthy", fleet::fleetScenarioHealthy(), true},
        {"faulty", fleet::fleetScenarioFaulty(), false},
    };
}

fleet::FleetConfig
fleetConfig(const Rollout &rollout, uint32_t variant)
{
    fleet::FleetConfig config;
    config.devices = kDevices;
    config.fleet_seed = 0xF1EE7'5EEDull + 0x9E37'79B9ull * variant;
    config.vendor.seed = 0xF1EE7ull + 0x1000'0001ull * variant;
    config.vendor.image_bytes = 32ull << 10;
    config.dist = rollout.scenario.dist;
    config.ship_deltas = rollout.ship_deltas;
    return config;
}

exp::Runner
serialRunner()
{
    exp::RunnerOptions serial;
    serial.threads = 1;
    return exp::Runner(serial);
}

uint64_t
finalDevices(const fleet::RolloutResult &result)
{
    uint64_t devices = 0;
    for (const auto &[version, count] : result.final_version_counts)
        devices += count;
    return devices;
}

} // namespace

Outcome
runFleetRollout(const Options &options, Expected &expected)
{
    const exp::Runner runner = serialRunner();

    // One operation is the pair of rollouts: the healthy and the
    // faulty run differ in cost by design, so timing them as one
    // unit keeps the latency samples from one distribution.
    const RoundFn round = [&](uint32_t variant, SpanLog &log,
                              Tally &tally, LayerValues &layers) {
        const std::vector<Rollout> plans = rollouts();
        std::vector<std::unique_ptr<fleet::FleetSimulator>> sims;
        const Clock::time_point start = Clock::now();
        {
            Scoped span(log, "setup");
            for (const Rollout &plan : plans)
                sims.push_back(std::make_unique<fleet::FleetSimulator>(
                    fleetConfig(plan, variant),
                    fleet::RolloutPolicy::canaryStaged(), runner));
        }
        tally.setup_s.push_back(secondsSince(start));

        double busy_s = 0.0;
        uint64_t devices = 0;
        for (size_t i = 0; i < plans.size(); ++i) {
            const Rollout &plan = plans[i];
            log.setRun(static_cast<uint32_t>(i + 1));
            const Clock::time_point run_start = Clock::now();
            fleet::RolloutResult result;
            {
                Scoped span(log, "fleet.run");
                result = sims[i]->run(plan.scenario.defective_variant,
                                      plan.scenario.defect_rate);
            }
            const double run_s = secondsSince(run_start);
            busy_s += run_s;

            Scoped check(log, "check");
            const std::string json = result.toJson().dump();
            const std::string signature =
                "json=" +
                digestHex(reinterpret_cast<const uint8_t *>(json.data()),
                          json.size(), 16) +
                " devices=" + std::to_string(result.devices) +
                " updated=" + std::to_string(result.updated) +
                " rolled_back=" + std::to_string(result.rolled_back) +
                " halts=" + std::to_string(result.halts) +
                " waves=" + std::to_string(result.waves.size()) +
                " converged=" + std::to_string(result.converged);
            ++tally.attempted;
            if (result.converged &&
                expected.check(variant, plan.label, signature))
                devices += finalDevices(result);
            else
                ++tally.failed;
            if (log.enabled()) {
                layers["fleet.run_s"] += run_s;
                layers["fleet.waves"] +=
                    static_cast<double>(result.waves.size());
                for (const fleet::WaveStats &wave : result.waves)
                    layers["fleet.devices_offered"] +=
                        static_cast<double>(wave.offered);
            }
            sims[i].reset();
        }
        tally.op_ms.push_back(busy_s * 1e3);
        tally.round_rate.push_back(static_cast<double>(devices) / busy_s);
    };

    const ProbeFn probe = [&](uint32_t variant, LayerValues &layers) {
        probeCrypto(variant, layers);

        // Ground-truth machines' share: the same rollouts without them.
        double bare_s = 0.0;
        for (const Rollout &plan : rollouts()) {
            fleet::FleetConfig config = fleetConfig(plan, variant);
            config.ground_truth_devices = 0;
            fleet::FleetSimulator sim(
                config, fleet::RolloutPolicy::canaryStaged(), runner);
            const Clock::time_point start = Clock::now();
            sim.run(plan.scenario.defective_variant,
                    plan.scenario.defect_rate);
            bare_s += secondsSince(start);
        }
        layers["fleet.ground_truth_s"] = layers["fleet.run_s"] - bare_s;

        // The vendor's publishes for both rollouts, standalone.
        double publish_s = 0.0;
        std::optional<fleet::VendorService> healthy;
        for (const Rollout &plan : rollouts()) {
            const fleet::FleetConfig config = fleetConfig(plan, variant);
            fleet::VendorService vendor(config.vendor);
            const Clock::time_point start = Clock::now();
            if (plan.ship_deltas) {
                vendor.publish(1, 1, 1);
                vendor.publish(2, 2, 2, -1, 0.0, 0, 1);
            } else {
                vendor.publish(2, 2, 2, plan.scenario.defective_variant,
                               plan.scenario.defect_rate);
                vendor.publish(3, 3, 1, -1, 0.0, 2);
            }
            publish_s += secondsSince(start);
            if (plan.ship_deltas)
                healthy.emplace(std::move(vendor));
        }
        layers["fleet.publish_s"] = publish_s;

        // Per-device install evaluation over the population's traits.
        const Rollout plan = rollouts().front();
        const fleet::FleetConfig config = fleetConfig(plan, variant);
        const fleet::ReleaseInfo &release = healthy->release(2);
        constexpr uint64_t kEvalDevices = 200'000;
        const Clock::time_point start = Clock::now();
        for (uint64_t id = 0; id < kEvalDevices; ++id) {
            const fleet::DeviceTraits traits =
                fleet::deviceTraits(config.fleet_seed, id, config.dist);
            ota::TransportConfig link = fleet::linkTransport(traits.link);
            link.seed = fleet::mixSeed(traits.seed, release.version);
            util::Rng rng(fleet::mixSeed(traits.seed, 0xE7A1));
            static_cast<void>(fleet::simulateInstall(
                traits, release.cost(traits.engine_latency), link,
                release.framed_bytes, rng));
        }
        layers["fleet.device_eval_ns"] =
            secondsSince(start) * 1e9 / kEvalDevices;
    };

    Outcome outcome = drive(options, round, probe);
    outcome.notes.push_back(
        "fleet_rollout: healthy (deltas) + faulty (halt, rollback) "
        "canary-staged rollouts of " +
        std::to_string(kDevices) + " devices per round, serial runner");
    return outcome;
}

} // namespace hostbench
