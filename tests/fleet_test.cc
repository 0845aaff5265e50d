/**
 * @file
 * Fleet-scale staged-rollout tests: exactness of the lightweight
 * download model against the real transport, ground-truth agreement
 * of the install cost model, canary halt + rollback mechanics,
 * thread-count determinism, and a million-device convergence run.
 */

#include <gtest/gtest.h>

#include <vector>

#include "crypto/sha.hh"
#include "fleet/device.hh"
#include "fleet/rollout.hh"
#include "fleet/vendor.hh"
#include "ota/transport.hh"
#include "util/strutil.hh"

using namespace secproc;
using namespace secproc::fleet;

namespace
{

exp::Runner
serialRunner()
{
    exp::RunnerOptions options;
    options.threads = 1;
    return exp::Runner(options);
}

exp::Runner
threadedRunner(unsigned threads)
{
    exp::RunnerOptions options;
    options.threads = threads;
    return exp::Runner(options);
}

} // namespace

// The lightweight download model claims *exactness*: same RNG draw
// sequence as ota::Transport::send, so the completion cycle equals
// completionCycle() for every link class and seed. Everything the
// fleet predicts sits on this invariant.
TEST(FleetDevice, DownloadModelMatchesTransportExactly)
{
    const uint64_t payload_bytes = 40'000;
    for (const LinkClass link : {LinkClass::Fiber,
                                 LinkClass::Broadband,
                                 LinkClass::Cellular}) {
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            ota::TransportConfig config = linkTransport(link);
            config.seed = mixSeed(0xD0D0, seed);

            const DownloadSim sim =
                simulateDownload(config, payload_bytes, 321);

            ota::Transport transport(config);
            transport.send(std::vector<uint8_t>(payload_bytes),
                           321);
            EXPECT_EQ(sim.completion_cycle,
                      transport.completionCycle())
                << linkClassName(link) << " seed " << seed;
            EXPECT_EQ(sim.chunks_sent, transport.chunksSent());
            EXPECT_EQ(sim.chunks_lost, transport.chunksLost());
            EXPECT_EQ(sim.retransmit_passes,
                      transport.retransmitPasses());
        }
    }
}

TEST(FleetDevice, TraitsArePureAndInDistributionRange)
{
    const FleetDistributions dist;
    for (uint64_t id = 0; id < 500; ++id) {
        const DeviceTraits a = deviceTraits(0xABCD, id, dist);
        const DeviceTraits b = deviceTraits(0xABCD, id, dist);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.hw_variant, b.hw_variant);
        EXPECT_EQ(a.engine_latency, b.engine_latency);
        EXPECT_EQ(a.link, b.link);
        EXPECT_EQ(a.mix, b.mix);
        EXPECT_EQ(a.power_cut_rate, b.power_cut_rate);
        EXPECT_LT(a.hw_variant, dist.variant_weights.size());
        EXPECT_TRUE(a.engine_latency == 50 ||
                    a.engine_latency == 102);
        EXPECT_GE(a.power_cut_rate, 0.0);
        EXPECT_LT(a.power_cut_rate, dist.max_power_cut_rate);
    }
}

TEST(FleetVendor, QuirkGateAndLedger)
{
    VendorConfig config;
    config.image_bytes = 8 << 10;
    VendorService vendor(config);
    EXPECT_TRUE(vendor.offersVariant(0));
    EXPECT_TRUE(vendor.offersVariant(4));
    EXPECT_FALSE(vendor.offersVariant(5)); // past the quirk table
    EXPECT_FALSE(vendor.offersVariant(100));

    const ReleaseInfo &release = vendor.publish(2, 2, 2);
    EXPECT_EQ(release.version, 2u);
    EXPECT_GT(release.framed_bytes, release.image_bytes);
    EXPECT_GT(release.cost(50).total(), 0u);
    // The strong-cipher engine is strictly slower per line.
    EXPECT_GT(release.cost(102).total(),
              release.cost(50).total());

    vendor.reserveLedger(3);
    vendor.extendLedger(1)[0] =
        LedgerRecord{7, 2, 0, InstallOutcome::Updated, 1, 12345};
    ASSERT_EQ(vendor.ledger().size(), 1u);
    EXPECT_EQ(vendor.ledger()[0].device, 7u);
    // A later extension lands after the records already written.
    const std::span<LedgerRecord> next = vendor.extendLedger(2);
    ASSERT_EQ(next.size(), 2u);
    next[1].device = 9;
    ASSERT_EQ(vendor.ledger().size(), 3u);
    EXPECT_EQ(vendor.ledger()[0].device, 7u);
    EXPECT_EQ(vendor.ledger()[0].completed_cycle, 12345u);
    EXPECT_EQ(vendor.ledger()[2].device, 9u);

    // CDN dispatch is a closed form over queue position — shard
    // and thread scheduling cannot reorder it.
    EXPECT_EQ(vendor.dispatchCycle(1000, 0, 5), 1005u);
    EXPECT_EQ(vendor.dispatchCycle(1000, 3, 5),
              1005u + 3 * config.cdn_service_cycles);
}

// Acceptance: the embedded full-machine LiveInstall devices must
// agree with the lightweight cost model within the documented
// tolerance, and their installs must functionally activate.
TEST(FleetRollout, GroundTruthWithinDocumentedTolerance)
{
    FleetConfig config;
    config.devices = 2'000;
    config.vendor.image_bytes = 16 << 10;
    const exp::Runner runner = serialRunner();
    FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                       runner);
    const RolloutResult result = sim.run();

    ASSERT_EQ(result.ground_truth.size(), 3u);
    for (const GroundTruthReport &gt : result.ground_truth) {
        EXPECT_TRUE(gt.functional_ok)
            << "device " << gt.device << " did not activate";
        EXPECT_GT(gt.predicted_cycles, 0u);
        EXPECT_GT(gt.measured_cycles, 0u);
        EXPECT_LE(gt.rel_error, kGroundTruthTolerance)
            << "device " << gt.device << " ("
            << gt.engine_latency << "c, "
            << linkClassName(gt.link) << "): predicted "
            << gt.predicted_cycles << " vs measured "
            << gt.measured_cycles;
        EXPECT_TRUE(gt.within_tolerance);
    }
}

// Delta shipping: devices still on the factory firmware ride the
// small delta stream, so the rollout's downlink total must shrink
// against the everyone-gets-the-full-bundle counterfactual — and the
// embedded ground-truth machines prove the delta cost model against
// a real delta LiveInstall, to the same tolerance as the full path.
TEST(FleetRollout, DeltaWavesShipFewerBytesAndStayGrounded)
{
    FleetConfig config;
    config.devices = 2'000;
    config.vendor.image_bytes = 16 << 10;
    config.ship_deltas = true;
    const exp::Runner runner = serialRunner();
    FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                       runner);
    const RolloutResult result = sim.run();

    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.delta_installs, 0u);
    EXPECT_LT(result.transport_bytes, result.transport_bytes_full)
        << "the delta stream saved nothing over full bundles";
    for (const WaveStats &wave : result.waves) {
        if (wave.delta_installs == 0)
            continue;
        EXPECT_LT(wave.transport_bytes, wave.transport_bytes_full)
            << "a delta-serving wave must carry fewer bytes";
    }

    ASSERT_EQ(result.ground_truth.size(), 3u);
    bool any_via_delta = false;
    for (const GroundTruthReport &gt : result.ground_truth) {
        EXPECT_TRUE(gt.functional_ok)
            << "device " << gt.device << " did not activate";
        EXPECT_TRUE(gt.within_tolerance)
            << "device " << gt.device << ": predicted "
            << gt.predicted_cycles << " vs measured "
            << gt.measured_cycles;
        any_via_delta |= gt.via_delta;
    }
    EXPECT_TRUE(any_via_delta)
        << "no ground-truth machine exercised the delta path";

    // The flag off reproduces the classic full-bundle rollout: no
    // delta traffic, and the same devices land on the release.
    FleetConfig classic = config;
    classic.ship_deltas = false;
    const RolloutResult full =
        FleetSimulator(classic, RolloutPolicy::canaryStaged(), runner)
            .run();
    EXPECT_EQ(full.delta_installs, 0u);
    EXPECT_EQ(full.transport_bytes, full.transport_bytes_full);
    EXPECT_TRUE(full.converged);
    EXPECT_EQ(full.updated, result.updated);
}

// Acceptance: a fault-heavy release must trip the automatic canary
// halt and the rollback wave must clear every device off the pulled
// release.
TEST(FleetRollout, FaultyReleaseHaltsCanaryAndRollsBack)
{
    const FleetScenario scenario = fleetScenarioFaulty();
    FleetConfig config;
    config.devices = 60'000;
    config.vendor.image_bytes = 16 << 10;
    config.dist = scenario.dist;
    const exp::Runner runner = threadedRunner(4);
    FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                       runner);
    const RolloutResult result = sim.run(
        scenario.defective_variant, scenario.defect_rate);

    // The canary wave itself must have tripped the halt...
    ASSERT_GE(result.waves.size(), 2u);
    EXPECT_TRUE(result.waves.front().halted_after);
    EXPECT_GE(result.waves.front().failure_rate,
              RolloutPolicy::canaryStaged().failure_threshold);
    EXPECT_EQ(result.halts, 1u);

    // ...the rollout must never have expanded past it...
    EXPECT_EQ(result.waves.size(), 2u);
    const WaveStats &rollback = result.waves.back();
    EXPECT_EQ(rollback.kind, "rollback");
    EXPECT_EQ(result.rollback_waves, 1u);
    // ...and the rollback wave re-targets exactly the devices the
    // pulled release reached.
    EXPECT_EQ(rollback.offered, result.waves.front().offered);
    EXPECT_EQ(rollback.failed, 0u);

    // Nobody is left on the pulled release (version 2), and the
    // rollback counter marched forward (version 3, counter 3 — not
    // a re-offer of version 1).
    EXPECT_EQ(result.final_version_counts.count(2), 0u);
    EXPECT_EQ(result.final_version_counts.at(3),
              rollback.offered);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(sim.vendor().release(3).rollback_counter, 3u);
    EXPECT_EQ(sim.vendor().release(3).rollback_of, 2u);
    EXPECT_EQ(sim.vendor().release(3).payload_version, 1u);
}

TEST(FleetRollout, BitIdenticalAcrossThreadCountsAndRuns)
{
    const auto rollout = [](unsigned threads) {
        FleetConfig config;
        config.devices = 20'000;
        config.vendor.image_bytes = 16 << 10;
        const exp::Runner runner = threadedRunner(threads);
        FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                           runner);
        const RolloutResult result = sim.run();
        return std::make_pair(result.toJson().dump(2),
                              sim.vendor().ledger());
    };

    const auto serial = rollout(1);
    const auto threaded = rollout(4);
    const auto repeat = rollout(4);

    // Same seed, any thread count, any run: byte-identical report.
    EXPECT_EQ(serial.first, threaded.first);
    EXPECT_EQ(threaded.first, repeat.first);

    // The install-history ledger is part of the guarantee too.
    ASSERT_EQ(serial.second.size(), threaded.second.size());
    for (size_t i = 0; i < serial.second.size(); ++i) {
        const LedgerRecord &a = serial.second[i];
        const LedgerRecord &b = threaded.second[i];
        EXPECT_EQ(a.device, b.device);
        EXPECT_EQ(a.release_version, b.release_version);
        EXPECT_EQ(a.wave, b.wave);
        EXPECT_EQ(a.outcome, b.outcome);
        EXPECT_EQ(a.power_cut_retries, b.power_cut_retries);
        EXPECT_EQ(a.completed_cycle, b.completed_cycle);
    }
}

namespace
{

std::string
sha256Hex(const std::vector<uint8_t> &bytes)
{
    const auto digest =
        crypto::Sha256::digest(bytes.data(), bytes.size());
    return util::toHex(digest.data(), digest.size());
}

/** The ledger's fields, little-endian and in declaration order —
 *  never the struct's bytes, whose padding is unspecified. */
std::vector<uint8_t>
ledgerBytes(const std::vector<LedgerRecord> &ledger)
{
    std::vector<uint8_t> out;
    const auto put = [&out](uint64_t value, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i)
            out.push_back(static_cast<uint8_t>(value >> (8 * i)));
    };
    for (const LedgerRecord &r : ledger) {
        put(r.device, 4);
        put(r.release_version, 4);
        put(r.wave, 2);
        put(static_cast<uint8_t>(r.outcome), 1);
        put(r.power_cut_retries, 1);
        put(r.completed_cycle, 8);
    }
    return out;
}

} // namespace

// The thread-count test above compares runs of one build; these
// digests pin the report and the install ledger themselves, so a
// change to how waves are sharded, merged or stored cannot move a
// single device's outcome unseen.
TEST(FleetRollout, ResultAndLedgerArePinned)
{
    struct Case
    {
        FleetScenario scenario;
        bool ship_deltas;
        const char *json_sha256;
        const char *ledger_sha256;
    };
    const Case cases[] = {
        {fleetScenarioHealthy(), true,
         "34c984ebd78dfdfce030ef9eb0df2fc449b1aaefb92ebc80f7cd8ebac01ef6a4",
         "b226a6715e1bbe10fc170be2ba78cb0ef5343db142861faaf662b65537476b6e"},
        {fleetScenarioFaulty(), false,
         "c5dd03b451370f867588ec4c956ad6f74c5191bc1e423ba169b69e258a77bc8a",
         "7dda1fe1e548d3b74678bc3065985ae60b30b9c5aecd6b3c9412dc83af71ed16"},
    };
    for (const Case &c : cases) {
        for (const unsigned threads : {1u, 4u}) {
            FleetConfig config;
            config.devices = 20'000;
            config.vendor.image_bytes = 16 << 10;
            config.dist = c.scenario.dist;
            config.ship_deltas = c.ship_deltas;
            const exp::Runner runner = threadedRunner(threads);
            FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                               runner);
            const RolloutResult result =
                sim.run(c.scenario.defective_variant,
                        c.scenario.defect_rate);
            const std::string json = result.toJson().dump();
            EXPECT_EQ(sha256Hex({json.begin(), json.end()}),
                      c.json_sha256)
                << c.scenario.name << " at " << threads << " threads";
            EXPECT_EQ(sha256Hex(ledgerBytes(sim.vendor().ledger())),
                      c.ledger_sha256)
                << c.scenario.name << " at " << threads << " threads";
        }
    }
}

// Acceptance: a million-device staged rollout completes on one
// machine through the sharded Runner.
TEST(FleetRollout, MillionDeviceRolloutConverges)
{
    FleetConfig config;
    config.devices = 1'000'000;
    config.vendor.image_bytes = 32 << 10;
    const exp::Runner runner = threadedRunner(4);
    FleetSimulator sim(config, RolloutPolicy::canaryStaged(),
                       runner);
    const RolloutResult result = sim.run();

    EXPECT_EQ(result.devices, 1'000'000u);
    EXPECT_EQ(result.eligible + result.skipped_no_quirk,
              result.devices);
    // ~3% of the population is past the vendor's quirk table.
    EXPECT_GT(result.skipped_no_quirk, 0u);

    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.updated, result.eligible);
    EXPECT_EQ(result.failed_health, 0u);
    EXPECT_EQ(result.halts, 0u);
    // 0.5% canary at x4 growth needs at least 5 waves to cover the
    // fleet.
    EXPECT_GE(result.waves.size(), 5u);
    EXPECT_EQ(result.device_hours.totalSamples(), result.updated);
    EXPECT_GT(result.device_hours.percentile(0.99), 0.0);
    EXPECT_EQ(
        result.final_version_counts.at(2) +
            result.final_version_counts.at(1),
        result.devices);
    EXPECT_EQ(sim.vendor().ledger().size(), result.eligible);
}
