/**
 * @file
 * Simulation-kernel tests: the arbiter's starvation-bound event
 * estimate, and the event kernel's bit-identity with the legacy
 * every-step pump (the differential oracle) across a machine reset.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "mem/memory_channel.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "update/install_timing.hh"

using namespace secproc;

/**
 * The arbiter's event estimate: with the bus saturated by foreground
 * reads, a queued background transaction's only threshold is the
 * starvation bound — nextArbiterEventCycle() must report exactly
 * request_cycle + bg_starvation_bound, polls before that cycle must
 * not grant, and the poll at that cycle must (as a forced grant).
 */
TEST(ArbiterEventTest, StarvationBoundFiresExactly)
{
    mem::ChannelConfig config;
    config.access_latency = 100;
    config.transfer_cycles = 16;
    config.bg_starvation_bound = 512;
    mem::MemoryChannel channel(config);
    const mem::AgentId agent = channel.registerAgent("bg");

    // Saturate the bus far past the horizon of interest so no idle
    // gap ever fits the background transfer.
    for (int i = 0; i < 200; ++i)
        channel.scheduleRead(0, mem::Traffic::DataFill);

    const uint64_t request = 100;
    ASSERT_GT(channel.busyUntil(), request +
                                       config.bg_starvation_bound +
                                       config.transfer_cycles);
    channel.requestBackground(request, mem::Traffic::UpdateFill,
                              /*write=*/false, /*small=*/false, 0,
                              agent);
    const uint64_t deadline = request + config.bg_starvation_bound;
    EXPECT_EQ(channel.nextArbiterEventCycle(), deadline);

    EXPECT_FALSE(channel.pollBackground(agent, deadline - 1).has_value())
        << "granted before the starvation bound expired";
    EXPECT_EQ(channel.backgroundForcedGrants(), 0u);

    const auto done = channel.pollBackground(agent, deadline);
    ASSERT_TRUE(done.has_value())
        << "starvation-bound grant did not fire at the deadline";
    EXPECT_EQ(channel.backgroundForcedGrants(), 1u);
    EXPECT_GE(*done, deadline);
}

namespace
{

/**
 * Run gcc on the paper machine under @p mode with a repeating
 * arbiter-paced install attached: 20k instructions, a reset that
 * abandons the install mid-flight, the install offered again, then
 * 20k more. @return the dumpStats text and completed installs.
 */
std::pair<std::string, uint64_t>
runAcrossReset(sim::KernelMode mode)
{
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::WorkloadProfile profile = sim::benchmarkProfile("gcc");
    sim::SyntheticWorkload workload(profile, config.l2.line_size);
    sim::System system(config, workload);
    system.setKernelMode(mode);

    update::InstallTiming timing(system.channel(), system.cryptoEngine(),
                                 config.l2.line_size,
                                 update::InstallPacing::Arbiter);
    const update::InstallPlan plan = update::InstallPlan::fromImageBytes(
        16 << 10, config.l2.line_size);
    timing.start(plan, 0, /*repeat=*/true);
    system.attachAgent(&timing);

    system.run(20'000);
    const uint64_t before_reset = system.core().cycles();
    system.reset();
    timing.start(plan, before_reset, /*repeat=*/true);
    system.run(20'000);
    EXPECT_GT(system.core().cycles(), before_reset)
        << "the machine must run on after reset()";

    std::ostringstream stats;
    system.dumpStats(stats);
    return {stats.str(), timing.installsCompleted()};
}

} // namespace

/**
 * The event kernel pumps agents only at the earliest wakeup; the
 * legacy kernel pumps after every core step. Across a mid-install
 * reset (which abandons in-flight work the wakeups were computed
 * from) both must leave the machine in the same state.
 */
TEST(SystemWakeupTest, EventKernelMatchesLegacyAcrossReset)
{
    const auto event = runAcrossReset(sim::KernelMode::Event);
    const auto legacy = runAcrossReset(sim::KernelMode::Legacy);
    EXPECT_EQ(event.first, legacy.first);
    EXPECT_EQ(event.second, legacy.second);
    EXPECT_GT(event.second, 0u) << "the install must complete";
}
