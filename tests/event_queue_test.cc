/**
 * @file
 * Event-kernel scheduler unit tests: EventQueue ordering and
 * cancellation semantics, the arbiter's starvation-bound event
 * estimate, and System-level wakeup lifecycle (reset() drains the
 * heap).
 */

#include <gtest/gtest.h>

#include "mem/memory_channel.hh"
#include "sim/event_queue.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "update/install_timing.hh"

using namespace secproc;
using sim::EventQueue;
using sim::kNeverCycle;

TEST(EventQueueTest, PopsInCycleOrder)
{
    EventQueue queue;
    queue.schedule(30, 3);
    queue.schedule(10, 1);
    queue.schedule(20, 2);

    EXPECT_EQ(queue.nextCycle(), 10u);
    ASSERT_EQ(queue.armed(), 3u);

    const auto first = queue.popDue(100);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->cycle, 10u);
    EXPECT_EQ(first->tag, 1u);

    const auto second = queue.popDue(100);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->cycle, 20u);
    EXPECT_EQ(second->tag, 2u);

    const auto third = queue.popDue(100);
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->cycle, 30u);
    EXPECT_EQ(third->tag, 3u);

    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.nextCycle(), kNeverCycle);
}

TEST(EventQueueTest, EqualCyclesPopInArmingOrder)
{
    // The pump order at a shared boundary must be the arming
    // (attach) order, or the event kernel's channel interleaving
    // would diverge from the legacy every-step pump.
    EventQueue queue;
    for (uint64_t tag = 0; tag < 8; ++tag)
        queue.schedule(42, tag);
    for (uint64_t tag = 0; tag < 8; ++tag) {
        const auto wakeup = queue.popDue(42);
        ASSERT_TRUE(wakeup.has_value());
        EXPECT_EQ(wakeup->cycle, 42u);
        EXPECT_EQ(wakeup->tag, tag);
    }
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, PopDueRespectsNow)
{
    EventQueue queue;
    queue.schedule(50, 1);
    EXPECT_FALSE(queue.popDue(49).has_value());
    EXPECT_EQ(queue.armed(), 1u);
    const auto due = queue.popDue(50);
    ASSERT_TRUE(due.has_value());
    EXPECT_EQ(due->tag, 1u);
}

TEST(EventQueueTest, CancelledWakeupNeverSurfaces)
{
    EventQueue queue;
    const auto keep = queue.schedule(10, 1);
    const auto drop = queue.schedule(5, 2);
    (void)keep;

    EXPECT_TRUE(queue.cancel(drop));
    EXPECT_FALSE(queue.cancel(drop)) << "double cancel must report dead";
    EXPECT_EQ(queue.armed(), 1u);

    // The cancelled entry sat at the heap top; nextCycle must purge
    // it rather than report the dead 5.
    EXPECT_EQ(queue.nextCycle(), 10u);
    const auto wakeup = queue.popDue(100);
    ASSERT_TRUE(wakeup.has_value());
    EXPECT_EQ(wakeup->tag, 1u);
    EXPECT_FALSE(queue.popDue(100).has_value());
}

TEST(EventQueueTest, RearmMovesWakeup)
{
    EventQueue queue;
    auto token = queue.schedule(100, 7);
    token = queue.rearm(token, 20, 7);
    EXPECT_EQ(queue.armed(), 1u);
    EXPECT_EQ(queue.nextCycle(), 20u);

    const auto wakeup = queue.popDue(20);
    ASSERT_TRUE(wakeup.has_value());
    EXPECT_EQ(wakeup->cycle, 20u);
    EXPECT_EQ(wakeup->tag, 7u);
    EXPECT_FALSE(queue.cancel(token)) << "popped token is dead";
}

TEST(EventQueueTest, NeverCycleArmsButNeverSurfaces)
{
    EventQueue queue;
    const auto token = queue.schedule(kNeverCycle, 9);
    EXPECT_EQ(queue.nextCycle(), kNeverCycle);
    EXPECT_FALSE(queue.popDue(UINT64_MAX - 1).has_value());
    // The token is still live: a later rearm can make it real.
    const auto rearmed = queue.rearm(token, 3, 9);
    EXPECT_EQ(queue.nextCycle(), 3u);
    const auto wakeup = queue.popDue(3);
    ASSERT_TRUE(wakeup.has_value());
    EXPECT_EQ(wakeup->token, rearmed);
}

TEST(EventQueueTest, ClearDropsEverything)
{
    EventQueue queue;
    queue.schedule(1, 1);
    queue.schedule(2, 2);
    queue.clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.nextCycle(), kNeverCycle);
    EXPECT_FALSE(queue.popDue(UINT64_MAX - 1).has_value());
}

TEST(EventQueueTest, CancelReArmStress)
{
    // Deterministic churn: cancel every other wakeup, re-arm at a
    // shifted cycle, and verify the survivors pop in exactly
    // (cycle, arming) order.
    EventQueue queue;
    std::vector<EventQueue::Token> tokens;
    for (uint64_t i = 0; i < 64; ++i)
        tokens.push_back(queue.schedule(1000 - i, i));
    for (uint64_t i = 0; i < 64; i += 2)
        tokens[i] = queue.rearm(tokens[i], 2000 + i, i);
    EXPECT_EQ(queue.armed(), 64u);

    // Odd tags pop first (cycles 937..999 descending tag), then the
    // re-armed even tags in re-arm order.
    uint64_t last_cycle = 0;
    uint64_t popped = 0;
    while (const auto wakeup = queue.popDue(UINT64_MAX - 1)) {
        EXPECT_GE(wakeup->cycle, last_cycle);
        last_cycle = wakeup->cycle;
        ++popped;
    }
    EXPECT_EQ(popped, 64u);
}

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

/** System::reset() must drain the event kernel's pending wakeups. */
TEST(SystemWakeupTest, ResetDrainsPendingWakeups)
{
    sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::WorkloadProfile profile = sim::benchmarkProfile("gcc");
    sim::SyntheticWorkload workload(profile, config.l2.line_size);
    sim::System system(config, workload);
    system.setKernelMode(sim::KernelMode::Event);

    update::InstallTiming timing(system.channel(), system.cryptoEngine(),
                                 config.l2.line_size,
                                 update::InstallPacing::Arbiter);
    timing.start(update::InstallPlan::fromImageBytes(
                     256 << 10, config.l2.line_size),
                 0, /*repeat=*/true);
    system.attachAgent(&timing);

    system.run(20'000);
    EXPECT_GT(system.pendingWakeups(), 0u)
        << "a repeating install must keep a wakeup armed";

    system.reset();
    EXPECT_EQ(system.pendingWakeups(), 0u)
        << "reset() must drain the wakeup heap";

    // The machine keeps running after the reset (fresh wakeups are
    // armed by the next run()).
    system.run(20'000);
    SUCCEED();
}
