/**
 * @file
 * Observability-plane tests.
 *
 * The load-bearing property is *non-perturbation*: attaching a
 * TraceSink must not change a single architectural or timing bit of
 * the simulation, and two traced runs of the same seed must export
 * byte-identical Chrome JSON. On the metrics side, snapshot/delta
 * must implement exact counter-window arithmetic (counters subtract
 * the base, gauges pass through) since System::stats() now rides on
 * it.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "crypto/latency.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "ota/transport.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "update/device_rig.hh"
#include "util/json.hh"
#include "util/stats.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

// ----------------------------------------------------------- metrics

TEST(Metrics, SnapshotDeltaCountersSubtractGaugesPass)
{
    uint64_t count = 100;
    double level = 1.5;

    obs::MetricsRegistry registry;
    registry.counterFn("a.count", [&] { return count; });
    registry.gaugeFn("a.level", [&] { return level; });

    const obs::MetricsSnapshot base = registry.snapshot();
    count = 175;
    level = 9.25;
    const obs::MetricsSnapshot now = registry.snapshot();
    const obs::MetricsSnapshot window = now.delta(base);

    EXPECT_EQ(window.u64("a.count"), 75u);
    EXPECT_DOUBLE_EQ(window.value("a.level"), 9.25);

    // Absolute values survive a delta against the empty default
    // snapshot (the pre-beginMeasurement semantics).
    const obs::MetricsSnapshot absolute =
        now.delta(obs::MetricsSnapshot());
    EXPECT_EQ(absolute.u64("a.count"), 175u);
    EXPECT_DOUBLE_EQ(absolute.value("a.level"), 9.25);
}

TEST(Metrics, SnapshotLookupAndJson)
{
    util::Counter hits;
    ++hits;
    ++hits;

    obs::MetricsRegistry registry;
    registry.counter("cache.hits", &hits);
    registry.counterFn("cache.misses", [] { return uint64_t{7}; });

    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.entries().size(), 2u);
    EXPECT_EQ(snap.u64("cache.hits"), 2u);
    EXPECT_EQ(snap.find("cache.nope"), nullptr);

    // Entries are name-sorted and the JSON form is one flat object.
    EXPECT_EQ(snap.entries()[0].name, "cache.hits");
    const util::Json doc = snap.toJson();
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("cache.hits").asU64(), 2u);
    EXPECT_EQ(doc.at("cache.misses").asU64(), 7u);

    // The dumpStats text form: one sorted "name value" line each,
    // whatever the registration order.
    util::Counter l2_hits;
    l2_hits += 10;
    registry.counter("l2.hits", &l2_hits);
    registry.counterFn("a.first", [] { return uint64_t{1}; });
    std::ostringstream os;
    registry.snapshot().dump(os);
    EXPECT_EQ(os.str(),
              "a.first 1\ncache.hits 2\ncache.misses 7\nl2.hits 10\n");
}

TEST(Metrics, AccumulatorAndHistogramExpand)
{
    util::Accumulator acc;
    acc.sample(10.0);
    acc.sample(20.0);
    util::Histogram hist(1.0, 4);
    hist.sample(0.5);

    obs::MetricsRegistry registry;
    registry.accumulator("wait", &acc);
    registry.histogram("lat", &hist);

    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.u64("wait.count"), 2u);
    EXPECT_DOUBLE_EQ(snap.value("wait.mean"), 15.0);
    EXPECT_EQ(snap.u64("lat.samples"), 1u);
    EXPECT_NE(snap.find("lat.p50"), nullptr);
    EXPECT_NE(snap.find("lat.p90"), nullptr);
    EXPECT_NE(snap.find("lat.p99"), nullptr);
}

TEST(Histogram, PercentileEdges)
{
    util::Histogram empty(1.0, 4);
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

    util::Histogram hist(1.0, 4);
    hist.sample(0.5); // bucket [0,1)
    hist.sample(2.5); // bucket [2,3)
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 1.0); // rank clamps to 1
    EXPECT_DOUBLE_EQ(hist.percentile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(hist.percentile(1.0), 3.0);

    // Overflow samples report the histogram's upper bound.
    hist.sample(100.0);
    EXPECT_DOUBLE_EQ(hist.percentile(1.0), 4.0);
}

// ------------------------------------------------------------- trace

TEST(Trace, ChromeJsonShape)
{
    obs::TraceSink sink;
    const obs::TrackId ch = sink.track("channel.core");
    const obs::TrackId ota = sink.track("ota");
    sink.duration(ch, "read.data", 100, 260, {{"wait", 60}});
    sink.instant(ota, "chunk", 300, {{"offset", 1024}});
    EXPECT_EQ(sink.trackCount(), 2u);
    EXPECT_EQ(sink.eventCount(), 2u);

    // The export must survive a parse round trip and carry the
    // Chrome trace-event fields Perfetto keys on.
    const std::string text = sink.toChromeJson().dump(2);
    const std::optional<util::Json> parsed = util::Json::parse(text);
    ASSERT_TRUE(parsed.has_value());
    const util::Json &events = parsed->at("traceEvents");
    ASSERT_TRUE(events.isArray());

    size_t meta = 0, durations = 0, instants = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const util::Json &event = events[i];
        const std::string &ph = event.at("ph").str();
        EXPECT_NE(event.find("pid"), nullptr);
        if (ph == "M") {
            ++meta;
        } else if (ph == "X") {
            ++durations;
            EXPECT_EQ(event.at("ts").asU64(), 100u);
            EXPECT_EQ(event.at("dur").asU64(), 160u);
            EXPECT_EQ(event.at("args").at("wait").asU64(), 60u);
        } else if (ph == "i") {
            ++instants;
            EXPECT_EQ(event.at("ts").asU64(), 300u);
        }
    }
    // Process name + one thread name per track, then the events.
    EXPECT_EQ(meta, 3u);
    EXPECT_EQ(durations, 1u);
    EXPECT_EQ(instants, 1u);
}

// ------------------------------------- non-perturbation differential

constexpr uint64_t kImageBytes = 32ull << 10;

/** Everything a traced run could possibly have perturbed. */
struct MiniRunResult
{
    sim::RunStats stats;
    uint64_t finish_cycle = 0;
    uint64_t bg_grants = 0;
    uint64_t bg_forced = 0;
    uint64_t agent_bytes = 0;
    bool install_done = false;
    std::vector<uint8_t> slot_bytes;
    std::string trace_json; ///< "" when untraced
};

/**
 * One deterministic arbiter-paced live install (lossy OTA transport,
 * gcc foreground) with tracing on or off.
 */
MiniRunResult
runMiniInstall(bool traced)
{
    FirmwareVendor vendor(0x0B5'0001);
    const sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::SyntheticWorkload workload(sim::benchmarkProfile("gcc"),
                                    config.l2.line_size);
    sim::System system(config, workload);

    LiveInstallConfig live_config;
    live_config.line_bytes = config.l2.line_size;
    live_config.pacing = InstallPacing::Arbiter;
    live_config.transport.chunk_bytes = 1024;
    live_config.transport.cycles_per_chunk = 128;
    live_config.transport.loss_rate = 0.05;
    live_config.transport.burst_length = 2.0;
    live_config.transport.retransmit_delay = 4096;
    live_config.transport.seed = 0x0F0A;
    DeviceRig device(vendor.builder.publicKey(), vendor.processor,
                     system, live_config,
                     StagingConfig{0x4000'0000, 1ull << 20});
    LiveInstall &live = device.live();

    obs::TraceSink trace;
    if (traced)
        system.setTraceSink(&trace);

    const UpdateBundle bundle = vendor.release(1, kImageBytes);
    system.beginMeasurement();
    live.start(bundle, 0);
    device.runToCompletion();

    MiniRunResult result;
    result.stats = system.stats();
    result.finish_cycle = system.core().cycles();
    result.bg_grants = system.channel().backgroundGrants();
    result.bg_forced = system.channel().backgroundForcedGrants();
    result.agent_bytes = system.channel().agentBytes(live.agent());
    result.install_done = live.phase() == LiveInstallPhase::Done;
    if (result.install_done)
        result.slot_bytes = device.activeSlotBytes();
    if (traced)
        result.trace_json = trace.toChromeJson().dump();
    return result;
}

TEST(Trace, TracedRunIsBitIdenticalToUntraced)
{
    const MiniRunResult traced = runMiniInstall(true);
    const MiniRunResult plain = runMiniInstall(false);

    ASSERT_TRUE(traced.install_done);
    ASSERT_TRUE(plain.install_done);
    EXPECT_EQ(traced.finish_cycle, plain.finish_cycle);
    EXPECT_EQ(traced.bg_grants, plain.bg_grants);
    EXPECT_EQ(traced.bg_forced, plain.bg_forced);
    EXPECT_EQ(traced.agent_bytes, plain.agent_bytes);
    EXPECT_EQ(traced.slot_bytes, plain.slot_bytes);

    EXPECT_EQ(traced.stats.instructions, plain.stats.instructions);
    EXPECT_EQ(traced.stats.cycles, plain.stats.cycles);
    EXPECT_EQ(traced.stats.l2_misses, plain.stats.l2_misses);
    EXPECT_EQ(traced.stats.l2_accesses, plain.stats.l2_accesses);
    EXPECT_EQ(traced.stats.data_bytes, plain.stats.data_bytes);
    EXPECT_EQ(traced.stats.seqnum_bytes, plain.stats.seqnum_bytes);
    EXPECT_EQ(traced.stats.fast_fills, plain.stats.fast_fills);
    EXPECT_EQ(traced.stats.slow_fills, plain.stats.slow_fills);
    EXPECT_EQ(traced.stats.snc_query_misses,
              plain.stats.snc_query_misses);

    // The traced run did actually record the unified plane.
    EXPECT_FALSE(traced.trace_json.empty());
}

TEST(Trace, TwoTracedRunsExportByteIdentically)
{
    const MiniRunResult first = runMiniInstall(true);
    const MiniRunResult second = runMiniInstall(true);
    ASSERT_FALSE(first.trace_json.empty());
    EXPECT_EQ(first.trace_json, second.trace_json);
}

TEST(Trace, ForegroundOnlyRunUnperturbed)
{
    auto run = [](bool traced) {
        const sim::SystemConfig config =
            sim::paperConfig(secure::SecurityModel::OtpSnc);
        sim::SyntheticWorkload workload(sim::benchmarkProfile("mcf"),
                                        config.l2.line_size);
        sim::System system(config, workload);
        obs::TraceSink trace;
        if (traced)
            system.setTraceSink(&trace);
        system.run(20'000);
        system.beginMeasurement();
        system.run(50'000);
        return system.stats();
    };
    const sim::RunStats traced = run(true);
    const sim::RunStats plain = run(false);
    EXPECT_EQ(traced.cycles, plain.cycles);
    EXPECT_EQ(traced.instructions, plain.instructions);
    EXPECT_EQ(traced.l2_misses, plain.l2_misses);
    EXPECT_EQ(traced.data_bytes, plain.data_bytes);
    EXPECT_EQ(traced.seqnum_bytes, plain.seqnum_bytes);
}

// --------------------------------------------- System-level registry

TEST(Metrics, SystemStatsMatchRegistrySnapshot)
{
    const sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::SyntheticWorkload workload(sim::benchmarkProfile("gcc"),
                                    config.l2.line_size);
    sim::System system(config, workload);
    system.run(20'000);
    system.beginMeasurement();
    const obs::MetricsSnapshot base = system.metrics().snapshot();
    system.run(50'000);

    const sim::RunStats stats = system.stats();
    const obs::MetricsSnapshot window =
        system.metrics().snapshot().delta(base);
    EXPECT_EQ(stats.cycles, window.u64("core.cycles"));
    EXPECT_EQ(stats.instructions, window.u64("core.instructions"));
    EXPECT_EQ(stats.l2_misses, window.u64("l2.misses"));
    EXPECT_EQ(stats.l2_accesses, window.u64("l2.accesses"));
    EXPECT_EQ(stats.data_bytes, window.u64("channel.data_bytes"));
    EXPECT_EQ(stats.seqnum_bytes, window.u64("channel.seqnum_bytes"));
}

/** Sorted names of every metric in @p snap that starts with @p prefix. */
std::vector<std::string>
namesUnder(const obs::MetricsSnapshot &snap, const std::string &prefix)
{
    std::vector<std::string> names;
    for (const auto &entry : snap.entries()) {
        if (entry.name.starts_with(prefix))
            names.push_back(entry.name);
    }
    return names;
}

TEST(Metrics, ComponentNameSurfaceIsPinned)
{
    // hostbench's layer ledger and RunStats read these names; a
    // renamed counter would otherwise read as 0 there, silently.
    using Names = std::vector<std::string>;
    const Names l1 = {"dirty_evictions", "evictions", "hits", "misses",
                      "rejected_fills"};
    const Names engine_base = {"fast_fills", "plain_fills",
                               "slow_fills"};
    const Names otp_snc = {
        "direct_fallback_fills", "fast_fills", "pad_prediction_hits",
        "pad_predictions", "plain_fills", "query_hits",
        "query_miss_fills", "query_misses", "rejected_installs",
        "seqnum_overflows", "slow_fills", "spills", "update_hits",
        "update_misses"};
    const auto prefixed = [](const std::string &prefix, Names names) {
        for (std::string &name : names)
            name = prefix + name;
        return names;
    };
    Names l2 = prefixed("l2.", l1);
    l2.insert(l2.begin(), "l2.accesses");
    const Names core = {"core.branches", "core.cycles",
                        "core.instructions", "core.loads",
                        "core.mispredicts", "core.stores"};
    const Names dram = {"channel.dram.row_conflicts",
                        "channel.dram.row_hits",
                        "channel.dram.row_misses"};

    const struct
    {
        secure::SecurityModel model;
        std::string engine;
        Names engine_names;
    } cases[] = {
        {secure::SecurityModel::Baseline, "baseline", engine_base},
        {secure::SecurityModel::Xom, "xom", engine_base},
        {secure::SecurityModel::OtpSnc, "otp-snc", otp_snc},
    };
    for (const auto &c : cases) {
        for (const bool use_dram : {false, true}) {
            SCOPED_TRACE(c.engine + (use_dram ? " +dram" : ""));
            sim::SystemConfig config = sim::paperConfig(c.model);
            config.channel.use_dram = use_dram;
            sim::SyntheticWorkload workload(sim::benchmarkProfile("gcc"),
                                            config.l2.line_size);
            sim::System system(config, workload);
            system.run(2'000);
            const obs::MetricsSnapshot snap = system.metrics().snapshot();

            EXPECT_EQ(namesUnder(snap, "l1i."), prefixed("l1i.", l1));
            EXPECT_EQ(namesUnder(snap, "l1d."), prefixed("l1d.", l1));
            EXPECT_EQ(namesUnder(snap, "l2."), l2);
            EXPECT_EQ(namesUnder(snap, "core."), core);
            EXPECT_EQ(namesUnder(snap, c.engine + "."),
                      prefixed(c.engine + ".", c.engine_names));
            EXPECT_EQ(namesUnder(snap, "channel.dram."),
                      use_dram ? dram : Names{});
        }
    }
}

} // namespace
