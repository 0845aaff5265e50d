/**
 * @file
 * Host-time benchmark for secproc: entry point and round timing.
 *
 *   hostbench --workload paper_grid|ota_live|fleet_rollout
 *             --seed N --seconds S --trace 0|1
 *             [--expected-dir DIR] [--spans-out PATH] [--commit REV]
 *             [--record]
 *
 * Untraced runs (--trace 0) repeat the workload's round until S host
 * seconds are spent and report the end-to-end metrics; the traced
 * run (--trace 1) reports the per-layer ledger. Every simulated
 * output is checked against expected/<workload>.json; --record
 * rewrites that file from one round of every input variant. The
 * last line of stdout is the JSON result.
 */

#include <cpuid.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "exp/cell_cache.hh"
#include "util/json.hh"
#include "workloads.hh"

using namespace secproc;

namespace hostbench
{

Outcome
drive(const Options &options, const RoundFn &round, const ProbeFn &probe)
{
    Outcome outcome;
    const uint32_t variant = variantOf(options.seed);
    SpanLog untraced(false);
    LayerValues unused;
    Tally tally;

    if (options.record) {
        for (uint32_t v = 0; v < kVariants; ++v)
            round(v, untraced, tally, unused);
    } else if (!options.trace) {
        // Rounds alternate with host-speed calibration; each round's
        // samples are rescaled by the mean of the slices around it.
        Calibrator calibrator;
        Tally calibrated;
        std::vector<double> slices;
        double before = calibrator.measure(0.02);
        const Clock::time_point start = Clock::now();
        do {
            const size_t ops = tally.op_ms.size();
            const size_t rates = tally.round_rate.size();
            const Clock::time_point round_start = Clock::now();
            round(variant, untraced, tally, unused);
            const double after = calibrator.measure(
                std::max(0.01, 0.1 * secondsSince(round_start)));
            const double slice = 0.5 * (before + after);
            const double scale = kNominalSliceS / slice;
            slices.push_back(slice);
            before = after;
            for (size_t i = ops; i < tally.op_ms.size(); ++i)
                calibrated.op_ms.push_back(tally.op_ms[i] * scale);
            for (size_t i = rates; i < tally.round_rate.size(); ++i)
                calibrated.round_rate.push_back(tally.round_rate[i] / scale);
        } while (secondsSince(start) < options.seconds);
        outcome.metrics = endToEnd(tally, calibrated);
        outcome.notes.push_back(
            "host: calibration slice median " +
            num(median(slices) * 1e3) + " ms (nominal " +
            num(kNominalSliceS * 1e3) + " ms) over " +
            std::to_string(slices.size()) + " rounds; uncalibrated "
            "work_per_s " + num(median(tally.round_rate)) +
            ", op_ms_p50 " + num(quantile(tally.op_ms, 0.5)) +
            ", op_ms_p90 " + num(quantile(tally.op_ms, 0.9)) + " over " +
            std::to_string(tally.op_ms.size()) + " operations");
    } else {
        // One warm-up round, then the same round untraced and traced:
        // the difference is the tracing overhead.
        round(variant, untraced, tally, unused);
        Clock::time_point start = Clock::now();
        round(variant, untraced, tally, unused);
        const double untraced_s = secondsSince(start);

        SpanLog log(true);
        LayerValues layers;
        const uint32_t root = log.open("round");
        round(variant, log, tally, layers);
        log.close(root);
        const double traced_s = log.duration(root);

        probe(variant, layers);
        layers["sim.run_s"] =
            log.total("sim.run") - layers["update.advance_s"];
        layers["unattributed_s"] = traced_s - log.childTotal(root);
        layers["trace.overhead_s"] = traced_s - untraced_s;
        layers["trace.spans"] = static_cast<double>(log.spans().size());
        deriveCacheShare(layers);
        for (const LayerMetric &metric : layerCatalogue())
            outcome.metrics.push_back(
                {metric.name, layers[metric.name], metric.unit});

        const std::string path =
            options.spans_out.empty()
                ? "spans-" + options.workload + ".json"
                : options.spans_out;
        if (!log.write(path, options)) {
            std::cerr << "hostbench: cannot write spans to '" << path
                      << "'\n";
            std::exit(2);
        }
        outcome.notes.push_back("spans: " +
                                std::to_string(log.spans().size()) +
                                " written to " + path);
    }

    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;
    outcome.correct = tally.attempted > 0 && tally.failed == 0;
    outcome.simulated_instructions = tally.instructions;
    return outcome;
}

namespace
{

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "hostbench: " << problem
              << "\nusage: hostbench --workload "
                 "paper_grid|ota_live|fleet_rollout --seed N "
                 "--seconds S --trace 0|1 [--expected-dir DIR] "
                 "[--spans-out PATH] [--commit REV] [--record]\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--record") {
            options.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                options.workload = value;
            else if (arg == "--seed")
                options.seed = std::stoull(value);
            else if (arg == "--seconds")
                options.seconds = std::stod(value);
            else if (arg == "--trace")
                options.trace = value == "1";
            else if (arg == "--expected-dir")
                options.expected_dir = value;
            else if (arg == "--spans-out")
                options.spans_out = value;
            else if (arg == "--commit")
                options.commit = value;
            else
                usage("unknown option " + arg);
        } catch (const std::exception &) {
            usage("bad value '" + value + "' for " + arg);
        }
    }
    if (options.workload.empty())
        usage("--workload is required");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    return options;
}

/** CPU brand string from CPUID (no file reads). */
std::string
cpuModel()
{
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x8000'0000u, nullptr);
    if (max_leaf < 0x8000'0004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i) {
        __get_cpuid(0x8000'0002u + i, &regs[i * 4], &regs[i * 4 + 1],
                    &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
}

} // namespace

} // namespace hostbench

int
main(int argc, char **argv)
{
    using namespace hostbench;
    const Options options = parseOptions(argc, argv);

    std::optional<Expected> loaded = Expected::load(options);
    if (!loaded.has_value())
        return 2;
    Expected &expected = *loaded;

    Outcome outcome;
    if (options.workload == "paper_grid")
        outcome = runPaperGrid(options, expected);
    else if (options.workload == "ota_live")
        outcome = runOtaLive(options, expected);
    else if (options.workload == "fleet_rollout")
        outcome = runFleetRollout(options, expected);
    else
        usage("unknown workload '" + options.workload + "'");

    if (options.record) {
        if (!outcome.correct || !expected.save(options)) {
            std::cerr << "hostbench: recording failed\n";
            return 2;
        }
        std::cout << "recorded " << outcome.attempted
                  << " operations over " << kVariants
                  << " variants for " << options.workload << "\n";
        return 0;
    }

    for (const std::string &note : outcome.notes)
        std::cout << note << "\n";

    // Provenance: the host the figures came from, and proof that
    // every counted instruction was simulated here (nothing came out
    // of the experiment API's cell cache).
    util::Json provenance = util::Json::object();
    provenance.set("cpu", cpuModel());
    provenance.set("nproc", static_cast<uint64_t>(
                                std::thread::hardware_concurrency()));
    provenance.set("threads", 1);
    provenance.set("compiler", HOSTBENCH_COMPILER);
    provenance.set("build_type", HOSTBENCH_BUILD_TYPE);
    provenance.set("commit", options.commit);
    provenance.set("workload", options.workload);
    provenance.set("seed", options.seed);
    provenance.set("variant", static_cast<uint64_t>(variantOf(options.seed)));
    provenance.set("simulated_instructions",
                   outcome.simulated_instructions);
    provenance.set("cache_served",
                   static_cast<uint64_t>(exp::cellCacheStats().hits +
                                         exp::cellCacheStats().entries));
    std::cout << "provenance " << provenance.dump() << "\n";

    const double error_rate =
        outcome.attempted == 0
            ? 1.0
            : static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted);
    std::cout << "error_rate " << error_rate << " (" << outcome.failed
              << " failed of " << outcome.attempted << " attempted)\n";
    for (const Metric &metric : outcome.metrics)
        std::cout << "metric " << metric.name << " = " << num(metric.value)
                  << " " << metric.unit << "\n";

    std::ostringstream result;
    result.precision(17);
    result << "{\"correct\": " << (outcome.correct ? "true" : "false")
           << ", \"attempted\": " << outcome.attempted
           << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    for (size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric &metric = outcome.metrics[i];
        result << (i == 0 ? "" : ", ") << "\"" << metric.name
               << "\": {\"value\": " << metric.value << ", \"unit\": \""
               << metric.unit << "\"}";
    }
    result << "}}";
    std::cout << result.str() << std::endl;
    return outcome.correct ? 0 : 1;
}
