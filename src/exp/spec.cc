/**
 * @file
 * ExperimentSpec helpers and the standard cell body.
 */

#include "exp/spec.hh"

#include <cstdlib>

#include "sim/profiles.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace secproc::exp
{

namespace
{

uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr)
        return fallback;
    return util::parseU64(value, name);
}

} // namespace

RunOptions
RunOptions::fromEnvironment()
{
    RunOptions options;
    options.warmup_instructions =
        envU64("SECPROC_WARMUP", options.warmup_instructions);
    options.measure_instructions =
        envU64("SECPROC_MEASURE", options.measure_instructions);
    return options;
}

const std::vector<std::string> &
ExperimentSpec::benchmarkList() const
{
    return benchmarks.empty() ? sim::benchmarkNames() : benchmarks;
}

ConfigVariant &
ExperimentSpec::add(std::string label, ConfigFn config, PaperFn paper)
{
    ConfigVariant variant;
    variant.label = std::move(label);
    variant.config = std::move(config);
    variant.paper = std::move(paper);
    variants.push_back(std::move(variant));
    return variants.back();
}

ConfigVariant &
ExperimentSpec::addCustom(std::string label, RunFn run, PaperFn paper)
{
    ConfigVariant variant;
    variant.label = std::move(label);
    variant.run = std::move(run);
    variant.paper = std::move(paper);
    variants.push_back(std::move(variant));
    return variants.back();
}

ConfigVariant &
ExperimentSpec::addBaseline(std::string label, ConfigFn config)
{
    baseline_label = label;
    return add(std::move(label), std::move(config));
}

sim::RunStats
runCell(const std::string &bench, const sim::SystemConfig &config,
        const RunOptions &options)
{
    sim::SyntheticWorkload workload(sim::benchmarkProfile(bench),
                                    config.l2.line_size);
    sim::System system(config, workload);
    system.run(options.warmup_instructions);
    system.beginMeasurement();
    system.run(options.measure_instructions);
    return system.stats();
}

double
slowdownPct(uint64_t base_cycles, uint64_t model_cycles)
{
    if (base_cycles == 0)
        return 0.0;
    return (static_cast<double>(model_cycles) /
                static_cast<double>(base_cycles) -
            1.0) *
           100.0;
}

} // namespace secproc::exp
