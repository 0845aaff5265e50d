/**
 * @file
 * Ablation A6: true multi-programmed context switching (paper
 * Section 4.3).
 *
 * Two SPEC-like tasks share one secure processor, round-robin at a
 * configurable quantum. Compares the two SNC protection policies the
 * paper sketches: compartment-ID tagging (entries survive switches)
 * versus flush-and-spill (every switch encrypts and writes back the
 * whole SNC, and the next quantum re-fetches on demand). The
 * single-program ablation_context_switch isolates the flush cost;
 * this bench adds the real cross-task cache and SNC interference.
 * Grid rows are task mixes ("gcc+mcf"); the flush variants report
 * their penalty over the tag variant at the same quantum, and spills
 * per switch land in the JSON extras.
 */

#include <iostream>

#include "exp/cli.hh"
#include "sim/multitask.hh"
#include "sim/profiles.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

using namespace secproc;

namespace
{

constexpr uint64_t kTaskStride = 1ull << 40;

/** Run a "a+b" mix under one policy and quantum. */
exp::CellOutput
runMix(const std::string &mix, sim::SncSwitchPolicy policy,
       uint64_t quantum, const exp::RunOptions &options)
{
    const std::vector<std::string> names = util::split(mix, '+');
    fatal_if(names.size() != 2, "mix '", mix, "' is not 'a+b'");

    sim::WorkloadProfile profile_a = sim::benchmarkProfile(names[0]);
    sim::WorkloadProfile profile_b = sim::benchmarkProfile(names[1]);
    profile_b.va_offset = kTaskStride;

    const auto config = sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::SyntheticWorkload a(profile_a, config.l2.line_size);
    sim::SyntheticWorkload b(profile_b, config.l2.line_size);

    sim::MultiTaskConfig mt;
    mt.quantum = quantum;
    mt.policy = policy;
    sim::MultiTaskSystem multi(config, {{&a, 1}, {&b, 2}}, mt);
    const uint64_t total =
        options.warmup_instructions + options.measure_instructions;
    multi.run(total);

    exp::CellOutput output;
    output.stats = multi.system().stats();
    const uint64_t switches = total / quantum;
    if (policy == sim::SncSwitchPolicy::Flush && switches > 0) {
        output.extras.emplace_back(
            "spills_per_switch",
            static_cast<double>(multi.system().switchFlushSpills()) /
                static_cast<double>(switches));
    }
    return output;
}

} // namespace

int
main(int argc, char **argv)
{
    const exp::BenchCli cli = exp::parseBenchCli(argc, argv);

    exp::ExperimentSpec spec;
    spec.name = "ablation_multitask";
    spec.title = "Ablation A6: multi-programmed SNC switch policies";
    spec.subtitle = "flush penalty % over the tag policy at the same "
                    "quantum; two tasks round-robin on one secure "
                    "processor";
    spec.benchmarks = {"gcc+mcf", "ammp+parser", "gzip+vortex"};
    spec.options = cli.options;

    for (const uint64_t quantum : {1'000'000ull, 250'000ull, 50'000ull}) {
        std::string at = "@";
        at += std::to_string(quantum);
        spec.addCustom("tag" + at,
                       [quantum](const std::string &mix,
                                 const exp::RunOptions &options) {
                           return runMix(mix,
                                         sim::SncSwitchPolicy::Tag,
                                         quantum, options);
                       });
        spec.addCustom("flush" + at,
                       [quantum](const std::string &mix,
                                 const exp::RunOptions &options) {
                           return runMix(mix,
                                         sim::SncSwitchPolicy::Flush,
                                         quantum, options);
                       })
            .baseline = "tag" + at;
    }

    const exp::Report report = exp::Runner(cli.runner).run(spec);
    report.printVariantRows(std::cout);
    if (cli.write_json)
        report.writeJson(cli.json_path);
    return 0;
}
