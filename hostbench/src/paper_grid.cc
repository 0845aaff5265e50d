/**
 * @file
 * paper_grid: every SPEC2000 profile on the paper's four machines
 * (baseline, XOM, OTP+SNC-LRU 64 KB fully associative, OTP+SNC with
 * no replacement), timing-only, each cell on a fresh System. This is
 * the figure-reproduction path: host time goes to the core, workload
 * generation, caches, SNC, TLB and channel timing; update, OTA, real
 * crypto and fleet code stay idle. Cache-resident profiles (gzip,
 * mesa) sit beside miss-heavy ones (mcf, art, ammp), so a cache or
 * SNC change shows on some cells and not on others.
 */

#include <algorithm>
#include <memory>

#include "sim/profiles.hh"
#include "sim/system.hh"
#include "util/random.hh"
#include "workloads.hh"

using namespace secproc;

namespace hostbench
{

namespace
{

/** Instructions per cell: warm-up, then the measured window. */
constexpr uint64_t kWarmup = 100'000;
constexpr uint64_t kMeasure = 300'000;

struct Machine
{
    const char *label;
    sim::SystemConfig config;
};

std::vector<Machine>
machines()
{
    sim::SystemConfig norepl =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    norepl.protection.snc.allow_replacement = false;
    return {
        {"base", sim::paperConfig(secure::SecurityModel::Baseline)},
        {"xom", sim::paperConfig(secure::SecurityModel::Xom)},
        {"otp-lru", sim::paperConfig(secure::SecurityModel::OtpSnc)},
        {"otp-norepl", norepl},
    };
}

std::string
signature(const sim::RunStats &s)
{
    return "instr=" + std::to_string(s.instructions) +
           " cycles=" + std::to_string(s.cycles) +
           " l2a=" + std::to_string(s.l2_accesses) +
           " l2m=" + std::to_string(s.l2_misses) +
           " data=" + std::to_string(s.data_bytes) +
           " seq=" + std::to_string(s.seqnum_bytes) +
           " fast=" + std::to_string(s.fast_fills) +
           " slow=" + std::to_string(s.slow_fills) +
           " sncqm=" + std::to_string(s.snc_query_misses);
}

} // namespace

sim::WorkloadProfile
variantProfile(const std::string &bench, uint32_t variant)
{
    sim::WorkloadProfile profile = sim::benchmarkProfile(bench);
    profile.rng_seed += 0x9E37'79B9'7F4A'7C15ull * variant;
    return profile;
}

Outcome
runPaperGrid(const Options &options, Expected &expected)
{
    struct Cell
    {
        std::string bench;
        size_t machine;
    };
    const std::vector<Machine> grid = machines();
    std::vector<Cell> cells;
    for (const std::string &bench : sim::benchmarkNames()) {
        for (size_t m = 0; m < grid.size(); ++m)
            cells.push_back({bench, m});
    }
    // The seed also fixes the order cells run in.
    util::Rng order(options.seed);
    for (size_t i = cells.size(); i > 1; --i)
        std::swap(cells[i - 1], cells[order.nextRange(i)]);

    const RoundFn round = [&](uint32_t variant, SpanLog &log,
                              Tally &tally, LayerValues &layers) {
        double setup_s = 0.0, busy_s = 0.0;
        for (size_t i = 0; i < cells.size(); ++i) {
            const Cell &cell = cells[i];
            const Machine &machine = grid[cell.machine];
            log.setRun(static_cast<uint32_t>(i + 1));

            Clock::time_point start = Clock::now();
            std::unique_ptr<sim::SyntheticWorkload> workload;
            std::unique_ptr<sim::System> system;
            {
                Scoped span(log, "sim.construct");
                workload = std::make_unique<sim::SyntheticWorkload>(
                    variantProfile(cell.bench, variant),
                    machine.config.l2.line_size);
                system = std::make_unique<sim::System>(machine.config,
                                                       *workload);
            }
            setup_s += secondsSince(start);

            start = Clock::now();
            {
                Scoped span(log, "sim.run");
                system->run(kWarmup);
                system->beginMeasurement();
                system->run(kMeasure);
            }
            const double op_s = secondsSince(start);
            tally.op_ms.push_back(op_s * 1e3);
            busy_s += op_s;
            tally.instructions += kWarmup + kMeasure;

            Scoped check(log, "check");
            ++tally.attempted;
            if (!expected.check(variant,
                                cell.bench + "/" + machine.label,
                                signature(system->stats())))
                ++tally.failed;
            if (log.enabled())
                addMachineCounters(system->metrics().snapshot(), layers);
        }
        tally.setup_s.push_back(setup_s);
        tally.round_rate.push_back(
            static_cast<double>(cells.size() * (kWarmup + kMeasure)) /
            busy_s);
    };

    const ProbeFn probe = [](uint32_t variant, LayerValues &layers) {
        std::vector<sim::WorkloadProfile> profiles;
        for (const std::string &bench : sim::benchmarkNames())
            profiles.push_back(variantProfile(bench, variant));
        probeMachineLayers(profiles, 200'000, layers);
    };

    Outcome outcome = drive(options, round, probe);
    outcome.notes.push_back(
        "paper_grid: " + std::to_string(cells.size()) +
        " cells per round (11 profiles x 4 machines), " +
        std::to_string(kWarmup) + " warm-up + " +
        std::to_string(kMeasure) + " measured instructions per cell");
    return outcome;
}

} // namespace hostbench
