/**
 * @file
 * Declarative experiment descriptions.
 *
 * An ExperimentSpec names a grid of ConfigVariants x benchmarks; the
 * Runner (runner.hh) executes every cell — across threads when asked
 * — and the Report (report.hh) renders the results as the paper's
 * comparison tables and as BENCH_<name>.json. The spec replaces the
 * per-figure FigureColumn lambda triples the bench binaries used to
 * re-roll by hand.
 */

#ifndef SECPROC_EXP_SPEC_HH
#define SECPROC_EXP_SPEC_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/system.hh"

namespace secproc::exp
{

/**
 * Run-length controls shared by every cell of an experiment
 * (overridable via the environment for quick runs).
 */
struct RunOptions
{
    uint64_t warmup_instructions = 1'000'000;
    uint64_t measure_instructions = 4'000'000;

    /**
     * Reads SECPROC_WARMUP / SECPROC_MEASURE when set; fatal() on
     * malformed or overflowing values.
     */
    static RunOptions fromEnvironment();
};

/** What one grid cell produced. */
struct CellOutput
{
    sim::RunStats stats;

    /**
     * Named scalar side-channels a custom cell runner wants in the
     * table/JSON next to the standard stats (e.g. SNC spills per
     * switch, pad-buffer hits).
     */
    std::vector<std::pair<std::string, double>> extras;

    /**
     * Custom runners may report their cell value directly; it takes
     * precedence over the variant's metric or baseline slowdown.
     */
    std::optional<double> measured;
};

/** Machine description for one (variant, benchmark) cell. */
using ConfigFn =
    std::function<sim::SystemConfig(const std::string &bench)>;

/** Paper-reported comparison value for one cell. */
using PaperFn = std::function<double(const std::string &bench)>;

/**
 * Custom cell executor for experiments that do more than "run the
 * workload under a config" (multitask mixes, periodic SNC flushes,
 * engine-level microbenchmarks). Must be self-contained and
 * thread-safe: the Runner may invoke cells concurrently.
 */
using RunFn = std::function<CellOutput(const std::string &bench,
                                       const RunOptions &options)>;

/** Derived per-cell metric reported instead of a slowdown. */
using MetricFn = std::function<double(const sim::RunStats &stats)>;

/** One named machine configuration of the grid. */
struct ConfigVariant
{
    std::string label;

    /** Standard path: build the machine, run the benchmark. */
    ConfigFn config;

    /** Optional paper number for the comparison column. */
    PaperFn paper;

    /** Optional custom executor (takes precedence over config). */
    RunFn run;

    /**
     * Optional derived metric; when set, the cell's reported value
     * is metric(stats) and no baseline is involved.
     */
    MetricFn metric;

    /**
     * Label of the variant this one's slowdown is measured against.
     * Empty uses the spec-wide baseline_label. Variants that serve
     * only as baselines report no value of their own.
     */
    std::string baseline;
};

/** Declarative description of one experiment grid. */
struct ExperimentSpec
{
    /** Identifier; the JSON report lands in BENCH_<name>.json. */
    std::string name;

    /** Table heading, e.g. "Figure 5: ...". */
    std::string title;

    /** Explanatory line printed under the heading. */
    std::string subtitle;

    /** Benchmarks to run; empty means sim::benchmarkNames(). */
    std::vector<std::string> benchmarks;

    std::vector<ConfigVariant> variants;

    /** Default baseline variant; empty = no slowdown column. */
    std::string baseline_label;

    RunOptions options;

    /** Benchmark list with the default applied. */
    const std::vector<std::string> &benchmarkList() const;

    /** Append a variant and return it for further tweaking. @{ */
    ConfigVariant &add(std::string label, ConfigFn config,
                       PaperFn paper = nullptr);
    ConfigVariant &addCustom(std::string label, RunFn run,
                             PaperFn paper = nullptr);
    /** @} */

    /** Append a variant and make it the spec-wide baseline. */
    ConfigVariant &addBaseline(std::string label, ConfigFn config);
};

/**
 * Run one benchmark under one machine configuration (the standard
 * cell body; usable directly for one-off runs).
 */
sim::RunStats runCell(const std::string &bench,
                      const sim::SystemConfig &config,
                      const RunOptions &options);

/** Percent slowdown of @p model_cycles over @p base_cycles. */
double slowdownPct(uint64_t base_cycles, uint64_t model_cycles);

} // namespace secproc::exp

#endif // SECPROC_EXP_SPEC_HH
