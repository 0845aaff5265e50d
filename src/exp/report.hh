/**
 * @file
 * Structured experiment results.
 *
 * A Report is the Runner's output: one CellResult per (variant,
 * benchmark) cell, with the comparison value (slowdown vs the
 * baseline variant, or a derived metric) already computed. It
 * renders the paper-vs-measured tables the fig/ablation binaries
 * print and emits the machine-readable BENCH_<name>.json.
 */

#ifndef SECPROC_EXP_REPORT_HH
#define SECPROC_EXP_REPORT_HH

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "exp/spec.hh"
#include "util/json.hh"

namespace secproc::exp
{

/** Results for one (variant, benchmark) cell. */
struct CellResult
{
    std::string variant;
    std::string bench;
    sim::RunStats stats;
    std::vector<std::pair<std::string, double>> extras;

    /** Paper-reported value, when the variant provides one. */
    std::optional<double> paper;

    /**
     * Measured comparison value: percent slowdown against the
     * variant's baseline, or the variant's derived metric. Absent
     * for pure-baseline variants.
     */
    std::optional<double> measured;
};

/**
 * Wall-clock profile of one Runner::run: how long the host took,
 * never what the model measured. The exact-identity gate
 * (scripts/check_bench_identity.py) ignores it; the perf gate reads
 * only wall_seconds, against a committed per-grid ceiling.
 */
struct RunProfile
{
    /** Wall-clock seconds for the whole grid. */
    double wall_seconds = 0.0;

    /** Grid cells executed. */
    uint64_t cells = 0;
};

/** How printTable() renders the measured/paper values. */
enum class TableUnit
{
    /** Values are percent slowdowns (the default). */
    SlowdownPct,
    /** Slowdowns rendered as normalized time, 1 + pct/100. */
    NormalizedTime,
};

/**
 * Structured results of one experiment run.
 */
class Report
{
  public:
    /**
     * @param spec The executed spec (metadata is copied out).
     * @param threads Worker count the grid ran with.
     */
    Report(const ExperimentSpec &spec, unsigned threads);

    /** Cells in (variant-major, benchmark-minor) spec order. */
    const std::vector<CellResult> &cells() const { return cells_; }

    /** @return the cell for (variant, bench), or nullptr. */
    const CellResult *find(const std::string &variant,
                           const std::string &bench) const;

    /** Mean measured value of @p variant across benchmarks. */
    std::optional<double> average(const std::string &variant) const;

    /**
     * Print the heading, subtitle and the benchmark-rows table with
     * one paper/measured column pair per reporting variant.
     */
    void printTable(std::ostream &os,
                    TableUnit unit = TableUnit::SlowdownPct) const;

    /**
     * Transposed rendering for wide grids: one row per reporting
     * variant, one column per benchmark plus the average.
     */
    void printVariantRows(std::ostream &os) const;

    /** Full results as a JSON document (see README for the schema). */
    util::Json toJson() const;

    /** Write toJson() to @p path ("" = defaultJsonPath()). */
    void writeJson(const std::string &path = "") const;

    /** BENCH_<name>.json */
    std::string defaultJsonPath() const;

    const std::string &name() const { return name_; }
    const RunOptions &options() const { return options_; }
    unsigned threads() const { return threads_; }

    const RunProfile &profile() const { return profile_; }

    /** Runner hooks. @{ */
    void setCells(std::vector<CellResult> cells);
    void setProfile(const RunProfile &profile) { profile_ = profile; }
    /** @} */

  private:
    std::string name_;
    std::string title_;
    std::string subtitle_;
    std::vector<std::string> benchmarks_;

    /** Per-variant metadata copied from the spec. */
    struct VariantInfo
    {
        std::string label;
        bool has_paper = false;
        std::string baseline;
    };
    std::vector<VariantInfo> variants_;

    /** A variant appears in tables iff any cell reports a value. */
    bool reports(const std::string &variant) const;

    RunOptions options_;
    unsigned threads_ = 1;
    std::vector<CellResult> cells_;
    RunProfile profile_;
};

} // namespace secproc::exp

#endif // SECPROC_EXP_REPORT_HH
