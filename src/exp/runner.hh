/**
 * @file
 * Worker-pool experiment executor.
 *
 * Every (variant, benchmark) cell of an ExperimentSpec is an
 * independent simulation, so the Runner fans the grid out over a
 * thread pool. Each cell builds its own System and Workload from
 * its benchmark profile, never from execution order — a grid run at
 * --threads=4 is bit-identical to the serial run.
 *
 * Standard cells (variants with a ConfigFn and no custom RunFn) go
 * through the process-wide cell cache (cell_cache.hh): identical
 * (bench, lengths, config) cells — baselines shared by many
 * comparison columns, repeated grids in one process — simulate once.
 * Results are bit-identical with the cache cold or warm; only
 * wall-clock changes.
 */

#ifndef SECPROC_EXP_RUNNER_HH
#define SECPROC_EXP_RUNNER_HH

#include <functional>

#include "exp/report.hh"
#include "exp/spec.hh"

namespace secproc::exp
{

/** Execution controls, separate from what is being measured. */
struct RunnerOptions
{
    /** Worker threads; 0 = one per hardware thread. */
    unsigned threads = 1;

    /** Reads SECPROC_THREADS when set; fatal() on garbage. */
    static RunnerOptions fromEnvironment();
};

/**
 * Executes experiment grids (and arbitrary independent job lists)
 * across a worker pool.
 */
class Runner
{
  public:
    explicit Runner(RunnerOptions options = RunnerOptions::fromEnvironment());

    /** Worker count after resolving threads == 0. */
    unsigned threads() const { return threads_; }

    /** Run every cell of @p spec and assemble the Report. */
    Report run(const ExperimentSpec &spec) const;

    /**
     * Deterministic parallel-for: invoke @p body for every index in
     * [0, count), distributed over the pool. Bodies must be
     * independent and must only write state owned by their index.
     */
    void forEach(size_t count,
                 const std::function<void(size_t)> &body) const;

  private:
    unsigned threads_ = 1;
};

} // namespace secproc::exp

#endif // SECPROC_EXP_RUNNER_HH
