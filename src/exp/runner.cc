/**
 * @file
 * Runner implementation: grid expansion, the worker pool, and
 * slowdown/metric resolution.
 */

#include "exp/runner.hh"

#include "exp/cell_cache.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <thread>

#include "util/logging.hh"
#include "util/strutil.hh"

namespace secproc::exp
{

RunnerOptions
RunnerOptions::fromEnvironment()
{
    RunnerOptions options;
    if (const char *value = std::getenv("SECPROC_THREADS")) {
        options.threads = static_cast<unsigned>(
            util::parseU64(value, "SECPROC_THREADS"));
    }
    return options;
}

Runner::Runner(RunnerOptions options) : threads_(options.threads)
{
    if (threads_ == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads_ = hw == 0 ? 1 : hw;
    }
}

void
Runner::forEach(size_t count,
                const std::function<void(size_t)> &body) const
{
    const size_t workers =
        std::min<size_t>(threads_, count == 0 ? 1 : count);
    if (workers <= 1) {
        for (size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&next, count, &body] {
            while (true) {
                const size_t i = next.fetch_add(1);
                if (i >= count)
                    return;
                body(i);
            }
        });
    }
    for (std::thread &worker : pool)
        worker.join();
}

Report
Runner::run(const ExperimentSpec &spec) const
{
    fatal_if(spec.variants.empty(),
             "experiment '", spec.name, "' has no variants");
    const std::vector<std::string> &benches = spec.benchmarkList();
    fatal_if(benches.empty(),
             "experiment '", spec.name, "' has no benchmarks");
    for (const ConfigVariant &variant : spec.variants) {
        fatal_if(!variant.run && !variant.config, "variant '",
                 variant.label,
                 "' has neither a config nor a custom runner");
    }

    // Expand the grid variant-major so results land in spec order.
    struct Cell
    {
        size_t variant_idx;
        size_t bench_idx;
    };
    std::vector<Cell> grid;
    grid.reserve(spec.variants.size() * benches.size());
    for (size_t v = 0; v < spec.variants.size(); ++v)
        for (size_t b = 0; b < benches.size(); ++b)
            grid.push_back({v, b});

    const auto wall_start = std::chrono::steady_clock::now();

    std::vector<CellResult> results(grid.size());
    forEach(grid.size(), [&](size_t i) {
        const Cell &cell = grid[i];
        const ConfigVariant &variant = spec.variants[cell.variant_idx];
        const std::string &bench = benches[cell.bench_idx];

        CellResult &result = results[i];
        result.variant = variant.label;
        result.bench = bench;
        if (variant.run) {
            CellOutput output = variant.run(bench, spec.options);
            result.stats = output.stats;
            result.extras = std::move(output.extras);
            result.measured = output.measured;
        } else {
            result.stats = cachedRunCell(bench, variant.config(bench),
                                         spec.options);
        }
        if (variant.paper)
            result.paper = variant.paper(bench);
    });

    // Resolve slowdowns/metrics now that every cell (including the
    // baselines) is available.
    std::map<std::pair<std::string, std::string>, const CellResult *>
        by_key;
    for (const CellResult &result : results)
        by_key[{result.variant, result.bench}] = &result;

    for (size_t i = 0; i < results.size(); ++i) {
        const ConfigVariant &variant =
            spec.variants[grid[i].variant_idx];
        CellResult &result = results[i];
        if (result.measured.has_value())
            continue; // the custom runner already reported it
        if (variant.metric) {
            result.measured = variant.metric(result.stats);
            continue;
        }
        const std::string &base_label = variant.baseline.empty()
                                            ? spec.baseline_label
                                            : variant.baseline;
        if (base_label.empty() || base_label == variant.label)
            continue;
        const auto it = by_key.find({base_label, result.bench});
        fatal_if(it == by_key.end(), "variant '", variant.label,
                 "' names unknown baseline '", base_label, "'");
        result.measured =
            slowdownPct(it->second->stats.cycles, result.stats.cycles);
    }

    RunProfile profile;
    profile.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    profile.cells = results.size();

    Report report(spec, threads_);
    report.setCells(std::move(results));
    report.setProfile(profile);
    return report;
}

} // namespace secproc::exp
