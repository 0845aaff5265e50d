/**
 * @file
 * Cell memoization: value-keyed shared_futures.
 */

#include "exp/cell_cache.hh"

#include <compare>
#include <future>
#include <map>
#include <mutex>

namespace secproc::exp
{

namespace
{

/** Everything a standard cell's result depends on. */
struct CellKey
{
    std::string bench;
    uint64_t warmup_instructions = 0;
    uint64_t measure_instructions = 0;
    sim::SystemConfig config;

    auto operator<=>(const CellKey &) const = default;
};

struct CellCache
{
    std::mutex mutex;
    std::map<CellKey, std::shared_future<sim::RunStats>> cells;
    size_t hits = 0;
};

CellCache &
cache()
{
    static CellCache instance;
    return instance;
}

} // namespace

sim::RunStats
cachedRunCell(const std::string &bench,
              const sim::SystemConfig &config,
              const RunOptions &options)
{
    CellKey key{bench, options.warmup_instructions,
                options.measure_instructions, config};

    CellCache &memo = cache();
    std::promise<sim::RunStats> mine;
    std::shared_future<sim::RunStats> result;
    bool compute = false;
    {
        std::lock_guard<std::mutex> lock(memo.mutex);
        const auto it = memo.cells.find(key);
        if (it != memo.cells.end()) {
            ++memo.hits;
            result = it->second; // get() happens outside the lock
        } else {
            result = memo.cells
                         .emplace(std::move(key),
                                  mine.get_future().share())
                         .first->second;
            compute = true;
        }
    }
    if (!compute)
        return result.get();

    mine.set_value(runCell(bench, config, options));
    return result.get();
}

CellCacheStats
cellCacheStats()
{
    CellCache &memo = cache();
    std::lock_guard<std::mutex> lock(memo.mutex);
    return {memo.cells.size(), memo.hits};
}

void
clearCellCache()
{
    CellCache &memo = cache();
    std::lock_guard<std::mutex> lock(memo.mutex);
    memo.cells.clear();
    memo.hits = 0;
}

} // namespace secproc::exp
