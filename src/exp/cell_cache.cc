/**
 * @file
 * Cell memoization: canonical config digest + keyed shared_futures.
 */

#include "exp/cell_cache.hh"

#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <sstream>

namespace secproc::exp
{

namespace
{

void
cacheField(std::ostringstream &out, const char *name, uint64_t value)
{
    out << name << '=' << value << ';';
}

void
cacheCache(std::ostringstream &out, const char *prefix,
           const mem::CacheConfig &cache)
{
    const auto &[name, size_bytes, assoc, line_size, policy] = cache;
    out << prefix << "={" << name << ',' << size_bytes << ',' << assoc
        << ',' << line_size << ',' << static_cast<int>(policy) << "};";
}

std::string
liveEnvironment(const char *name)
{
    const char *value = std::getenv(name);
    return value == nullptr ? std::string{"<unset>"}
                            : std::string{value};
}

} // namespace

/**
 * Every config struct is bound field by field, so a field added to
 * any of them breaks its binding and fails to compile until the
 * digest names it too: two machines can never alias one cache entry.
 */
std::string
configDigest(const sim::SystemConfig &config)
{
    const auto &[core, l1i, l1d, l2, channel, protection, cipher, mshrs,
                 functional] = config;
    std::ostringstream out;

    const auto &[rob, width, redirect, int_latency, mul_latency,
                 fp_latency, blocking_loads] = core;
    cacheField(out, "core.rob", rob);
    cacheField(out, "core.width", width);
    cacheField(out, "core.redirect", redirect);
    cacheField(out, "core.int", int_latency);
    cacheField(out, "core.mul", mul_latency);
    cacheField(out, "core.fp", fp_latency);
    cacheField(out, "core.blocking", blocking_loads);

    cacheCache(out, "l1i", l1i);
    cacheCache(out, "l1d", l1d);
    cacheCache(out, "l2", l2);

    const auto &[access, transfer, small_transfer, wbuf, line_bytes,
                 small_bytes, starve, use_dram, dram] = channel;
    cacheField(out, "ch.access", access);
    cacheField(out, "ch.transfer", transfer);
    cacheField(out, "ch.small_transfer", small_transfer);
    cacheField(out, "ch.wbuf", wbuf);
    cacheField(out, "ch.line_bytes", line_bytes);
    cacheField(out, "ch.small_bytes", small_bytes);
    cacheField(out, "ch.starve", starve);
    cacheField(out, "ch.use_dram", use_dram);
    const auto &[banks, row_bytes, hit, miss, conflict, busy,
                 closed_page] = dram;
    cacheField(out, "dram.banks", banks);
    cacheField(out, "dram.row_bytes", row_bytes);
    cacheField(out, "dram.hit", hit);
    cacheField(out, "dram.miss", miss);
    cacheField(out, "dram.conflict", conflict);
    cacheField(out, "dram.busy", busy);
    cacheField(out, "dram.closed", closed_page);

    const auto &[model, crypto_engine, snc, parallel_seqnum, pad_predict,
                 pad_entries, prot_line] = protection;
    const auto &[latency, initiation_interval] = crypto_engine;
    const auto &[capacity, entry_bytes, snc_assoc, replace, snc_line,
                 sector] = snc;
    cacheField(out, "prot.model", static_cast<int>(model));
    cacheField(out, "crypto.latency", latency);
    cacheField(out, "crypto.ii", initiation_interval);
    cacheField(out, "snc.capacity", capacity);
    cacheField(out, "snc.entry_bytes", entry_bytes);
    cacheField(out, "snc.assoc", snc_assoc);
    cacheField(out, "snc.replace", replace);
    cacheField(out, "snc.line", snc_line);
    cacheField(out, "snc.sector", sector);
    cacheField(out, "prot.parallel_seqnum", parallel_seqnum);
    cacheField(out, "prot.pad_predict", pad_predict);
    cacheField(out, "prot.pad_entries", pad_entries);
    cacheField(out, "prot.line", prot_line);

    cacheField(out, "cipher", static_cast<int>(cipher));
    cacheField(out, "mshrs", mshrs);
    cacheField(out, "functional", functional);

    return out.str();
}

namespace
{

struct CellCache
{
    std::mutex mutex;
    std::map<std::string, std::shared_future<sim::RunStats>> cells;
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
              const RunOptions &options, uint64_t seed_override)
{
    std::ostringstream key;
    key << "bench=" << bench << ";warmup="
        << options.warmup_instructions
        << ";measure=" << options.measure_instructions
        << ";seed=" << seed_override
        << ";env.warmup=" << liveEnvironment("SECPROC_WARMUP")
        << ";env.measure=" << liveEnvironment("SECPROC_MEASURE")
        << ';' << configDigest(config);

    CellCache &memo = cache();
    std::promise<sim::RunStats> mine;
    std::shared_future<sim::RunStats> result;
    bool compute = false;
    {
        std::lock_guard<std::mutex> lock(memo.mutex);
        const auto it = memo.cells.find(key.str());
        if (it != memo.cells.end()) {
            ++memo.hits;
            result = it->second; // get() happens outside the lock
        } else {
            result =
                memo.cells.emplace(key.str(), mine.get_future().share())
                    .first->second;
            compute = true;
        }
    }
    if (!compute)
        return result.get();

    mine.set_value(runCell(bench, config, options, seed_override));
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
