/**
 * @file
 * Generic set-associative cache model.
 *
 * One implementation serves every cache-shaped structure in secproc:
 * L1I, L1D, the unified L2 and the Sequence Number Cache (SNC). It
 * tracks tags, dirtiness, a per-line 64-bit metadata word (the L2
 * uses it to remember each line's virtual address as the paper's
 * Section 4 requires) and supports the two policies the machine
 * uses: LRU, and the SNC's no-replacement. The SNC keeps its sequence
 * numbers in its own table indexed by the directory slot this cache
 * reports.
 *
 * The cache stores no data bytes: functional contents live in the
 * OnChipStore / MainMemory pair so the timing model stays compact.
 */

#ifndef SECPROC_MEM_CACHE_HH
#define SECPROC_MEM_CACHE_HH

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "util/radix_array.hh"

namespace secproc::mem
{

/** Victim selection policy. */
enum class ReplacementPolicy
{
    Lru,
    /**
     * Never evict: fills fail once the set is full. This is the
     * paper's "no replacement" SNC operating policy (Section 4.1).
     */
    NoReplacement,
};

/** Static geometry and policy of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t size_bytes = 32 * 1024;
    /** Associativity; 0 means fully associative. */
    uint32_t assoc = 4;
    uint32_t line_size = 64;
    ReplacementPolicy policy = ReplacementPolicy::Lru;

    /** Number of lines implied by the geometry. */
    uint64_t numLines() const { return size_bytes / line_size; }

    auto operator<=>(const CacheConfig &) const = default;
};

/** Description of a line displaced by a fill. */
struct Victim
{
    bool valid = false;   ///< a valid line was displaced
    bool dirty = false;   ///< it held modified data
    uint64_t line_addr = 0; ///< its line address (byte addr of line start)
    uint64_t meta = 0;    ///< its metadata word
    /**
     * Directory slot involved: the one fill() wrote the new line
     * into (whether or not it displaced anything), or the one
     * invalidate()/invalidateAll() freed.
     */
    uint32_t slot = 0;
};

/**
 * Set-associative cache directory.
 *
 * All public methods take byte addresses; alignment to lines happens
 * internally. Addresses sharing a line map to the same entry.
 */
class Cache
{
  public:
    /** Slot value meaning "line not present". */
    static constexpr uint32_t kNoSlot = ~uint32_t{0};

    explicit Cache(const CacheConfig &config);

    /**
     * Look the line up and refresh its recency on a hit.
     * @return its directory slot (stable until the line leaves),
     *         or kNoSlot on a miss.
     */
    uint32_t accessSlot(uint64_t addr, bool write);

    /** @return true and refresh recency if the line is present. */
    bool access(uint64_t addr, bool write)
    {
        return accessSlot(addr, write) != kNoSlot;
    }

    /**
     * Directory slot of a resident line, or kNoSlot; no recency or
     * statistics side effects.
     */
    uint32_t probeSlot(uint64_t addr) const;

    /** Presence test with no recency or statistics side effects. */
    bool probe(uint64_t addr) const { return probeSlot(addr) != kNoSlot; }

    /**
     * Insert the line for @p addr.
     *
     * @param addr Byte address anywhere in the line.
     * @param dirty Install in modified state.
     * @param meta Metadata word stored with the line.
     * @return The displaced victim, or std::nullopt if the policy is
     *         NoReplacement and the set was full (fill rejected).
     */
    std::optional<Victim> fill(uint64_t addr, bool dirty, uint64_t meta);

    /** Remove a line if present. @return its victim record. */
    Victim invalidate(uint64_t addr);

    /**
     * Drop every line. @return all valid victims in ascending slot
     * order (for flushes).
     */
    std::vector<Victim> invalidateAll();

    /** Read the metadata word of a resident line. */
    std::optional<uint64_t> meta(uint64_t addr) const;

    /** Update the metadata word of a resident line. */
    bool setMeta(uint64_t addr, uint64_t value);

    /** Mark a resident line dirty (store to an already-present line). */
    bool setDirty(uint64_t addr);

    /** Number of currently valid lines. */
    uint64_t occupancy() const { return occupancy_; }

    const CacheConfig &config() const { return config_; }

    /** Byte address of the first byte of @p addr's line. */
    uint64_t lineAlign(uint64_t addr) const;

    /** Statistics. @{ */
    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    uint64_t evictions() const { return evictions_.value(); }
    uint64_t dirtyEvictions() const { return dirty_evictions_.value(); }
    uint64_t rejectedFills() const { return rejected_fills_.value(); }
    void resetStats();
    /** @} */

    /** Bind this cache's counters into @p reg as "<prefix>.<stat>". */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    struct Line
    {
        bool dirty = false;
        uint64_t meta = 0;
    };

    CacheConfig config_;
    unsigned line_shift_;
    uint64_t num_sets_;
    uint32_t ways_;
    std::vector<Line> lines_; ///< [set * ways_ + way]
    /**
     * (tag << 1) | valid, one word per way, indexed like lines_. The
     * tag scan is the hottest loop in the simulator; packing tag and
     * valid into one contiguous word keeps a whole set's tags in a
     * single cache line (a 24-byte struct spread them over three).
     */
    std::vector<uint64_t> tag_words_;
    uint64_t occupancy_ = 0;

    /**
     * Low-associativity sets are probed by scanning their ways
     * directly (a handful of contiguous tag compares beats any
     * lookup structure); only wide/fully-associative instances (the
     * SNC) keep the directory.
     */
    bool scan_ways_;
    /**
     * line number -> index into lines_. A radix array rather than a
     * hash: the SNC is filled in long sequential runs (priming,
     * region sweeps) that then share 512-entry groups.
     */
    util::RadixArray<uint32_t> map_;
    /** Per-set intrusive recency lists (head = MRU, tail = LRU). */
    std::vector<uint32_t> next_;
    std::vector<uint32_t> prev_;
    std::vector<uint32_t> head_;
    std::vector<uint32_t> tail_;

    util::Counter hits_;
    util::Counter misses_;
    util::Counter evictions_;
    util::Counter dirty_evictions_;
    util::Counter rejected_fills_;

    uint64_t setIndex(uint64_t line_number) const;
    uint32_t findIdx(uint64_t line_number) const;
    void unlink(uint64_t set, uint32_t idx);
    void pushFront(uint64_t set, uint32_t idx);
    void pushBack(uint64_t set, uint32_t idx);
};

// The lookup path (accessSlot / probeSlot / findIdx and the LRU
// splice) runs a few hundred million times per full-length
// experiment; defining it here lets the per-access call chain inline
// into the simulator's memory path instead of crossing a translation
// unit per probe.

inline uint64_t
Cache::setIndex(uint64_t line_number) const
{
    return line_number & (num_sets_ - 1);
}

inline uint32_t
Cache::findIdx(uint64_t line_number) const
{
    if (scan_ways_) {
        const uint64_t want = (line_number << 1) | 1;
        const uint64_t base = setIndex(line_number) * ways_;
        const uint64_t *tags = tag_words_.data() + base;
        for (uint32_t way = 0; way < ways_; ++way) {
            if (tags[way] == want)
                return static_cast<uint32_t>(base + way);
        }
        return kNoSlot;
    }
    const uint32_t *it = map_.find(line_number);
    return it == nullptr ? kNoSlot : *it;
}

inline void
Cache::unlink(uint64_t set, uint32_t idx)
{
    const uint32_t p = prev_[idx];
    const uint32_t n = next_[idx];
    if (p != kNoSlot)
        next_[p] = n;
    else
        head_[set] = n;
    if (n != kNoSlot)
        prev_[n] = p;
    else
        tail_[set] = p;
    prev_[idx] = next_[idx] = kNoSlot;
}

inline void
Cache::pushFront(uint64_t set, uint32_t idx)
{
    prev_[idx] = kNoSlot;
    next_[idx] = head_[set];
    if (head_[set] != kNoSlot)
        prev_[head_[set]] = idx;
    head_[set] = idx;
    if (tail_[set] == kNoSlot)
        tail_[set] = idx;
}

inline uint32_t
Cache::accessSlot(uint64_t addr, bool write)
{
    const uint64_t line_number = addr >> line_shift_;
    const uint32_t idx = findIdx(line_number);
    if (idx == kNoSlot) {
        ++misses_;
        return kNoSlot;
    }
    ++hits_;
    // Re-touching the MRU line (the overwhelmingly common case) is a
    // no-op, so skip the list splice entirely.
    const uint64_t set = setIndex(line_number);
    if (head_[set] != idx) {
        unlink(set, idx);
        pushFront(set, idx);
    }
    if (write)
        lines_[idx].dirty = true;
    return idx;
}

inline uint32_t
Cache::probeSlot(uint64_t addr) const
{
    return findIdx(addr >> line_shift_);
}

inline bool
Cache::setDirty(uint64_t addr)
{
    const uint32_t idx = findIdx(addr >> line_shift_);
    if (idx == kNoSlot)
        return false;
    lines_[idx].dirty = true;
    return true;
}

} // namespace secproc::mem

#endif // SECPROC_MEM_CACHE_HH
