/**
 * @file
 * The Sequence Number Cache (SNC) — the paper's central hardware
 * structure (Section 4).
 *
 * The SNC sits inside the security boundary below L2 and remembers,
 * for each L2 line that has gone off chip, the sequence number used
 * to form that line's one-time-pad seed. It is indexed by the line's
 * *virtual* address. Capacity is expressed in bytes with 2-byte
 * entries by default (paper Section 5.1: a 64KB SNC holds 32K
 * sequence numbers and thus covers 4MB of memory).
 *
 * Two operating policies (Section 4.1):
 *  - LRU replacement: evicted sequence numbers spill to an encrypted
 *    in-memory table; misses fetch them back.
 *  - No replacement: once full, lines without entries fall back to
 *    XOM-style direct encryption.
 */

#ifndef SECPROC_SECURE_SNC_HH
#define SECPROC_SECURE_SNC_HH

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "obs/metrics.hh"

namespace secproc::secure
{

/** Static SNC geometry and policy. */
struct SncConfig
{
    /** Total data capacity in bytes (32KB / 64KB / 128KB in Fig. 6). */
    uint64_t capacity_bytes = 64 * 1024;

    /** Bytes per sequence number (paper: 2). */
    uint32_t bytes_per_entry = 2;

    /** Associativity; 0 = fully associative (Fig. 7 compares 32). */
    uint32_t assoc = 0;

    /** true = LRU replacement; false = no-replacement policy. */
    bool allow_replacement = true;

    /** L2 line size; consecutive L2 lines map to consecutive sets. */
    uint32_t l2_line_size = 128;

    /**
     * Consecutive L2 lines sharing one directory tag (1 = the
     * paper's per-line organization). Sectoring cuts the tag
     * overhead CactiLite charges (one tag per sector instead of per
     * entry) and acts as a spatial prefetch — a sector miss brings
     * its neighbours' sequence numbers along — at the cost of
     * coarser eviction (a victim sector spills every valid entry).
     */
    uint32_t sector_lines = 1;

    /** Number of sequence numbers the SNC can hold. */
    uint64_t entries() const { return capacity_bytes / bytes_per_entry; }

    /** Directory tags (sectors) implied by the geometry. */
    uint64_t sectors() const { return entries() / sector_lines; }

    /** Bytes of address space one sector tag covers. */
    uint64_t sectorSpan() const
    {
        return uint64_t{l2_line_size} * sector_lines;
    }

    /** Bytes of memory whose lines are covered when fully resident. */
    uint64_t coverageBytes() const { return entries() * l2_line_size; }

    /** Largest storable sequence number. */
    uint32_t maxSeqnum() const
    {
        return bytes_per_entry >= 4
                   ? 0xFFFFFFFFu
                   : (1u << (8 * bytes_per_entry)) - 1;
    }

    auto operator<=>(const SncConfig &) const = default;
};

/** One flushed or spilled entry (context switches, sector victims). */
struct SncEntry
{
    uint64_t line_va = 0;
    uint32_t seqnum = 0;
};

/**
 * Result of installing an entry (query- or update-miss fill).
 *
 * The two lists point into buffers the SNC owns and reuses, so an
 * install allocates nothing; they stay valid until the next
 * install() on the same SNC.
 */
struct SncInstall
{
    bool installed = false;     ///< false only under no-replacement
    bool victim_valid = false;  ///< at least one entry was displaced
    uint64_t victim_line = 0;   ///< first displaced line's address
    uint32_t victim_seqnum = 0; ///< its sequence number (to spill)

    /** Every displaced entry (at most 1 unless the SNC is sectored). */
    std::span<const SncEntry> victims;

    /**
     * Sectored only: the other L2 lines of the newly allocated
     * sector. The engine populates the ones it has sequence numbers
     * for (the sector fetch brings them from memory together).
     */
    std::span<const uint64_t> cofetched;
};

/**
 * On-chip sequence-number cache.
 */
class SequenceNumberCache
{
  public:
    explicit SequenceNumberCache(const SncConfig &config);

    /** Look up the sequence number for a line; refreshes recency. */
    std::optional<uint32_t> query(uint64_t line_va);

    /** Presence probe without recency or statistics effects. */
    bool contains(uint64_t line_va) const;

    /**
     * Read a resident line's sequence number without recency or
     * statistics effects (pad-prediction probes must not perturb
     * replacement state).
     */
    std::optional<uint32_t> peek(uint64_t line_va) const;

    /**
     * Increment a resident line's sequence number (update hit,
     * Equation 4). @return the new value, or std::nullopt on miss.
     * Wraps to 1 on overflow and counts the event — a wrap would
     * reuse pads, so real hardware must re-encrypt; see DESIGN.md.
     */
    std::optional<uint32_t> increment(uint64_t line_va);

    /**
     * Install a (line, seqnum) pair, displacing a victim sector if
     * needed. Under the no-replacement policy the install is refused
     * when the set is full. Populating a slot of an already-resident
     * sector never displaces anything.
     */
    SncInstall install(uint64_t line_va, uint32_t seqnum);

    /**
     * Populate one slot of an already-resident sector (engine-side
     * sector-fetch completion). @return false if the sector is not
     * resident.
     */
    bool setEntry(uint64_t line_va, uint32_t seqnum);

    /**
     * Remove every entry (flush-style context switch). @return the
     * entries in ascending directory-slot order.
     */
    std::vector<SncEntry> flush();

    /** Currently resident (populated) entries. */
    uint64_t occupancy() const { return occupancy_; }

    /** Currently resident sector tags. */
    uint64_t sectorOccupancy() const { return cache_.occupancy(); }

    const SncConfig &config() const { return config_; }

    /** Statistics. @{ */
    uint64_t queryHits() const { return query_hits_.value(); }
    uint64_t queryMisses() const { return query_misses_.value(); }
    uint64_t updateHits() const { return update_hits_.value(); }
    uint64_t updateMisses() const { return update_misses_.value(); }
    uint64_t spills() const { return spills_.value(); }
    uint64_t rejectedInstalls() const { return rejected_.value(); }
    uint64_t overflows() const { return overflows_.value(); }
    void resetStats();
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;
    /** @} */

  private:
    /** Slot-table value for a line with no sequence number on chip. */
    static constexpr uint32_t kEmptyEntry = ~uint32_t{0};

    SncConfig config_;
    /** Tag directory: one line per sector, keyed by sector span. */
    mem::Cache cache_;
    /** log2(l2_line_size). */
    unsigned line_shift_;

    /**
     * The slot table: sequence numbers indexed
     * [directory slot * sector_lines + line within sector], so the
     * slot a directory lookup returns locates the entry with no
     * second lookup (kEmptyEntry = not on chip). A row is meaningful
     * only while its directory slot holds a tag; install() resets
     * the row when it fills the slot.
     */
    std::vector<uint32_t> seqnums_;
    uint64_t occupancy_ = 0;

    /** install()'s reused result buffers (see SncInstall). */
    std::vector<SncEntry> victims_;
    std::vector<uint64_t> cofetched_;

    /** Sector base address containing @p line_va. */
    uint64_t sectorBase(uint64_t line_va) const;

    /** Index of directory slot @p slot's first slot-table entry. */
    size_t rowStart(uint32_t slot) const;

    /** Slot-table index of @p line_va, whose sector is in @p slot. */
    size_t entryIndex(uint32_t slot, uint64_t line_va) const;

    util::Counter query_hits_;
    util::Counter query_misses_;
    util::Counter update_hits_;
    util::Counter update_misses_;
    util::Counter spills_;
    util::Counter rejected_;
    util::Counter overflows_;
};

} // namespace secproc::secure

#endif // SECPROC_SECURE_SNC_HH
