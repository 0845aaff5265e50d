/**
 * @file
 * Chunk-granular staging journal (resumable OTA staging).
 *
 * The race matrix proves a power cut mid-stage is *safe* (the torn
 * slot re-verifies dirty and the previous image stays active), but
 * recovery used to re-download and re-stage from byte zero. The
 * journal makes staging resumable, the dual-bank block-wise DFU
 * pattern: per slot it records which framed-bundle payload is being
 * staged (by digest), the total size, the chunk granularity, and a
 * bitmap of chunks whose slot write completed. After a power cut the
 * next attempt at the *same* payload skips completed chunks — both
 * their transport download and their slot write — and a different
 * payload resets the record.
 *
 * Trust model: the journal is an *efficiency* hint, never an
 * authority. Resumed bytes still flow through the same admission
 * parse, stage-time verify and activation re-verify as fresh bytes;
 * a journal that lies about completed chunks (bit rot, torn journal
 * write) produces a bundle that fails re-verification exactly like
 * any other corrupt slot. Persisted across simulated reboots like
 * the RollbackStore, though unlike the counter bank it can live in
 * untrusted NVRAM for exactly the reason above.
 */

#ifndef SECPROC_UPDATE_STAGING_JOURNAL_HH
#define SECPROC_UPDATE_STAGING_JOURNAL_HH

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "update/manifest.hh"

namespace secproc::update
{

/** Per-slot resumable staging state. */
class StagingJournal
{
  public:
    StagingJournal() = default;

    /**
     * Open (or resume) a staging session for @p slot writing
     * @p total_bytes of payload identified by @p digest, tracked at
     * @p chunk_bytes granularity. When the slot already has a record
     * with the same identity, its completed chunks are kept and this
     * returns true (resume); any mismatch — different payload,
     * different size or granularity — resets the record and returns
     * false (fresh start).
     */
    bool begin(uint32_t slot, const Digest &digest,
               uint64_t total_bytes, uint32_t chunk_bytes);

    /** Record chunk @p index of @p slot as fully written. */
    void markChunk(uint32_t slot, uint64_t index);

    /** Was chunk @p index recorded complete? False without a record. */
    bool chunkDone(uint32_t slot, uint64_t index) const;

    /** Chunks the active record tracks (0 without a record). */
    uint64_t chunkCount(uint32_t slot) const;

    /** Payload bytes covered by completed chunks. */
    uint64_t completedBytes(uint32_t slot) const;

    /** Drop @p slot's record (activation success, or abandon). */
    void clear(uint32_t slot);

    /** Does @p slot have an open record? */
    bool active(uint32_t slot) const;

    /**
     * Persistence across simulated reboots. serialize() is
     * util::encode(*this), kept only for hostbench, which calls it. @{
     */
    std::vector<uint8_t> serialize() const { return util::encode(*this); }

    static std::optional<StagingJournal>
    deserialize(std::span<const uint8_t> data)
    {
        return util::decode<StagingJournal>(data);
    }
    /** @} */

  private:
    friend struct util::WireAccess;

    struct SlotRecord
    {
        bool valid = false;
        Digest digest = {};
        uint64_t total_bytes = 0;
        uint32_t chunk_bytes = 0;
        /** One bit per chunk, LSB-first within each byte. */
        std::vector<uint8_t> bitmap;

        bool operator==(const SlotRecord &) const = default;
    };

    template <class W, class Self>
    static void
    wire(W &w, Self &journal)
    {
        w.tag(0x53504A4C) // "SPJL"
            .tag(1)       // format version
            .tag(static_cast<uint32_t>(journal.slots_.size()));
        for (auto &rec : journal.slots_) {
            w.flag(rec.valid)
                .bytes(rec.digest)
                .u64(rec.total_bytes)
                .u32(rec.chunk_bytes)
                .blob(rec.bitmap);
        }
    }

    /**
     * The journal's own geometry, checked on every parse (it lives
     * in untrusted NVRAM): an inactive record is blank, and an
     * active one has a bitmap of exactly its chunks, no bit set past
     * the last.
     */
    bool validate() const;

    const SlotRecord *record(uint32_t slot) const;
    SlotRecord *record(uint32_t slot);

    std::array<SlotRecord, 2> slots_;
};

} // namespace secproc::update

#endif // SECPROC_UPDATE_STAGING_JOURNAL_HH
