/**
 * @file
 * Staging journal implementation.
 */

#include "update/staging_journal.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::update
{

const StagingJournal::SlotRecord *
StagingJournal::record(uint32_t slot) const
{
    panic_if(slot >= slots_.size(), "staging journal slot ", slot);
    return &slots_[slot];
}

StagingJournal::SlotRecord *
StagingJournal::record(uint32_t slot)
{
    panic_if(slot >= slots_.size(), "staging journal slot ", slot);
    return &slots_[slot];
}

bool
StagingJournal::begin(uint32_t slot, const Digest &digest,
                      uint64_t total_bytes, uint32_t chunk_bytes)
{
    panic_if(chunk_bytes == 0, "staging journal chunk size 0");
    SlotRecord *rec = record(slot);
    if (rec->valid && rec->digest == digest &&
        rec->total_bytes == total_bytes &&
        rec->chunk_bytes == chunk_bytes)
        return true;
    rec->valid = true;
    rec->digest = digest;
    rec->total_bytes = total_bytes;
    rec->chunk_bytes = chunk_bytes;
    rec->bitmap.assign(
        util::divCeil(util::divCeil(total_bytes, chunk_bytes), 8), 0);
    return false;
}

void
StagingJournal::markChunk(uint32_t slot, uint64_t index)
{
    SlotRecord *rec = record(slot);
    panic_if(!rec->valid, "markChunk with no open record");
    panic_if(index >= chunkCount(slot), "chunk ", index,
             " out of range");
    rec->bitmap[index / 8] |= static_cast<uint8_t>(1u << (index % 8));
}

bool
StagingJournal::chunkDone(uint32_t slot, uint64_t index) const
{
    const SlotRecord *rec = record(slot);
    if (!rec->valid || index >= chunkCount(slot))
        return false;
    return (rec->bitmap[index / 8] >> (index % 8)) & 1u;
}

uint64_t
StagingJournal::chunkCount(uint32_t slot) const
{
    const SlotRecord *rec = record(slot);
    if (!rec->valid)
        return 0;
    return util::divCeil(rec->total_bytes, rec->chunk_bytes);
}

uint64_t
StagingJournal::completedBytes(uint32_t slot) const
{
    const SlotRecord *rec = record(slot);
    if (!rec->valid)
        return 0;
    const uint64_t chunks = chunkCount(slot);
    uint64_t total = 0;
    for (uint64_t i = 0; i < chunks; ++i) {
        if (!chunkDone(slot, i))
            continue;
        const uint64_t begin = i * rec->chunk_bytes;
        const uint64_t end =
            std::min<uint64_t>(begin + rec->chunk_bytes,
                               rec->total_bytes);
        total += end - begin;
    }
    return total;
}

void
StagingJournal::clear(uint32_t slot)
{
    *record(slot) = SlotRecord{};
}

bool
StagingJournal::active(uint32_t slot) const
{
    return record(slot)->valid;
}

bool
StagingJournal::validate() const
{
    return std::all_of(slots_.begin(), slots_.end(),
                       [](const SlotRecord &rec) {
        if (!rec.valid)
            return rec == SlotRecord{};
        if (rec.chunk_bytes == 0)
            return false;
        const uint64_t chunks =
            util::divCeil(rec.total_bytes, rec.chunk_bytes);
        const unsigned tail = chunks % 8;
        return rec.bitmap.size() == util::divCeil(chunks, 8) &&
               (tail == 0 || rec.bitmap.back() >> tail == 0);
    });
}

} // namespace secproc::update
