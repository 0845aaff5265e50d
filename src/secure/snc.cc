/**
 * @file
 * Sequence Number Cache implementation.
 *
 * Internally reuses the generic set-associative Cache as the tag
 * directory, one "line" per sector of sector_lines consecutive L2
 * lines (span = l2_line_size * sector_lines, so consecutive sectors
 * map to consecutive sets). The sequence numbers live in a flat
 * table indexed by the directory slot the Cache reports; with the
 * default sector_lines = 1 this reduces to the paper's
 * one-tag-per-entry organization.
 */

#include "secure/snc.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::secure
{

namespace
{

mem::CacheConfig
makeCacheConfig(const SncConfig &config)
{
    fatal_if(config.bytes_per_entry == 0 ||
                 config.capacity_bytes % config.bytes_per_entry != 0,
             "SNC capacity must be a multiple of the entry size");
    fatal_if(config.sector_lines == 0,
             "SNC sectors need at least one line");
    fatal_if(config.entries() % config.sector_lines != 0,
             "SNC entry count must be a multiple of the sector size");
    mem::CacheConfig cache;
    cache.name = "snc";
    // One directory tag per sector; the directory is keyed by L2
    // line address so geometry uses the sector span.
    cache.line_size = static_cast<uint32_t>(config.sectorSpan());
    cache.size_bytes = config.sectors() * config.sectorSpan();
    cache.assoc = config.assoc;
    cache.policy = config.allow_replacement
                       ? mem::ReplacementPolicy::Lru
                       : mem::ReplacementPolicy::NoReplacement;
    return cache;
}

} // namespace

SequenceNumberCache::SequenceNumberCache(const SncConfig &config)
    : config_(config), cache_(makeCacheConfig(config)),
      line_shift_(util::floorLog2(config.l2_line_size)),
      seqnums_(config.entries(), kEmptyEntry)
{
    victims_.reserve(config_.sector_lines);
    cofetched_.reserve(config_.sector_lines);
}

uint64_t
SequenceNumberCache::sectorBase(uint64_t line_va) const
{
    // The directory accepted sectorSpan() as a line size, so it is a
    // power of two (and so are l2_line_size and sector_lines).
    return line_va & ~(config_.sectorSpan() - 1);
}

size_t
SequenceNumberCache::rowStart(uint32_t slot) const
{
    return size_t{slot} * config_.sector_lines;
}

size_t
SequenceNumberCache::entryIndex(uint32_t slot, uint64_t line_va) const
{
    return rowStart(slot) +
           ((line_va >> line_shift_) & (config_.sector_lines - 1));
}

std::optional<uint32_t>
SequenceNumberCache::query(uint64_t line_va)
{
    const uint32_t slot = cache_.accessSlot(line_va, /*write=*/false);
    const uint32_t seqnum = slot == mem::Cache::kNoSlot
                                ? kEmptyEntry
                                : seqnums_[entryIndex(slot, line_va)];
    if (seqnum == kEmptyEntry) {
        // No tag, or a tag whose slot for this line was never
        // populated: either way the sequence number is not on chip.
        ++query_misses_;
        return std::nullopt;
    }
    ++query_hits_;
    return seqnum;
}

bool
SequenceNumberCache::contains(uint64_t line_va) const
{
    return peek(line_va).has_value();
}

std::optional<uint32_t>
SequenceNumberCache::peek(uint64_t line_va) const
{
    const uint32_t slot = cache_.probeSlot(line_va);
    if (slot == mem::Cache::kNoSlot)
        return std::nullopt;
    const uint32_t seqnum = seqnums_[entryIndex(slot, line_va)];
    if (seqnum == kEmptyEntry)
        return std::nullopt;
    return seqnum;
}

std::optional<uint32_t>
SequenceNumberCache::increment(uint64_t line_va)
{
    const uint32_t slot = cache_.accessSlot(line_va, /*write=*/true);
    if (slot == mem::Cache::kNoSlot) {
        ++update_misses_;
        return std::nullopt;
    }
    uint32_t &seqnum = seqnums_[entryIndex(slot, line_va)];
    if (seqnum == kEmptyEntry) {
        ++update_misses_;
        return std::nullopt;
    }
    ++update_hits_;
    if (seqnum >= config_.maxSeqnum()) {
        // Pad-reuse hazard: hardware would trigger a re-encryption
        // epoch here. We wrap and count (see DESIGN.md section 7).
        ++overflows_;
        seqnum = 1;
    } else {
        ++seqnum;
    }
    return seqnum;
}

SncInstall
SequenceNumberCache::install(uint64_t line_va, uint32_t seqnum)
{
    SncInstall result;
    victims_.clear();
    cofetched_.clear();

    // Resident sector: populate the slot in place, no displacement.
    if (const uint32_t slot = cache_.accessSlot(line_va, /*write=*/true);
        slot != mem::Cache::kNoSlot) {
        uint32_t &entry = seqnums_[entryIndex(slot, line_va)];
        if (entry == kEmptyEntry)
            ++occupancy_;
        entry = seqnum;
        result.installed = true;
        return result;
    }

    const auto victim = cache_.fill(line_va, /*dirty=*/false, 0);
    if (!victim.has_value()) {
        ++rejected_;
        return result; // no-replacement policy, set full
    }
    result.installed = true;

    uint32_t *row = &seqnums_[rowStart(victim->slot)];
    if (victim->valid) {
        for (size_t i = 0; i < config_.sector_lines; ++i) {
            if (row[i] == kEmptyEntry)
                continue;
            victims_.push_back(SncEntry{
                victim->line_addr + i * config_.l2_line_size,
                row[i]});
            --occupancy_;
            ++spills_;
        }
        if (!victims_.empty()) {
            result.victim_valid = true;
            result.victim_line = victims_.front().line_va;
            result.victim_seqnum = victims_.front().seqnum;
        }
    }

    std::fill_n(row, config_.sector_lines, kEmptyEntry);
    seqnums_[entryIndex(victim->slot, line_va)] = seqnum;
    ++occupancy_;
    const uint64_t base = sectorBase(line_va);
    for (uint32_t i = 0; i < config_.sector_lines; ++i) {
        const uint64_t other = base + uint64_t{i} * config_.l2_line_size;
        if (other != line_va)
            cofetched_.push_back(other);
    }
    result.victims = victims_;
    result.cofetched = cofetched_;
    return result;
}

bool
SequenceNumberCache::setEntry(uint64_t line_va, uint32_t seqnum)
{
    const uint32_t slot = cache_.probeSlot(line_va);
    if (slot == mem::Cache::kNoSlot)
        return false;
    uint32_t &entry = seqnums_[entryIndex(slot, line_va)];
    if (entry == kEmptyEntry)
        ++occupancy_;
    entry = seqnum;
    return true;
}

std::vector<SncEntry>
SequenceNumberCache::flush()
{
    std::vector<SncEntry> entries;
    for (const mem::Victim &victim : cache_.invalidateAll()) {
        const uint32_t *row = &seqnums_[rowStart(victim.slot)];
        for (size_t i = 0; i < config_.sector_lines; ++i) {
            if (row[i] == kEmptyEntry)
                continue;
            entries.push_back(SncEntry{
                victim.line_addr + i * config_.l2_line_size, row[i]});
        }
    }
    occupancy_ = 0;
    return entries;
}

void
SequenceNumberCache::resetStats()
{
    query_hits_.reset();
    query_misses_.reset();
    update_hits_.reset();
    update_misses_.reset();
    spills_.reset();
    rejected_.reset();
    overflows_.reset();
    cache_.resetStats();
}

void
SequenceNumberCache::registerMetrics(obs::MetricsRegistry &reg,
                                     const std::string &prefix) const
{
    reg.counter(prefix + ".query_hits", &query_hits_);
    reg.counter(prefix + ".query_misses", &query_misses_);
    reg.counter(prefix + ".update_hits", &update_hits_);
    reg.counter(prefix + ".update_misses", &update_misses_);
    reg.counter(prefix + ".spills", &spills_);
    reg.counter(prefix + ".rejected_installs", &rejected_);
    reg.counter(prefix + ".seqnum_overflows", &overflows_);
}

} // namespace secproc::secure
