/**
 * @file
 * Sequence Number Cache implementation.
 *
 * Internally reuses the generic set-associative Cache as the tag
 * directory, one "line" per sector of sector_lines consecutive L2
 * lines (span = l2_line_size * sector_lines, so consecutive sectors
 * map to consecutive sets). Per-sector sequence-number slots live in
 * a side table; with the default sector_lines = 1 this reduces to
 * the paper's one-tag-per-entry organization.
 */

#include "secure/snc.hh"

#include <algorithm>

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
      sector_arena_(config.sector_lines * sizeof(uint32_t))
{}

uint64_t
SequenceNumberCache::sectorBase(uint64_t line_va) const
{
    return line_va / config_.sectorSpan() * config_.sectorSpan();
}

uint64_t
SequenceNumberCache::sectorIndex(uint64_t line_va) const
{
    return line_va / config_.sectorSpan();
}

size_t
SequenceNumberCache::slotIndex(uint64_t line_va) const
{
    return (line_va % config_.sectorSpan()) / config_.l2_line_size;
}

uint32_t *
SequenceNumberCache::slotFor(uint64_t line_va)
{
    uint32_t *const *sector = sectors_.find(sectorIndex(line_va));
    if (sector == nullptr)
        return nullptr;
    return *sector + slotIndex(line_va);
}

std::optional<uint32_t>
SequenceNumberCache::query(uint64_t line_va)
{
    if (!cache_.access(line_va, /*write=*/false)) {
        ++query_misses_;
        return std::nullopt;
    }
    const uint32_t *slot = slotFor(line_va);
    panic_if(slot == nullptr, "SNC directory/slot table divergence");
    if (*slot == kEmptySlot) {
        // Tag present but this line's slot was never populated: the
        // sequence number is not on chip, which is a miss.
        ++query_misses_;
        return std::nullopt;
    }
    ++query_hits_;
    return *slot;
}

bool
SequenceNumberCache::contains(uint64_t line_va) const
{
    return peek(line_va).has_value();
}

std::optional<uint32_t>
SequenceNumberCache::peek(uint64_t line_va) const
{
    if (!cache_.probe(line_va))
        return std::nullopt;
    uint32_t *const *sector = sectors_.find(sectorIndex(line_va));
    if (sector == nullptr)
        return std::nullopt;
    const uint32_t slot = (*sector)[slotIndex(line_va)];
    if (slot == kEmptySlot)
        return std::nullopt;
    return slot;
}

std::optional<uint32_t>
SequenceNumberCache::increment(uint64_t line_va)
{
    if (!cache_.access(line_va, /*write=*/true)) {
        ++update_misses_;
        return std::nullopt;
    }
    uint32_t *slot = slotFor(line_va);
    panic_if(slot == nullptr, "SNC directory/slot table divergence");
    if (*slot == kEmptySlot) {
        ++update_misses_;
        return std::nullopt;
    }
    ++update_hits_;
    if (*slot >= config_.maxSeqnum()) {
        // Pad-reuse hazard: hardware would trigger a re-encryption
        // epoch here. We wrap and count (see DESIGN.md section 7).
        ++overflows_;
        *slot = 1;
    } else {
        ++*slot;
    }
    return *slot;
}

SncInstall
SequenceNumberCache::install(uint64_t line_va, uint32_t seqnum)
{
    SncInstall result;

    // Resident sector: populate the slot in place, no displacement.
    if (cache_.access(line_va, /*write=*/true)) {
        uint32_t *slot = slotFor(line_va);
        panic_if(slot == nullptr, "SNC directory/slot table divergence");
        if (*slot == kEmptySlot)
            ++occupancy_;
        *slot = seqnum;
        result.installed = true;
        return result;
    }

    const auto victim = cache_.fill(line_va, /*dirty=*/false, 0);
    if (!victim.has_value()) {
        ++rejected_;
        return result; // no-replacement policy, set full
    }
    result.installed = true;

    if (victim->valid) {
        const uint64_t victim_index = sectorIndex(victim->line_addr);
        uint32_t *const *sector = sectors_.find(victim_index);
        panic_if(sector == nullptr,
                 "SNC victim sector has no slot table");
        for (size_t i = 0; i < config_.sector_lines; ++i) {
            if ((*sector)[i] == kEmptySlot)
                continue;
            result.victims.push_back(SncEntry{
                victim->line_addr + i * config_.l2_line_size,
                (*sector)[i]});
            --occupancy_;
            ++spills_;
        }
        sector_arena_.release(
            reinterpret_cast<uint8_t *>(*sector));
        sectors_.erase(victim_index);
        if (!result.victims.empty()) {
            result.victim_valid = true;
            result.victim_line = result.victims.front().line_va;
            result.victim_seqnum = result.victims.front().seqnum;
        }
    }

    const uint64_t base = sectorBase(line_va);
    uint32_t *&slots = sectors_.touch(sectorIndex(line_va));
    panic_if(slots != nullptr, "SNC slot table leaked past its tag");
    slots = reinterpret_cast<uint32_t *>(sector_arena_.allocate());
    std::fill_n(slots, config_.sector_lines, kEmptySlot);
    slots[slotIndex(line_va)] = seqnum;
    ++occupancy_;
    for (uint32_t i = 0; i < config_.sector_lines; ++i) {
        const uint64_t other = base + uint64_t{i} * config_.l2_line_size;
        if (other != line_va)
            result.cofetched.push_back(other);
    }
    return result;
}

bool
SequenceNumberCache::setEntry(uint64_t line_va, uint32_t seqnum)
{
    if (!cache_.probe(line_va))
        return false;
    uint32_t *slot = slotFor(line_va);
    panic_if(slot == nullptr, "SNC directory/slot table divergence");
    if (*slot == kEmptySlot)
        ++occupancy_;
    *slot = seqnum;
    return true;
}

std::vector<SncEntry>
SequenceNumberCache::flush()
{
    std::vector<SncEntry> entries;
    for (const mem::Victim &victim : cache_.invalidateAll()) {
        uint32_t *const *sector =
            sectors_.find(sectorIndex(victim.line_addr));
        if (sector == nullptr)
            continue;
        for (size_t i = 0; i < config_.sector_lines; ++i) {
            if ((*sector)[i] == kEmptySlot)
                continue;
            entries.push_back(SncEntry{
                victim.line_addr + i * config_.l2_line_size,
                (*sector)[i]});
        }
    }
    sectors_.clear();
    sector_arena_.clear();
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
