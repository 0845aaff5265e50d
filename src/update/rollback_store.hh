/**
 * @file
 * Monotonic anti-rollback counters.
 *
 * Models the small bank of one-way counters a secure processor keeps
 * inside its boundary (fuse words / monotonic NVRAM — the
 * qm-bootloader security-version-number design): one counter per
 * protected program title. A counter only ever advances; the
 * UpdateEngine refuses any bundle whose manifest counter is not
 * strictly greater, which kills downgrade and re-install/replay of
 * previously valid updates. Serializable so a device "reboot" (new
 * process, state reloaded from a file) keeps its history.
 */

#ifndef SECPROC_UPDATE_ROLLBACK_STORE_HH
#define SECPROC_UPDATE_ROLLBACK_STORE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/wire.hh"

namespace secproc::update
{

/** Bank of named monotonic counters. */
class RollbackStore
{
  public:
    /** @param capacity Counter slots available (fuse bank size). */
    explicit RollbackStore(size_t capacity = 64) : capacity_(capacity)
    {}

    /** Current value for @p title; 0 when never advanced. */
    uint64_t current(const std::string &title) const;

    /**
     * Would an update carrying @p counter be accepted? Strictly
     * greater is required: equal means replay of the installed
     * version, lower means downgrade. Also false when hasSlotFor is.
     */
    bool wouldAccept(const std::string &title, uint64_t counter) const;

    /**
     * Is there a counter slot for @p title — already tracked, or
     * bank not yet full? Lets callers distinguish "fuse bank
     * exhausted" from an actual rollback.
     */
    bool hasSlotFor(const std::string &title) const;

    /**
     * Advance @p title to @p counter. Panics unless wouldAccept —
     * the engine must gate every commit; a shrinking counter is a
     * model bug, not an input error. Fatal when a fresh title would
     * exceed the bank capacity.
     */
    void commit(const std::string &title, uint64_t counter);

    /** Titles tracked so far. */
    size_t size() const { return counters_.size(); }
    size_t capacity() const { return capacity_; }

    /** Persistence across simulated reboots. */
    static std::optional<RollbackStore>
    deserialize(std::span<const uint8_t> data)
    {
        return util::decode<RollbackStore>(data);
    }

  private:
    friend struct util::WireAccess;

    struct Counter
    {
        std::string title;
        uint64_t value = 0;
    };

    template <class W, class Self>
    static void
    wire(W &w, Self &store)
    {
        const auto counter = [](auto &cw, auto &c) {
            cw.str(c.title).u64(c.value);
        };
        w.tag(0x53505243) // "SPRC"
            .u64(store.capacity_)
            .list(store.counters_, store.capacity_, counter);
    }

    /** Titles strictly ascending and every counter past 0: the only
     *  banks commit() can build. */
    bool validate() const;

    size_t capacity_;
    /** Sorted by title, so the encoding is canonical. */
    std::vector<Counter> counters_;
};

} // namespace secproc::update

#endif // SECPROC_UPDATE_ROLLBACK_STORE_HH
