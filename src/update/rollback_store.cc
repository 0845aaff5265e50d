/**
 * @file
 * Rollback counter bank implementation.
 */

#include "update/rollback_store.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secproc::update
{

namespace
{

/** First counter whose title is not below @p title. */
template <class Counters>
auto
lowerBound(Counters &counters, const std::string &title)
{
    return std::lower_bound(
        counters.begin(), counters.end(), title,
        [](const auto &c, const std::string &t) { return c.title < t; });
}

} // namespace

uint64_t
RollbackStore::current(const std::string &title) const
{
    const auto it = lowerBound(counters_, title);
    return it != counters_.end() && it->title == title ? it->value : 0;
}

bool
RollbackStore::hasSlotFor(const std::string &title) const
{
    // Tracked titles are exactly those with a nonzero counter.
    return current(title) != 0 || counters_.size() < capacity_;
}

bool
RollbackStore::wouldAccept(const std::string &title,
                           uint64_t counter) const
{
    return counter > current(title) && hasSlotFor(title);
}

void
RollbackStore::commit(const std::string &title, uint64_t counter)
{
    panic_if(counter <= current(title),
             "rollback counter for '", title, "' would shrink: ",
             current(title), " -> ", counter);
    const auto it = lowerBound(counters_, title);
    if (it != counters_.end() && it->title == title) {
        it->value = counter;
        return;
    }
    fatal_if(counters_.size() >= capacity_,
             "rollback store full (", capacity_, " slots)");
    counters_.insert(it, Counter{title, counter});
}

bool
RollbackStore::validate() const
{
    for (size_t i = 0; i < counters_.size(); ++i) {
        if (counters_[i].value == 0 ||
            (i > 0 && counters_[i - 1].title >= counters_[i].title))
            return false;
    }
    return true;
}

} // namespace secproc::update
