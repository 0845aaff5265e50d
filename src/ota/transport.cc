/**
 * @file
 * OTA transport implementation.
 */

#include "ota/transport.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secproc::ota
{

Transport::Transport(const TransportConfig &config)
    : config_(config)
{
    fatal_if(config_.chunk_bytes == 0, "transport needs a chunk size");
    fatal_if(config_.cycles_per_chunk == 0,
             "transport needs a bandwidth cap");
    fatal_if(config_.loss_rate < 0.0 || config_.loss_rate >= 1.0,
             "chunk loss rate must be in [0, 1)");
    fatal_if(config_.burst_length < 1.0,
             "a loss burst drops at least one chunk");
}

void
Transport::send(std::vector<uint8_t> payload, uint64_t cycle)
{
    send(std::move(payload), cycle, {});
}

void
Transport::send(std::vector<uint8_t> payload, uint64_t cycle,
                const std::vector<bool> &held)
{
    payload_ = std::move(payload);
    schedule_.clear();
    next_ = 0;
    sent_ = true;
    send_cycle_ = cycle;
    chunks_skipped_ = 0;

    // The work list for the current pass: chunk offsets still
    // undelivered. The first pass covers the whole payload in offset
    // order (minus chunks the receiver reported already held — a
    // resumed staging session); every later pass retransmits the
    // previous pass's drop set.
    std::vector<uint64_t> todo;
    for (uint64_t off = 0; off < payload_.size();
         off += config_.chunk_bytes) {
        const uint64_t index = off / config_.chunk_bytes;
        if (index < held.size() && held[index]) {
            ++chunks_skipped_;
            continue;
        }
        todo.push_back(off);
    }

    LossSchedule loss(config_, cycle);
    std::vector<uint64_t> lost;
    while (!todo.empty()) {
        loss.beginPass();
        lost.clear();
        for (const uint64_t off : todo) {
            const uint64_t arrival = loss.transmit();
            if (arrival == LossSchedule::kLost) {
                if (trace_ != nullptr) {
                    trace_->instant(trace_track_, "chunk_lost",
                                    loss.clock(), {{"offset", off}});
                }
                lost.push_back(off);
                continue;
            }
            const uint32_t length = static_cast<uint32_t>(
                std::min<uint64_t>(config_.chunk_bytes,
                                   payload_.size() - off));
            schedule_.push_back(Arrival{off, length, arrival});
        }
        todo.swap(lost);
        if (trace_ != nullptr && !todo.empty()) {
            trace_->instant(trace_track_, "retransmit_pass",
                            loss.clock(), {{"chunks", todo.size()}});
        }
        loss.endPass();
    }
    chunks_sent_ = loss.chunksSent();
    chunks_lost_ = loss.chunksLost();
    chunks_reordered_ = loss.chunksReordered();
    retransmit_passes_ = loss.retransmitPasses();

    std::stable_sort(schedule_.begin(), schedule_.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.cycle < b.cycle;
                     });
}

std::vector<Transport::Chunk>
Transport::poll(uint64_t cycle)
{
    std::vector<Chunk> out;
    while (next_ < schedule_.size() &&
           schedule_[next_].cycle <= cycle) {
        const Arrival &arrival = schedule_[next_];
        Chunk chunk;
        chunk.offset = arrival.offset;
        chunk.arrival_cycle = arrival.cycle;
        chunk.bytes.assign(
            payload_.begin() + static_cast<ptrdiff_t>(arrival.offset),
            payload_.begin() +
                static_cast<ptrdiff_t>(arrival.offset + arrival.length));
        if (trace_ != nullptr) {
            trace_->instant(trace_track_, "chunk", arrival.cycle,
                            {{"offset", arrival.offset}});
        }
        out.push_back(std::move(chunk));
        ++next_;
    }
    return out;
}

void
Transport::setTraceSink(obs::TraceSink *sink)
{
    trace_ = sink;
    if (sink != nullptr)
        trace_track_ = sink->track("ota");
}

uint64_t
Transport::completionCycle() const
{
    panic_if(!sent_, "no stream was sent");
    // A degenerate stream (empty payload, or every chunk held by a
    // resumed receiver) schedules nothing and completes at the send
    // cycle itself; this used to panic on the empty schedule, which
    // delta bundles' tiny payloads turned into a real crash.
    return schedule_.empty() ? send_cycle_ : schedule_.back().cycle;
}

} // namespace secproc::ota
