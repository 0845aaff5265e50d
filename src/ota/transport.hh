/**
 * @file
 * Over-the-air transport model: how an update bundle actually
 * reaches the device.
 *
 * The update planes so far assumed the whole bundle sits in the
 * transport buffer before the install begins. Real OTA downlinks
 * deliver a *chunk stream*: bandwidth-capped, with bursty loss
 * (radio fades, lossy links) and reordering (multi-path, retries),
 * and lost chunks only reappear after a NACK round trip. The
 * Transport precomputes a deterministic arrival schedule from a
 * seeded RNG, so every experiment replays bit-identically: chunks
 * are transmitted in offset order at the bandwidth cap, a
 * Gilbert-style two-state process drops bursts of them, survivors
 * may be jittered out of order, and the drop set is retransmitted
 * (subject to the same loss process) one NACK round trip after the
 * pass that lost it — until every payload byte has arrived.
 *
 * The loss process itself is LossSchedule, which the fleet's
 * lightweight download model (fleet/device.hh) draws from too.
 *
 * Consumers poll(cycle) for newly arrived chunks; the LiveInstall
 * agent step-locks its admission verify against this stream, so an
 * install can make no progress on bytes the network has not
 * delivered yet.
 */

#ifndef SECPROC_OTA_TRANSPORT_HH
#define SECPROC_OTA_TRANSPORT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace secproc::ota
{

/** Knobs of the OTA downlink. */
struct TransportConfig
{
    /** Payload bytes per chunk (the link MTU). */
    uint32_t chunk_bytes = 1024;

    /** Cycles between successive chunk transmissions (bandwidth
     *  cap; chunk_bytes / cycles_per_chunk is the link rate). */
    uint32_t cycles_per_chunk = 2048;

    /** Probability a transmission enters a loss burst. */
    double loss_rate = 0.0;

    /** Mean chunks lost per burst (geometric burst length >= 1). */
    double burst_length = 4.0;

    /** Probability a delivered chunk is jittered out of order. */
    double reorder_rate = 0.0;

    /** Max chunk slots a jittered chunk is delayed by. */
    uint32_t reorder_window = 4;

    /** Cycles from end of a pass to its retransmissions (NACK RTT). */
    uint64_t retransmit_delay = 16384;

    /** Loss/reorder RNG seed; same seed, same arrival schedule. */
    uint64_t seed = 0x07A'7EA5;
};

/**
 * The downlink's loss process, one transmission at a time. Chunks go
 * out in passes at the bandwidth cap; a Gilbert-style two-state
 * process drops bursts of them (a geometric number of extra losses
 * after the one that opens a burst), survivors may be jittered up to
 * reorder_window chunk slots late, and the drop set is retransmitted
 * as the next pass one NACK round trip later, on a clear channel.
 *
 * A consumer calls beginPass(), then transmit() once per chunk the
 * pass carries, then endPass(); every chunk transmit() reports lost
 * belongs in the next pass. Arrival cycles depend only on a chunk's
 * position within its pass, so Transport::send (which tracks
 * offsets) and fleet::simulateDownload (which only counts chunks)
 * draw the same sequence from the same seed.
 */
class LossSchedule
{
  public:
    /** transmit()'s value for a chunk the link dropped. */
    static constexpr uint64_t kLost = UINT64_MAX;

    LossSchedule(const TransportConfig &config, uint64_t start_cycle)
        : config_(config), rng_(config.seed), clock_(start_cycle)
    {
    }

    /** Open the next pass. */
    void
    beginPass()
    {
        // A stuck loss process cannot happen (loss_rate < 1 and
        // burst lengths are finite), but bound the passes anyway so
        // a config change fails loudly instead of spinning.
        constexpr uint64_t kMaxPasses = 10'000;
        fatal_if(++passes_ > kMaxPasses, "downlink retransmitted the "
                 "same payload ", kMaxPasses,
                 " times; loss model is stuck");
    }

    /** Transmit one chunk. @return its arrival cycle, or kLost. */
    uint64_t
    transmit()
    {
        clock_ += config_.cycles_per_chunk;
        ++sent_;
        if (burst_remaining_ == 0 && rng_.chance(config_.loss_rate)) {
            burst_remaining_ =
                1 + rng_.nextGeometric(1.0 / config_.burst_length);
        }
        if (burst_remaining_ > 0) {
            --burst_remaining_;
            ++lost_;
            return kLost;
        }
        uint64_t arrival = clock_;
        if (config_.reorder_rate > 0.0 &&
            rng_.chance(config_.reorder_rate)) {
            const uint64_t jitter =
                1 + rng_.nextRange(std::max(config_.reorder_window, 1u));
            arrival += jitter * config_.cycles_per_chunk;
            ++reordered_;
        }
        return arrival;
    }

    /** Close the pass: its losses go out one NACK round trip later. */
    void
    endPass()
    {
        clock_ += config_.retransmit_delay;
        burst_remaining_ = 0;
    }

    /** Transmit cycle of the latest chunk (pass end before endPass). */
    uint64_t clock() const { return clock_; }

    uint64_t chunksSent() const { return sent_; }
    uint64_t chunksLost() const { return lost_; }
    uint64_t chunksReordered() const { return reordered_; }
    uint64_t retransmitPasses() const
    {
        return passes_ == 0 ? 0 : passes_ - 1;
    }

  private:
    const TransportConfig config_;
    util::Rng rng_;
    uint64_t clock_;
    uint64_t burst_remaining_ = 0;
    uint64_t passes_ = 0;
    uint64_t sent_ = 0;
    uint64_t lost_ = 0;
    uint64_t reordered_ = 0;
};

/**
 * One deterministic lossy downlink carrying one payload.
 */
class Transport
{
  public:
    /** A delivered piece of the payload. */
    struct Chunk
    {
        uint64_t offset;       ///< payload offset of the first byte
        uint64_t arrival_cycle;
        std::vector<uint8_t> bytes;
    };

    explicit Transport(const TransportConfig &config);

    /**
     * Begin streaming @p payload at @p cycle. Computes the full
     * arrival schedule (transmissions, losses, retransmissions)
     * up front; resets any previous stream. An empty payload is a
     * legal degenerate stream: complete() immediately, nothing to
     * poll, completionCycle() == @p cycle.
     */
    void send(std::vector<uint8_t> payload, uint64_t cycle);

    /**
     * Resume-aware send: like send(), but chunk indices marked true
     * in @p held (payload offset / chunk_bytes) are already in the
     * receiver's hands — a resumed staging session after a power
     * cut — so the device NACKs only the missing ranges and the held
     * chunks are never transmitted. Indices past the end of @p held
     * are treated as missing.
     */
    void send(std::vector<uint8_t> payload, uint64_t cycle,
              const std::vector<bool> &held);

    /**
     * Chunks that have arrived by @p cycle and have not been
     * collected yet, in arrival order. @p cycle must not decrease
     * between calls.
     */
    std::vector<Chunk> poll(uint64_t cycle);

    /** True once every payload byte has an arrival scheduled and
     *  collected via poll(). */
    bool complete() const { return next_ == schedule_.size(); }

    /**
     * Arrival cycle of the earliest chunk poll() has not yet
     * delivered, or UINT64_MAX once the stream is fully collected.
     * The schedule is sorted by cycle, so a poll strictly before
     * this cycle is a no-op — the event kernel's transport wakeup.
     */
    uint64_t
    nextArrivalCycle() const
    {
        return next_ < schedule_.size() ? schedule_[next_].cycle
                                        : UINT64_MAX;
    }

    /** Cycle the last chunk of the stream arrives (the send cycle
     *  itself when nothing needed transmitting: empty payload, or
     *  every chunk already held). Panics only if send() was never
     *  called. */
    uint64_t completionCycle() const;

    /** Payload size of the current stream. */
    uint64_t payloadBytes() const { return payload_.size(); }

    /** Statistics over the current stream. @{ */
    uint64_t chunksSent() const { return chunks_sent_; }
    uint64_t chunksLost() const { return chunks_lost_; }
    uint64_t chunksReordered() const { return chunks_reordered_; }
    /** Chunks skipped because the receiver already held them. */
    uint64_t chunksSkipped() const { return chunks_skipped_; }
    uint64_t retransmitPasses() const { return retransmit_passes_; }
    /** @} */

    const TransportConfig &config() const { return config_; }

    /**
     * Trace the downlink onto @p sink (nullptr detaches): an "ota"
     * track carries one instant per chunk arrival (collected via
     * poll), per loss, and per retransmission pass. The arrival
     * schedule itself is computed identically with or without a
     * sink attached.
     */
    void setTraceSink(obs::TraceSink *sink);

  private:
    /** Scheduled arrival of one payload range. */
    struct Arrival
    {
        uint64_t offset;
        uint32_t length;
        uint64_t cycle;
    };

    TransportConfig config_;
    std::vector<uint8_t> payload_;
    std::vector<Arrival> schedule_; ///< sorted by arrival cycle
    size_t next_ = 0;               ///< first uncollected arrival
    bool sent_ = false;             ///< send() has been called
    uint64_t send_cycle_ = 0;
    uint64_t chunks_sent_ = 0;
    uint64_t chunks_lost_ = 0;
    uint64_t chunks_reordered_ = 0;
    uint64_t chunks_skipped_ = 0;
    uint64_t retransmit_passes_ = 0;
    obs::TraceSink *trace_ = nullptr;
    obs::TrackId trace_track_ = 0;
};

} // namespace secproc::ota

#endif // SECPROC_OTA_TRANSPORT_HH
