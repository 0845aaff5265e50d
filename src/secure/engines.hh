/**
 * @file
 * The three concrete protection engines: insecure baseline, XOM
 * direct encryption, and the paper's one-time-pad + SNC design.
 */

#ifndef SECPROC_SECURE_ENGINES_HH
#define SECPROC_SECURE_ENGINES_HH

#include <deque>
#include <optional>

#include "secure/protection_engine.hh"
#include "util/flat_map.hh"
#include "util/radix_array.hh"

namespace secproc::secure
{

/**
 * Insecure baseline processor: plain fills and write-backs. All
 * slowdown figures in the paper are measured against this machine.
 */
class BaselineEngine : public ProtectionEngine
{
  public:
    using ProtectionEngine::ProtectionEngine;

    std::string name() const override { return "baseline"; }

    FillPlan planFill(uint64_t line_va, bool ifetch,
                      mem::RegionKind kind) override;
    EvictPlan planEvict(uint64_t line_va,
                        mem::RegionKind kind) override;
    FillResult scheduleFill(const FillPlan &plan,
                            uint64_t cycle) override;
    void scheduleEvict(const EvictPlan &plan, uint64_t cycle) override;
    void applyFill(const FillPlan &plan,
                   std::span<uint8_t> bytes) const override;
    void applyEvict(const EvictPlan &plan,
                    std::span<uint8_t> bytes) const override;
};

/**
 * XOM-style machine (paper Section 2): every protected line is
 * direct-encrypted; decryption serializes after the memory fetch, so
 * a fill costs memory latency plus crypto latency.
 */
class XomEngine : public ProtectionEngine
{
  public:
    using ProtectionEngine::ProtectionEngine;

    std::string name() const override { return "xom"; }

    FillPlan planFill(uint64_t line_va, bool ifetch,
                      mem::RegionKind kind) override;
    EvictPlan planEvict(uint64_t line_va,
                        mem::RegionKind kind) override;
    FillResult scheduleFill(const FillPlan &plan,
                            uint64_t cycle) override;
    void scheduleEvict(const EvictPlan &plan, uint64_t cycle) override;
    void applyFill(const FillPlan &plan,
                   std::span<uint8_t> bytes) const override;
    void applyEvict(const EvictPlan &plan,
                    std::span<uint8_t> bytes) const override;
};

/**
 * The paper's contribution: one-time-pad (counter-mode) encryption
 * with seeds formed from the line's virtual address and a per-line
 * sequence number cached in the on-chip SNC.
 *
 * Instruction fetches use a constant virtual-address seed and always
 * take the fast path. Data fills query the SNC; hits overlap pad
 * generation with the memory fetch (max(mem, crypto) + 1), misses
 * pay a sequence-number fetch and decryption first (LRU policy) or
 * fall back to the XOM path (no-replacement policy).
 */
class OtpEngine : public ProtectionEngine
{
  public:
    OtpEngine(const ProtectionConfig &config,
              mem::MemoryChannel &channel, const KeyTable &keys,
              crypto::CryptoEngineModel *shared_crypto = nullptr);

    std::string name() const override { return "otp-snc"; }

    FillPlan planFill(uint64_t line_va, bool ifetch,
                      mem::RegionKind kind) override;
    EvictPlan planEvict(uint64_t line_va,
                        mem::RegionKind kind) override;
    FillResult scheduleFill(const FillPlan &plan,
                            uint64_t cycle) override;
    void scheduleEvict(const EvictPlan &plan, uint64_t cycle) override;
    void applyFill(const FillPlan &plan,
                   std::span<uint8_t> bytes) const override;
    void applyEvict(const EvictPlan &plan,
                    std::span<uint8_t> bytes) const override;

    void reset() override;
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const override;

    /** The on-chip sequence number cache. */
    const SequenceNumberCache &snc() const { return snc_; }

    /**
     * Context switch handling (paper Section 4.3): flush the SNC,
     * spilling every entry to the encrypted in-memory table.
     * @param cycle When the switch happens (for write scheduling).
     * @return number of entries flushed.
     */
    size_t flushSnc(uint64_t cycle);

    /** Under the Flush policy the SNC spills on every switch. */
    size_t onContextSwitch(uint64_t cycle, bool flush) override
    {
        return flush ? flushSnc(cycle) : 0;
    }

    /** Pads pre-generated by the prediction unit (A11). */
    uint64_t padPredictions() const { return pad_predictions_.value(); }

    /** Fills whose pad was already in the pad buffer. */
    uint64_t padPredictionHits() const
    {
        return pad_prediction_hits_.value();
    }

  private:
    SequenceNumberCache snc_;

    /**
     * The encrypted in-memory sequence-number table: entries evicted
     * from the SNC live here (LRU policy). Functional contents are
     * authoritative for plan decisions; its traffic is modelled via
     * the channel's Seqnum categories. Keyed by line index — spills
     * and sector co-fetches touch neighbouring lines, so the radix
     * layout keeps them in one group.
     */
    util::RadixArray<uint32_t> memory_table_;

    /**
     * Pad buffer (pad_prediction): seed -> cycle the pre-generated
     * pad is ready. Bounded FIFO; timing-only state (the pad bytes
     * are deterministic from the seed, so applyFill needs nothing).
     */
    util::FlatMap<uint64_t> pad_buffer_;
    std::deque<uint64_t> pad_buffer_fifo_;

    util::Counter query_miss_fills_;
    util::Counter direct_fallback_fills_;
    util::Counter pad_predictions_;
    util::Counter pad_prediction_hits_;

    uint32_t wrapIncrement(uint32_t seqnum);
    void installWithSpill(uint64_t line_va, uint32_t seqnum,
                          EvictPlan *plan);

    /**
     * Fold an SNC install result into engine state: spill victims
     * to the in-memory table and populate cofetched sector slots.
     */
    void absorbInstall(const SncInstall &install, uint64_t line_va,
                       bool *victim_spilled);

    /**
     * Pad-buffer lookup: cycle the pre-generated pad for @p seed is
     * ready, or nullopt. A hit consumes the entry.
     */
    std::optional<uint64_t> takePredictedPad(uint64_t seed);

    /** Pre-generate the pad for the line after @p line_va. */
    void predictNextPad(uint64_t line_va, bool ifetch, uint64_t cycle);

    /**
     * Functional-plane pad memo. A pad is a pure function of the
     * active compartment's key and the (address, seqnum) seed, and
     * read-mostly lines are refetched under unchanged sequence
     * numbers, so most fills can reuse the pad from the previous
     * visit instead of re-running the block cipher. Purely a host
     * optimization: the cycle plane still charges every pad through
     * the CryptoEngineModel, and the XOR result is identical.
     */
    const std::vector<uint8_t> &cachedPad(uint64_t seed,
                                          size_t len) const;
    static constexpr size_t kPadCacheEntries = 1 << 16;
    mutable util::FlatMap<std::vector<uint8_t>> pad_cache_;
    mutable CompartmentId pad_cache_compartment_ = 0;
};

} // namespace secproc::secure

#endif // SECPROC_SECURE_ENGINES_HH
