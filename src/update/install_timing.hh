/**
 * @file
 * The install executor: the one cycle-plane phase machine every
 * secure install runs through.
 *
 * The UpdateEngine (update_engine.hh) is functional-only: verify(),
 * stage() and activate() move and check real bytes but cost zero
 * simulated cycles. InstallTiming replays the same flow against the
 * machine's *timing* resources — the shared MemoryChannel and the
 * shared CryptoEngineModel — so the paper-style question "what does
 * a background OTA install do to foreground slowdown?" becomes
 * answerable. One install walks these phases, in this order:
 *
 *  1. admission_read: every bundle line is fetched from the
 *     transport buffer in untrusted memory (Traffic::UpdateFill) and
 *     digested in the crypto engine (an exclusive whole-line
 *     reservation — hashing is not the pipelined pad path);
 *  2. admission_sig: the manifest signature check reserves the
 *     engine for kSignatureEngineOps line-times;
 *  3. stage_write: the framed bundle streams into the inactive A/B
 *     slot through the write buffer (Traffic::UpdateWriteback);
 *  4. reverify_read + reverify_sig: at activation the staged bytes
 *     are read back and digested again (the staging area is outside
 *     the security boundary), plus another signature check;
 *  5. load_write + capsule_unwrap: the vendor-encrypted image streams
 *     to its home region and the key capsule unwrap reserves the
 *     engine once more;
 *  6. attest: one more signing reservation for the attestation quote.
 *
 * Per-line work is self-paced — one transaction outstanding, the
 * next issued when its predecessor completes and the core clock has
 * reached it — either straight against the bus horizon
 * (InstallPacing::Fixed) or through the channel's foreground-priority
 * arbiter (InstallPacing::Arbiter). Signature-class reservations
 * (admission_sig, reverify_sig, capsule_unwrap) issue the moment the
 * preceding phase completes; the attestation quote waits for the
 * clock. System::run() drives the executor through the
 * BackgroundAgent interface, so install traffic interleaves
 * deterministically with the foreground workload's fills and
 * evictions; replay() runs it on an otherwise idle machine.
 *
 * Used directly, the executor replays a bare InstallPlan with every
 * line at one staging base — the timing-only install the
 * interference benches and the fleet's cost calibration measure.
 * LiveInstall (live_install.hh) attaches the functional half through
 * the protected hooks below: network step-lock, real slot writes,
 * the three verdict points and its own address map.
 */

#ifndef SECPROC_UPDATE_INSTALL_TIMING_HH
#define SECPROC_UPDATE_INSTALL_TIMING_HH

#include <array>
#include <cstdint>

#include "crypto/latency.hh"
#include "mem/memory_channel.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/agent.hh"

namespace secproc::update
{

/**
 * Resource demands of one install, in line-sized units. Built from
 * the framed and image sizes of a real bundle or synthesized from an
 * image size; the executor turns it into channel transactions and
 * engine reservations.
 */
struct InstallPlan
{
    /** Framed bundle lines written into the staging slot. */
    uint64_t stage_lines = 0;

    /** Bundle lines read back and digested per verification pass. */
    uint64_t verify_lines = 0;

    /**
     * Lines fetched + digested during admission, when different from
     * verify_lines (0 means "same as verify_lines"). A delta install
     * admits far fewer transport lines than it re-verifies: the
     * downlink carries only the delta, but admission also reads and
     * digests the base bundle out of the active slot to check the
     * manifest's base_digest before reconstruction.
     */
    uint64_t admission_lines = 0;

    /** Image lines streamed to their home region at load. */
    uint64_t load_lines = 0;

    /**
     * The exact demands of installing a bundle whose slot framing
     * (kSlotHeaderBytes included) is @p framed_bytes long and whose
     * image payload is @p image_bytes.
     */
    static InstallPlan fromBundle(uint64_t framed_bytes,
                                  uint64_t image_bytes,
                                  uint32_t line_bytes);

    /** Synthetic plan for an image of @p image_bytes payload. */
    static InstallPlan fromImageBytes(uint64_t image_bytes,
                                      uint32_t line_bytes);

    /**
     * The demands of a delta install: admission covers the framed
     * delta stream (@p delta_framed_bytes) plus the base-bundle
     * readback (@p base_framed_bytes); staging, reverify and load
     * cover the full @p reconstructed bundle (slot-to-slot
     * reconstruction writes every line of the new image).
     */
    static InstallPlan fromDelta(uint64_t delta_framed_bytes,
                                 uint64_t base_framed_bytes,
                                 const InstallPlan &reconstructed,
                                 uint32_t line_bytes);

    /** Lines the admission pass actually touches. */
    uint64_t
    admissionLines() const
    {
        return admission_lines != 0 ? admission_lines : verify_lines;
    }
};

/**
 * How install transactions reach the shared channel.
 */
enum class InstallPacing
{
    /**
     * Issue immediately against the bus horizon; write streams are
     * paced at the bus transfer time (the install takes bandwidth
     * whenever its own pipeline is ready).
     */
    Fixed,

    /**
     * Queue every transaction through the channel's
     * foreground-priority arbiter and only proceed on grant: the
     * install self-throttles into bus idle time, bounded below by
     * the channel's starvation bound.
     */
    Arbiter,
};

/** The install pipeline's phases, in execution order. */
enum class InstallPhase : uint8_t
{
    AdmissionRead,  ///< fetch + digest bundle lines (verify)
    AdmissionSig,   ///< manifest signature check
    StageWrite,     ///< stream framed bundle into the slot
    ReverifyRead,   ///< fetch + digest staged lines (activate)
    ReverifySig,    ///< staged manifest signature re-check
    LoadWrite,      ///< stream image lines to their home region
    CapsuleUnwrap,  ///< RSA key-capsule unwrap
    Attest,         ///< attestation quote signature
    Idle,           ///< nothing in flight
};

/** Short phase name for traces and metrics ("admission_read", ...). */
const char *installPhaseName(InstallPhase phase);

/**
 * Replays InstallPlans against a machine's shared channel and crypto
 * engine as a self-paced background agent.
 */
class InstallTiming : public sim::BackgroundAgent
{
  public:
    /**
     * Crypto-engine reservation, in whole-line operation times, for
     * one RSA signature verification, the key capsule unwrap and the
     * attestation quote. A dedicated big-number unit would shrink
     * this; the paper's machine has only the one line engine.
     */
    static constexpr uint32_t kSignatureEngineOps = 16;

    /**
     * Registers the "updater" channel agent for attribution.
     *
     * @param channel The machine's memory channel.
     * @param engine The machine's shared crypto engine.
     * @param line_bytes L2 line size; one channel transaction per
     *        line.
     */
    InstallTiming(mem::MemoryChannel &channel,
                  crypto::CryptoEngineModel &engine, uint32_t line_bytes,
                  InstallPacing pacing = InstallPacing::Fixed);

    /**
     * Begin replaying @p plan at @p cycle. With @p repeat, a new
     * install of the same plan starts as soon as one completes
     * (continuous OTA pressure; steady-state interference).
     */
    void start(const InstallPlan &plan, uint64_t cycle,
               bool repeat = false);

    // BackgroundAgent interface.
    void advance(uint64_t cycle) final;
    bool done() const final { return phase_ == InstallPhase::Idle; }
    uint64_t nextEventCycle(uint64_t now) const final;

    /**
     * Power cut / machine reset: abandon the install in flight (a
     * "power_cut_reset" trace instant marks it). Pair with
     * System::reset(), which drops the channel-side queued request
     * and calls this hook.
     */
    void reset() final;

    /**
     * Trace the replay onto @p sink (nullptr detaches): one span per
     * pipeline phase. Inherited from System::setTraceSink when
     * attached.
     */
    void setTraceSink(obs::TraceSink *sink) override;

    /**
     * Run the install in flight to completion regardless of the core
     * clock (idle-machine replay). @return the cycle it finished (or
     * failed). Must not be called on a repeating replay — it would
     * never finish.
     */
    uint64_t replay();

    /**
     * Register per-phase cycle accounting
     * ("<track>.phase.<name>_cycles") and the install counter with
     * @p reg.
     */
    void registerMetrics(obs::MetricsRegistry &reg) const;

    /** Installs run to their end so far. */
    uint64_t installsCompleted() const { return installs_completed_; }

    /** Cycles from start to end of the most recently finished
     *  install (0 while the first one is in flight). */
    uint64_t installCycles() const { return install_cycles_; }

    /**
     * Cycles spent in @p phase since start(). The phases are
     * contiguous, so they sum to installCycles() once an install
     * finishes.
     */
    uint64_t
    phaseCycles(InstallPhase phase) const
    {
        return phase_cycles_[static_cast<size_t>(phase)];
    }

    /** Channel agent this replay's traffic is attributed to. */
    mem::AgentId agent() const { return agent_; }

  protected:
    /**
     * For an executor with a functional half attached.
     *
     * @param agent_name Channel-agent name of the install traffic.
     * @param track_name Trace track (and metrics prefix) of the
     *        phase spans.
     * @param replay_step Cycles replay() moves the idle clock past
     *        the cursor when the pipeline is not waiting on a grant
     *        (the downlink's chunk interval when blocked on it).
     */
    InstallTiming(mem::MemoryChannel &channel,
                  crypto::CryptoEngineModel &engine, uint32_t line_bytes,
                  InstallPacing pacing, const char *agent_name,
                  const char *track_name, uint64_t replay_step);

    /** Hooks for a functional half; the defaults are the bare
     *  timing replay. @{ */

    /** Address of line @p index of @p phase (bank selection). */
    virtual uint64_t lineAddr(InstallPhase phase, uint64_t index) const;

    /** Cycle admission line @p index became readable, or
     *  sim::kNeverCycle while it has not arrived yet. */
    virtual uint64_t admissionReadyCycle(uint64_t) const { return 0; }

    /** True when stage line @p index already sits in the slot. */
    virtual bool stageLineResumed(uint64_t) const { return false; }

    /** Stage line @p index was written (issue or grant). */
    virtual void onStageWrite(uint64_t) {}

    /** Verdict point at the end of @p phase: false ends the install
     *  there. */
    virtual bool commitPhase(InstallPhase) { return true; }

    /** Collect outside inputs up to @p cycle (each advance()). */
    virtual void pump(uint64_t) {}

    /** Earliest cycle an outside input can arrive. */
    virtual uint64_t externalEventCycle() const
    {
        return sim::kNeverCycle;
    }

    /** @} */

    uint32_t lineBytes() const { return line_bytes_; }

    /** Phase the pipeline is in (Idle when nothing is in flight). */
    InstallPhase pipelinePhase() const { return phase_; }

    /** True once the install started last ran to its end, pass or
     *  fail; false while it runs, after reset() and before start(). */
    bool finished() const { return finished_; }

    /** Completion cycle of the last action issued. */
    uint64_t cursor() const { return cursor_; }

    /** The plan in flight; a verdict hook may extend it once the
     *  remaining extents are known (delta reconstruction). */
    InstallPlan plan_;

  private:
    mem::MemoryChannel &channel_;
    crypto::CryptoEngineModel &engine_;
    const uint32_t line_bytes_;
    const InstallPacing pacing_;
    const char *const track_name_;
    const uint64_t replay_step_;
    const mem::AgentId agent_;

    bool repeat_ = false;
    bool finished_ = false;
    InstallPhase phase_ = InstallPhase::Idle;
    uint64_t phase_index_ = 0; ///< lines issued in the current phase
    uint64_t cursor_ = 0;      ///< completion cycle of the last action
    /** Arbiter pacing: a channel request is in flight. */
    bool waiting_ = false;
    uint64_t install_start_ = 0;
    uint64_t installs_completed_ = 0;
    uint64_t install_cycles_ = 0;

    /** Cycle the current phase was entered (span start). */
    uint64_t phase_started_at_ = 0;
    /** Cycles spent per phase, indexed by InstallPhase. */
    std::array<uint64_t, static_cast<size_t>(InstallPhase::Idle)>
        phase_cycles_{};

    obs::TraceSink *trace_ = nullptr;
    obs::TrackId trace_track_ = 0;

    /** Issue the next transaction/reservation if its inputs are
     *  ready; false when blocked on an outside input. */
    bool issueNext();

    /** Arbiter pacing: fold a granted transaction's completion into
     *  the pipeline (reads chain into an engine reservation). */
    void completeGrant(uint64_t completion);

    /** One line of the current phase done at @p done_at. */
    void finishLine(uint64_t done_at);

    /** How many per-line items the plan puts in @p phase. */
    uint64_t phaseItems(InstallPhase phase) const;

    /** Close the running phase's span (cycles + trace duration). */
    void closePhaseSpan();

    void enterPhase(InstallPhase phase);
    void completePhase();
    void finishInstall();
};

} // namespace secproc::update

#endif // SECPROC_UPDATE_INSTALL_TIMING_HH
