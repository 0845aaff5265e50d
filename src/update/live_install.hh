/**
 * @file
 * Unified-plane secure install: the install executor with the
 * functional half attached — real bytes AND real cycles.
 *
 * The functional UpdateEngine proves *correctness* (verify → stage →
 * re-verify → activate over real bytes, zero cycles) and the
 * InstallTiming executor (install_timing.hh) owns the *cycles*: the
 * phase order, per-line issue, arbiter grants, the clock contract,
 * idle replay and per-phase accounting. LiveInstall runs that one
 * phase machine and adds only what moves or checks bytes, so a
 * single System::run() advances both planes together and the A/B
 * slot contents are checkable at any cycle:
 *
 *  - transport step-lock: the framed bundle arrives as a lossy chunk
 *    stream (ota::Transport — bandwidth cap, burst loss, reordering,
 *    retransmits). Each arrived chunk lands its real bytes in the
 *    untrusted transport buffer and is accounted as DMA write
 *    traffic on the channel; an admission line cannot be read before
 *    the network delivered it;
 *  - admission verdict: once the last line is digested and the
 *    manifest signature checked, the bundle is parsed *from the
 *    transport buffer bytes* and UpdateEngine::verify() (or, for a
 *    delta, reconstructDelta()) renders the functional verdict; a
 *    refusal ends the install with no state change;
 *  - slot writes: each stage write moves that line's real bytes, so
 *    a power cut mid-stage leaves a genuinely torn slot for
 *    activation to refuse, and a StagingJournal lets the next
 *    attempt skip lines already written;
 *  - stage commit: UpdateEngine::stage() commits the staged-pending
 *    state (re-verifying, as the functional plane always does);
 *  - activate: after the capsule unwrap, UpdateEngine::activate()
 *    atomically flips the slot, commits the rollback counter and
 *    loads the image — the single cycle at which the new image
 *    becomes the active one. The attestation quote follows.
 */

#ifndef SECPROC_UPDATE_LIVE_INSTALL_HH
#define SECPROC_UPDATE_LIVE_INSTALL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "ota/transport.hh"
#include "sim/system.hh"
#include "update/delta.hh"
#include "update/install_timing.hh"
#include "update/manifest.hh"
#include "update/update_engine.hh"

namespace secproc::update
{

/** Knobs of a live install. */
struct LiveInstallConfig
{
    /** L2 line size; one channel transaction per line. */
    uint32_t line_bytes = 128;

    /** How channel transactions contend with the foreground. */
    InstallPacing pacing = InstallPacing::Arbiter;

    /** Downlink model for the inbound bundle. */
    ota::TransportConfig transport;
};

/** Where a live install currently stands. */
enum class LiveInstallPhase
{
    Idle,          ///< nothing started, or abandoned by a reset
    Admission,     ///< transport + per-line fetch/digest + verify
    Stage,         ///< framed bundle streaming into the A/B slot
    Reverify,      ///< staged lines re-read and re-digested
    Load,          ///< image streaming to its home region
    Attest,        ///< attestation quote reservation
    Done,          ///< activated; result() holds the outcome
    Failed,        ///< refused (admission/stage/activate); see result
};

/**
 * Drives one functional UpdateEngine install step-locked to the
 * cycle plane of a System. Not owned by the System: attach with
 * System::attachAgent and keep it alive across the runs it paces.
 */
class LiveInstall : public InstallTiming
{
  public:
    /** ASID the activated image is loaded under. */
    static constexpr mem::Asid kAsid = 1;

    /**
     * @param system The machine whose channel, crypto engine, memory
     *        and protection engine the install runs against.
     * @param updater The functional update engine (its staging
     *        geometry addresses the slot writes).
     * @param compartment Compartment the image activates into.
     */
    LiveInstall(const LiveInstallConfig &config, sim::System &system,
                UpdateEngine &updater,
                secure::CompartmentId compartment);

    /**
     * Begin installing @p bundle at @p cycle: the framed bundle
     * starts streaming through the transport model immediately.
     * When the UpdateEngine carries a StagingJournal and its record
     * for the target slot matches this payload, the install resumes:
     * transport chunks whose bytes were already staged before a
     * power cut are NACKed away (never re-downloaded) and their slot
     * writes are skipped, so stagedBytesWritten() covers only the
     * lines the cut had not reached.
     */
    void start(const UpdateBundle &bundle, uint64_t cycle);

    /**
     * Begin a *delta* install at @p cycle: the framed delta bundle —
     * typically a small fraction of the full bundle — streams through
     * the transport model. Admission fetches the delta stream AND
     * reads the base bundle back out of the active slot (both paid on
     * the channel), then UpdateEngine::reconstructDelta() renders the
     * verdict: a BaseMismatch fails the install so the caller can
     * fall back to requesting the full bundle; on success the
     * reconstructed full bundle stages exactly like start()'s,
     * re-verified line by line. A journal record matching the
     * reconstructed payload resumes the stage writes the same way.
     */
    void startDelta(const DeltaBundle &delta, uint64_t cycle);

    /**
     * Trace the install onto @p sink (nullptr detaches): the executor's
     * "install" track carries the phase spans and the power-cut
     * instant, and the sink propagates to the transport's "ota" track
     * and the functional engine's security-decision instants.
     */
    void setTraceSink(obs::TraceSink *sink) override;

    /** The executor's accounting ("install.phase.<name>_cycles") plus
     *  staged-byte progress. */
    void registerMetrics(obs::MetricsRegistry &reg) const;

    /** Current phase. */
    LiveInstallPhase phase() const;

    /** Functional admission verdict, once rendered. */
    const std::optional<VerifyResult> &admission() const
    {
        return admission_;
    }

    /** Functional activation outcome, once rendered. */
    const std::optional<InstallResult> &result() const
    {
        return result_;
    }

    /** Cycle activate() committed the new image (Done only). */
    uint64_t activatedAt() const { return activated_at_; }

    /** Framed-bundle bytes functionally written to the slot so far. */
    uint64_t stagedBytesWritten() const { return staged_bytes_; }

    /** Transport stream statistics. */
    const ota::Transport &transport() const { return transport_; }

    /** Channel agent the transport DMA's writes are attributed to. */
    mem::AgentId dmaAgent() const { return dma_agent_; }

  private:
    // The executor's hooks: the functional half.
    uint64_t lineAddr(InstallPhase phase, uint64_t index) const override;
    uint64_t admissionReadyCycle(uint64_t index) const override;
    bool stageLineResumed(uint64_t index) const override;
    void onStageWrite(uint64_t index) override;
    bool commitPhase(InstallPhase phase) override;
    void pump(uint64_t cycle) override;
    uint64_t externalEventCycle() const override
    {
        return transport_.nextArrivalCycle();
    }

    sim::System &system_;
    UpdateEngine &updater_;
    secure::CompartmentId compartment_;
    ota::Transport transport_;
    mem::AgentId dma_agent_;

    std::vector<uint8_t> framed_;  ///< transport stream: magic|len|bytes
    /** Bytes the Stage phase writes into the slot. For a full
     *  install this is framed_ itself; for a delta it is the framed
     *  *reconstructed* bundle, known only once admission
     *  reconstructs it (empty until then). */
    std::vector<uint8_t> framed_slot_;
    bool delta_mode_ = false;      ///< startDelta() drove this install
    /** Framed extent of the base bundle in the active slot (delta
     *  admission readback cost; 0 when the header is unreadable). */
    uint64_t base_framed_bytes_ = 0;
    uint32_t slot_ = 0;            ///< slot this install stages into
    /** Undelivered bytes per *transport* line (network step-lock);
     *  sized by the transport stream, not the slot payload. */
    std::vector<uint32_t> line_missing_;
    /** Cycle each transport line became fully delivered. */
    std::vector<uint64_t> line_ready_;
    /** Slot lines the journal proved already staged (resume): their
     *  Stage writes are skipped and stagedBytesWritten() excludes
     *  them. */
    std::vector<uint8_t> stage_line_resumed_;
    /** Parsed from the transport buffer at admission. */
    std::optional<UpdateBundle> bundle_;
    uint64_t staged_bytes_ = 0;

    std::optional<VerifyResult> admission_;
    std::optional<InstallResult> result_;
    uint64_t activated_at_ = 0;

    void renderAdmission();

    /** Shared tail of start()/startDelta(): overlap check, transport
     *  line bookkeeping, journal resume, transport send, executor
     *  start. Expects framed_/slot_/delta_mode_ set. */
    void beginInstall(const InstallPlan &plan, uint64_t cycle);

    /** The bytes the Stage phase writes (framed_ or framed_slot_). */
    const std::vector<uint8_t> &slotPayload() const
    {
        return delta_mode_ ? framed_slot_ : framed_;
    }

    /** Admission lines read back from the active slot (a delta's
     *  base bundle; 0 for a full install). Issued before the
     *  network-locked transport lines so they overlap the download. */
    uint64_t admissionBaseLines() const
    {
        return (base_framed_bytes_ + lineBytes() - 1) / lineBytes();
    }

    /** Open (or resume) the journal session for the slot payload
     *  @p payload of @p stage_lines lines and mark the lines it
     *  proves already staged. @return true when resuming. */
    bool resumeJournal(const std::vector<uint8_t> &payload,
                       uint64_t stage_lines);

    /** Full-install resume: copy the transport chunks whose slot
     *  lines are all staged back out of the slot into the transport
     *  buffer. @return the held-chunk map for the transport send. */
    std::vector<bool> holdResumedChunks(uint64_t cycle);
};

} // namespace secproc::update

#endif // SECPROC_UPDATE_LIVE_INSTALL_HH
