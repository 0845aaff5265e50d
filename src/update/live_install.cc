/**
 * @file
 * Unified-plane install implementation: the executor's functional
 * hooks.
 */

#include "update/live_install.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::update
{

namespace
{

/** Untrusted buffer the OTA stream lands in (disjoint from the A/B
 *  staging area; beginInstall checks). */
constexpr uint64_t kTransportBase = 0x6000'0000;

} // namespace

LiveInstall::LiveInstall(const LiveInstallConfig &config,
                         sim::System &system, UpdateEngine &updater,
                         secure::CompartmentId compartment)
    : InstallTiming(system.channel(), system.cryptoEngine(),
                    config.line_bytes, config.pacing, "live_installer",
                    "install", config.transport.cycles_per_chunk),
      system_(system), updater_(updater), compartment_(compartment),
      transport_(config.transport),
      dma_agent_(system.channel().registerAgent("ota_dma"))
{
}

LiveInstallPhase
LiveInstall::phase() const
{
    switch (pipelinePhase()) {
      case InstallPhase::AdmissionRead:
      case InstallPhase::AdmissionSig:
        return LiveInstallPhase::Admission;
      case InstallPhase::StageWrite:
        return LiveInstallPhase::Stage;
      case InstallPhase::ReverifyRead:
      case InstallPhase::ReverifySig:
        return LiveInstallPhase::Reverify;
      case InstallPhase::LoadWrite:
      case InstallPhase::CapsuleUnwrap:
        return LiveInstallPhase::Load;
      case InstallPhase::Attest:
        return LiveInstallPhase::Attest;
      case InstallPhase::Idle:
        break;
    }
    if (!finished())
        return LiveInstallPhase::Idle;
    return result_->ok() ? LiveInstallPhase::Done
                         : LiveInstallPhase::Failed;
}

void
LiveInstall::start(const UpdateBundle &bundle, uint64_t cycle)
{
    fatal_if(!done(), "an install is already in flight");
    delta_mode_ = false;
    framed_ = frameBundle(bundle);
    framed_slot_.clear();
    base_framed_bytes_ = 0;
    slot_ = updater_.stagingSlot();
    beginInstall(InstallPlan::fromBundle(framed_.size(),
                                         bundle.image.totalBytes(),
                                         lineBytes()),
                 cycle);
}

void
LiveInstall::startDelta(const DeltaBundle &delta, uint64_t cycle)
{
    fatal_if(!done(), "an install is already in flight");
    delta_mode_ = true;
    framed_ = frameBundle(delta);
    framed_slot_.clear();
    // The base-bundle readback is part of admission's channel bill;
    // its extent comes from the active slot's header. An unreadable
    // header costs nothing extra here — reconstructDelta() renders
    // the BaseMismatch verdict after the (tiny) delta stream lands.
    base_framed_bytes_ =
        updater_
            .framedExtent(updater_.activeSlot(), system_.mainMemory())
            .value_or(0);
    slot_ = updater_.stagingSlot();
    // Stage/verify/load extents belong to the *reconstructed* bundle
    // and are filled in at the admission verdict; until then only
    // the admission pass can run, and its count is final already.
    beginInstall(InstallPlan::fromDelta(framed_.size(),
                                        base_framed_bytes_,
                                        InstallPlan{}, lineBytes()),
                 cycle);
}

void
LiveInstall::beginInstall(const InstallPlan &plan, uint64_t cycle)
{
    // The stream must not land on top of the A/B slots: a silent
    // overlap would corrupt staged bytes mid-install. Checked here,
    // where the buffer's real extent is known.
    const uint64_t transport_end = kTransportBase + framed_.size();
    const uint64_t staging_end =
        updater_.slotBase(1) + updater_.staging().slot_size;
    fatal_if(kTransportBase < staging_end &&
                 transport_end > updater_.staging().base,
             "transport buffer [", kTransportBase, ", ", transport_end,
             ") overlaps the A/B staging area");

    const uint32_t line_bytes = lineBytes();
    const uint64_t transport_lines =
        util::divCeil(framed_.size(), line_bytes);
    line_missing_.assign(transport_lines, 0);
    line_ready_.assign(transport_lines, 0);
    for (uint64_t i = 0; i < transport_lines; ++i) {
        const uint64_t begin = i * line_bytes;
        line_missing_[i] = static_cast<uint32_t>(
            std::min<uint64_t>(line_bytes, framed_.size() - begin));
    }

    // A matching journal record turns this into a resumed session:
    // chunks whose bytes already sit in the slot are NACKed away
    // before the transport ever transmits them. A delta's stream
    // carries patch ops, not slot bytes — its journal resume applies
    // to the stage writes only, wired up after reconstruction.
    std::vector<bool> held;
    stage_line_resumed_.clear();
    if (!delta_mode_ && resumeJournal(framed_, plan.stage_lines))
        held = holdResumedChunks(cycle);
    transport_.send(framed_, cycle, held);

    activated_at_ = 0;
    staged_bytes_ = 0;
    admission_.reset();
    result_.reset();
    bundle_.reset();
    InstallTiming::start(plan, cycle);
}

bool
LiveInstall::resumeJournal(const std::vector<uint8_t> &payload,
                           uint64_t stage_lines)
{
    stage_line_resumed_.assign(stage_lines, 0);
    StagingJournal *journal = updater_.journal();
    if (journal == nullptr ||
        !journal->begin(slot_, sha256Digest(payload), payload.size(),
                        lineBytes()))
        return false; // fresh session (different payload, or first try)
    for (uint64_t i = 0; i < stage_lines; ++i)
        stage_line_resumed_[i] = journal->chunkDone(slot_, i) ? 1 : 0;
    return true;
}

std::vector<bool>
LiveInstall::holdResumedChunks(uint64_t cycle)
{
    // A transport chunk is held — never re-downloaded — iff every
    // slot line it overlaps was journaled complete. The device then
    // copies those bytes back out of the slot into the transport
    // buffer itself: the journal is only a hint, so the resumed
    // bytes flow through the same admission fetch/digest/parse as
    // fresh ones and a slot that rotted while powered off fails
    // verification exactly like a torn download.
    const uint32_t line_bytes = lineBytes();
    const uint32_t chunk_bytes = transport_.config().chunk_bytes;
    const uint64_t nchunks = util::divCeil(framed_.size(), chunk_bytes);
    std::vector<bool> held(nchunks, false);
    std::vector<uint8_t> copy;
    for (uint64_t c = 0; c < nchunks; ++c) {
        const uint64_t begin = c * chunk_bytes;
        const uint64_t end =
            std::min<uint64_t>(begin + chunk_bytes, framed_.size());
        const uint64_t first = begin / line_bytes;
        const uint64_t last = (end - 1) / line_bytes;
        bool complete = true;
        for (uint64_t line = first; line <= last; ++line) {
            if (stage_line_resumed_[line] == 0) {
                complete = false;
                break;
            }
        }
        if (!complete)
            continue;
        held[c] = true;
        copy.resize(end - begin);
        system_.mainMemory().read(updater_.slotBase(slot_) + begin,
                                  copy.data(), copy.size());
        system_.mainMemory().write(kTransportBase + begin, copy.data(),
                                   copy.size());
        // Book the held range as delivered, per overlapped line; a
        // line straddling a held and a missing chunk keeps exactly
        // its missing remainder, which the retransmitted neighbour
        // chunk covers without double-counting.
        for (uint64_t line = first; line <= last; ++line) {
            const uint64_t line_begin = line * line_bytes;
            const uint64_t line_end = std::min<uint64_t>(
                line_begin + line_bytes, framed_.size());
            const uint64_t lo = std::max<uint64_t>(line_begin, begin);
            const uint64_t hi = std::min<uint64_t>(line_end, end);
            if (hi <= lo)
                continue;
            const auto covered = static_cast<uint32_t>(hi - lo);
            panic_if(line_missing_[line] < covered,
                     "journal resume double-covered a line");
            line_missing_[line] -= covered;
            line_ready_[line] = std::max(line_ready_[line], cycle);
        }
    }
    return held;
}

void
LiveInstall::setTraceSink(obs::TraceSink *sink)
{
    InstallTiming::setTraceSink(sink);
    transport_.setTraceSink(sink);
    updater_.setTrace(sink);
}

void
LiveInstall::registerMetrics(obs::MetricsRegistry &reg) const
{
    InstallTiming::registerMetrics(reg);
    reg.counterFn("install.staged_bytes",
                  [this] { return staged_bytes_; });
}

void
LiveInstall::pump(uint64_t cycle)
{
    const uint32_t line_bytes = lineBytes();
    for (ota::Transport::Chunk &chunk : transport_.poll(cycle)) {
        // Real bytes land in the untrusted transport buffer the
        // moment the link delivers them...
        system_.mainMemory().write(kTransportBase + chunk.offset,
                                   chunk.bytes.data(),
                                   chunk.bytes.size());
        // Step-lock bookkeeping: how much of each framed line is
        // still missing, and when it became complete. The DMA
        // engine's write for a line is charged exactly once — when
        // its last byte lands — so chunk sizes that straddle line
        // boundaries do not double-count bus traffic. The writes are
        // write-buffered: off the critical path until the buffer
        // saturates, like any other master's.
        const uint64_t first = chunk.offset / line_bytes;
        const uint64_t last =
            (chunk.offset + chunk.bytes.size() - 1) / line_bytes;
        for (uint64_t line = first; line <= last; ++line) {
            const uint64_t line_begin = line * line_bytes;
            const uint64_t line_end = std::min<uint64_t>(
                line_begin + line_bytes, framed_.size());
            const uint64_t begin =
                std::max<uint64_t>(line_begin, chunk.offset);
            const uint64_t end = std::min<uint64_t>(
                line_end, chunk.offset + chunk.bytes.size());
            if (end <= begin)
                continue;
            const auto covered = static_cast<uint32_t>(end - begin);
            panic_if(line_missing_[line] < covered,
                     "transport delivered the same bytes twice");
            line_missing_[line] -= covered;
            line_ready_[line] =
                std::max(line_ready_[line], chunk.arrival_cycle);
            if (line_missing_[line] == 0) {
                system_.channel().enqueueWrite(
                    line_ready_[line], mem::Traffic::UpdateWriteback,
                    /*small=*/false, kTransportBase + line_begin,
                    dma_agent_);
            }
        }
    }
}

uint64_t
LiveInstall::admissionReadyCycle(uint64_t index) const
{
    // A delta's base-slot readback lines (issued first) are always
    // resident; a transport line is readable once the network
    // delivered its last byte.
    const uint64_t base_lines = admissionBaseLines();
    if (index < base_lines || index - base_lines >= line_missing_.size())
        return 0;
    const uint64_t line = index - base_lines;
    return line_missing_[line] != 0 ? sim::kNeverCycle
                                    : line_ready_[line];
}

bool
LiveInstall::stageLineResumed(uint64_t index) const
{
    return index < stage_line_resumed_.size() &&
           stage_line_resumed_[index] != 0;
}

uint64_t
LiveInstall::lineAddr(InstallPhase phase, uint64_t index) const
{
    const uint32_t line_bytes = lineBytes();
    switch (phase) {
      case InstallPhase::AdmissionRead: {
        // A delta admission's base-bundle readback leads: those
        // lines are already resident in the active slot, so hashing
        // them overlaps the (network-locked) delta stream instead of
        // serializing after it. The transport-stream lines follow.
        const uint64_t base_lines = admissionBaseLines();
        if (index < base_lines) {
            return updater_.slotBase(updater_.activeSlot()) +
                   index * line_bytes;
        }
        return kTransportBase + (index - base_lines) * line_bytes;
      }
      case InstallPhase::StageWrite:
      case InstallPhase::ReverifyRead:
        return updater_.slotBase(slot_) + index * line_bytes;
      case InstallPhase::LoadWrite: {
        // The image streams to its home region; its entry point
        // anchors the address for bank selection purposes.
        const uint64_t base =
            bundle_.has_value()
                ? util::alignDown(bundle_->manifest.entry_point,
                                  line_bytes)
                : 0;
        return base + index * line_bytes;
      }
      default:
        panic("no line address in install phase ",
              installPhaseName(phase));
    }
}

void
LiveInstall::onStageWrite(uint64_t index)
{
    const std::vector<uint8_t> &payload = slotPayload();
    const uint64_t begin = index * lineBytes();
    if (begin >= payload.size())
        return;
    const uint64_t len =
        std::min<uint64_t>(lineBytes(), payload.size() - begin);
    system_.mainMemory().write(updater_.slotBase(slot_) + begin,
                               payload.data() + begin, len);
    staged_bytes_ += len;
    // Journal granularity is the line: the chunk is durable the
    // moment its write lands, so a power cut on the next cycle
    // resumes past it.
    if (StagingJournal *journal = updater_.journal(); journal != nullptr)
        journal->markChunk(slot_, index);
}

void
LiveInstall::renderAdmission()
{
    // The functional verdict is rendered over what the *network
    // actually delivered* into untrusted memory, not over the bundle
    // the caller handed to start(): parse the transport buffer back.
    std::vector<uint8_t> framed(framed_.size());
    system_.mainMemory().read(kTransportBase, framed.data(),
                              framed.size());
    const auto bundle_bytes = unframeBundleView(framed);
    if (!bundle_bytes.has_value()) {
        admission_ = VerifyResult{UpdateStatus::MalformedBundle,
                                  "transport stream framing damaged"};
        return;
    }
    if (delta_mode_) {
        const auto delta = DeltaBundle::deserialize(*bundle_bytes);
        if (!delta.has_value()) {
            admission_ =
                VerifyResult{UpdateStatus::MalformedBundle,
                             "transport delta stream does not parse"};
            return;
        }
        auto rec =
            updater_.reconstructDelta(*delta, system_.mainMemory());
        admission_ = rec.result;
        if (!admission_->ok())
            return; // BaseMismatch here = "request the full bundle"
        bundle_ = std::move(rec.bundle);
        framed_slot_ = frameBundle(*bundle_);
        // The reconstructed extent is known only now: fill in the
        // stage/reverify/load line counts the remaining phases bill,
        // and open (or resume) the journal session over the slot
        // payload the stage is about to write.
        plan_ = InstallPlan::fromDelta(
            framed_.size(), base_framed_bytes_,
            InstallPlan::fromBundle(framed_slot_.size(),
                                    bundle_->image.totalBytes(),
                                    lineBytes()),
            lineBytes());
        resumeJournal(framed_slot_, plan_.stage_lines);
        return;
    }
    auto parsed = UpdateBundle::deserialize(*bundle_bytes);
    if (!parsed.has_value()) {
        admission_ = VerifyResult{UpdateStatus::MalformedBundle,
                                  "transport stream does not parse"};
        return;
    }
    admission_ = updater_.verify(*parsed);
    if (admission_->ok())
        bundle_ = std::move(parsed);
}

bool
LiveInstall::commitPhase(InstallPhase phase)
{
    switch (phase) {
      case InstallPhase::AdmissionSig:
        // Manifest signature checked: the functional verdict.
        updater_.setTraceCycle(cursor());
        renderAdmission();
        if (!admission_->ok()) {
            result_ = InstallResult{admission_->status,
                                    admission_->detail, compartment_, 0,
                                    updater_.activeSlot()};
            return false;
        }
        return true;
      case InstallPhase::StageWrite: {
        // Every framed byte is in the slot; commit the functional
        // staged-pending state (stage() re-verifies, as the
        // functional plane always does, and rewrites the same
        // bytes).
        updater_.setTraceCycle(cursor());
        const VerifyResult staged =
            updater_.stage(*bundle_, system_.mainMemory());
        if (!staged.ok()) {
            result_ = InstallResult{staged.status, staged.detail,
                                    compartment_, 0,
                                    updater_.activeSlot()};
            return false;
        }
        return true;
      }
      case InstallPhase::CapsuleUnwrap:
        // Key capsule unwrapped: the atomic functional commit. This
        // is the one cycle the new image becomes active.
        updater_.setTraceCycle(cursor());
        result_ = updater_.activate(compartment_, system_.mainMemory(),
                                    system_.virtualMemory(), kAsid,
                                    system_.engine());
        if (!result_->ok())
            return false;
        activated_at_ = cursor();
        return true;
      default:
        return true;
    }
}

} // namespace secproc::update
