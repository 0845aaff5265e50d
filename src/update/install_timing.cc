/**
 * @file
 * Install executor implementation.
 */

#include "update/install_timing.hh"

#include <algorithm>
#include <string>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::update
{

namespace
{

/** Base address every line of a bare replay uses (DRAM bank
 *  selection only; no bytes move). */
constexpr uint64_t kStagingBase = 0x4000'0000;

/** Successor in the install pipeline (sole ordering map). */
InstallPhase
nextPhase(InstallPhase phase)
{
    switch (phase) {
      case InstallPhase::AdmissionRead: return InstallPhase::AdmissionSig;
      case InstallPhase::AdmissionSig: return InstallPhase::StageWrite;
      case InstallPhase::StageWrite: return InstallPhase::ReverifyRead;
      case InstallPhase::ReverifyRead: return InstallPhase::ReverifySig;
      case InstallPhase::ReverifySig: return InstallPhase::LoadWrite;
      case InstallPhase::LoadWrite: return InstallPhase::CapsuleUnwrap;
      case InstallPhase::CapsuleUnwrap: return InstallPhase::Attest;
      case InstallPhase::Attest:
      case InstallPhase::Idle:
        break;
    }
    panic("install phase has no successor");
}

} // namespace

const char *
installPhaseName(InstallPhase phase)
{
    switch (phase) {
      case InstallPhase::AdmissionRead: return "admission_read";
      case InstallPhase::AdmissionSig: return "admission_sig";
      case InstallPhase::StageWrite: return "stage_write";
      case InstallPhase::ReverifyRead: return "reverify_read";
      case InstallPhase::ReverifySig: return "reverify_sig";
      case InstallPhase::LoadWrite: return "load_write";
      case InstallPhase::CapsuleUnwrap: return "capsule_unwrap";
      case InstallPhase::Attest: return "attest";
      case InstallPhase::Idle: return "idle";
    }
    panic("unknown install phase");
}

InstallPlan
InstallPlan::fromBundle(uint64_t framed_bytes, uint64_t image_bytes,
                        uint32_t line_bytes)
{
    InstallPlan plan;
    plan.stage_lines = util::divCeil(framed_bytes, line_bytes);
    plan.verify_lines = plan.stage_lines;
    plan.load_lines = util::divCeil(image_bytes, line_bytes);
    return plan;
}

InstallPlan
InstallPlan::fromImageBytes(uint64_t image_bytes, uint32_t line_bytes)
{
    InstallPlan plan;
    // Manifest + signature framing is small next to the image; one
    // line covers it for any realistic bundle.
    plan.stage_lines = 1 + util::divCeil(image_bytes, line_bytes);
    plan.verify_lines = plan.stage_lines;
    plan.load_lines = util::divCeil(image_bytes, line_bytes);
    return plan;
}

InstallPlan
InstallPlan::fromDelta(uint64_t delta_framed_bytes,
                       uint64_t base_framed_bytes,
                       const InstallPlan &reconstructed,
                       uint32_t line_bytes)
{
    InstallPlan plan = reconstructed;
    plan.admission_lines =
        util::divCeil(delta_framed_bytes, line_bytes) +
        util::divCeil(base_framed_bytes, line_bytes);
    return plan;
}

InstallTiming::InstallTiming(mem::MemoryChannel &channel,
                             crypto::CryptoEngineModel &engine,
                             uint32_t line_bytes, InstallPacing pacing)
    : InstallTiming(channel, engine, line_bytes, pacing, "updater",
                    "updater", 0)
{
}

InstallTiming::InstallTiming(mem::MemoryChannel &channel,
                             crypto::CryptoEngineModel &engine,
                             uint32_t line_bytes, InstallPacing pacing,
                             const char *agent_name,
                             const char *track_name,
                             uint64_t replay_step)
    : channel_(channel), engine_(engine), line_bytes_(line_bytes),
      pacing_(pacing), track_name_(track_name),
      replay_step_(replay_step),
      agent_(channel.registerAgent(agent_name))
{
    fatal_if(line_bytes_ == 0, "install replay needs a line size");
}

void
InstallTiming::start(const InstallPlan &plan, uint64_t cycle,
                     bool repeat)
{
    fatal_if(plan.admissionLines() == 0 && plan.stage_lines == 0 &&
                 plan.load_lines == 0,
             "install plan with nothing to move");
    fatal_if(waiting_, "start() with a channel request in flight "
             "(reset() first)");
    plan_ = plan;
    repeat_ = repeat;
    finished_ = false;
    cursor_ = cycle;
    install_start_ = cycle;
    install_cycles_ = 0;
    phase_cycles_.fill(0);
    phase_ = InstallPhase::Idle;
    enterPhase(InstallPhase::AdmissionRead);
}

void
InstallTiming::reset()
{
    // Drop the in-flight install. The caller owns the channel and
    // must reset it alongside (System::reset does): a request still
    // queued in the arbiter would otherwise be granted to nobody.
    if (trace_ != nullptr && !done())
        trace_->instant(trace_track_, "power_cut_reset", cursor_);
    phase_ = InstallPhase::Idle;
    phase_index_ = 0;
    waiting_ = false;
    repeat_ = false;
    finished_ = false;
}

uint64_t
InstallTiming::lineAddr(InstallPhase, uint64_t index) const
{
    return kStagingBase + index * line_bytes_;
}

uint64_t
InstallTiming::phaseItems(InstallPhase phase) const
{
    switch (phase) {
      case InstallPhase::AdmissionRead:
        return plan_.admissionLines();
      case InstallPhase::ReverifyRead:
        return plan_.verify_lines;
      case InstallPhase::StageWrite:
        return plan_.stage_lines;
      case InstallPhase::LoadWrite:
        return plan_.load_lines;
      default:
        return 1;
    }
}

void
InstallTiming::setTraceSink(obs::TraceSink *sink)
{
    trace_ = sink;
    if (sink != nullptr)
        trace_track_ = sink->track(track_name_);
}

void
InstallTiming::registerMetrics(obs::MetricsRegistry &reg) const
{
    const std::string prefix = std::string(track_name_) + ".";
    for (size_t i = 0; i < phase_cycles_.size(); ++i) {
        const auto phase = static_cast<InstallPhase>(i);
        reg.counterFn(prefix + "phase." + installPhaseName(phase) +
                          "_cycles",
                      [this, phase] { return phaseCycles(phase); });
    }
    reg.counterFn(prefix + "installs_completed",
                  [this] { return installs_completed_; });
}

void
InstallTiming::closePhaseSpan()
{
    if (phase_ == InstallPhase::Idle)
        return;
    phase_cycles_[static_cast<size_t>(phase_)] +=
        cursor_ - phase_started_at_;
    if (trace_ != nullptr && cursor_ > phase_started_at_) {
        trace_->duration(trace_track_, installPhaseName(phase_),
                         phase_started_at_, cursor_);
    }
}

void
InstallTiming::enterPhase(InstallPhase phase)
{
    closePhaseSpan();
    phase_ = phase;
    phase_index_ = 0;
    phase_started_at_ = cursor_;
    switch (phase) {
      case InstallPhase::AdmissionSig:
      case InstallPhase::ReverifySig:
      case InstallPhase::CapsuleUnwrap:
        // Signature-class work needs nothing from the channel: it
        // queues on the engine the moment its predecessor completes.
        cursor_ = engine_.reserve(cursor_, kSignatureEngineOps);
        completePhase();
        return;
      case InstallPhase::Idle:
        return;
      default:
        // Fall through phases the plan leaves empty, so issueNext()
        // always has work.
        if (phaseItems(phase) == 0)
            completePhase();
        return;
    }
}

void
InstallTiming::completePhase()
{
    if (!commitPhase(phase_) || phase_ == InstallPhase::Attest)
        finishInstall();
    else
        enterPhase(nextPhase(phase_));
}

void
InstallTiming::finishInstall()
{
    closePhaseSpan();
    // The span just closed; rebase so the repeat path's enterPhase
    // (which closes again) accumulates zero, not a duplicate.
    phase_started_at_ = cursor_;
    ++installs_completed_;
    install_cycles_ = cursor_ - install_start_;
    if (repeat_) {
        install_start_ = cursor_;
        enterPhase(InstallPhase::AdmissionRead);
    } else {
        phase_ = InstallPhase::Idle;
        finished_ = true;
    }
}

void
InstallTiming::finishLine(uint64_t done_at)
{
    cursor_ = done_at;
    if (++phase_index_ >= phaseItems(phase_))
        completePhase();
}

bool
InstallTiming::issueNext()
{
    switch (phase_) {
      case InstallPhase::AdmissionRead:
      case InstallPhase::ReverifyRead: {
        // Admission cannot fetch a line before it arrived; the
        // re-verification reads the slot the machine wrote itself.
        uint64_t ready = cursor_;
        if (phase_ == InstallPhase::AdmissionRead) {
            const uint64_t arrived = admissionReadyCycle(phase_index_);
            if (arrived == sim::kNeverCycle)
                return false;
            ready = std::max(ready, arrived);
        }
        const uint64_t addr = lineAddr(phase_, phase_index_);
        if (pacing_ == InstallPacing::Arbiter) {
            channel_.requestBackground(ready, mem::Traffic::UpdateFill,
                                       /*write=*/false, /*small=*/false,
                                       addr, agent_);
            waiting_ = true;
            return true;
        }
        // Fetch the line and digest it: the hash unit holds the
        // engine for the whole line, it is not the pipelined pad path.
        const uint64_t arrival = channel_.scheduleRead(
            ready, mem::Traffic::UpdateFill, /*small=*/false, addr,
            agent_);
        finishLine(engine_.reserve(arrival));
        return true;
      }
      case InstallPhase::StageWrite:
      case InstallPhase::LoadWrite: {
        if (phase_ == InstallPhase::StageWrite) {
            // Resumed lines already sit in the slot: no write issued.
            while (phase_index_ < phaseItems(phase_) &&
                   stageLineResumed(phase_index_))
                ++phase_index_;
            if (phase_index_ >= phaseItems(phase_)) {
                completePhase();
                return true;
            }
        }
        const uint64_t addr = lineAddr(phase_, phase_index_);
        if (pacing_ == InstallPacing::Arbiter) {
            channel_.requestBackground(cursor_,
                                       mem::Traffic::UpdateWriteback,
                                       /*write=*/true, /*small=*/false,
                                       addr, agent_);
            waiting_ = true;
            return true;
        }
        channel_.enqueueWrite(cursor_, mem::Traffic::UpdateWriteback,
                              /*small=*/false, addr, agent_);
        if (phase_ == InstallPhase::StageWrite)
            onStageWrite(phase_index_);
        // Streams of writes are paced at the bus transfer time of one
        // line: the source (transport DMA, loader) can produce no
        // faster than the channel can possibly drain.
        const uint32_t pace = channel_.config().transfer_cycles;
        finishLine(cursor_ + (pace ? pace : 1));
        return true;
      }
      case InstallPhase::Attest:
        cursor_ = engine_.reserve(cursor_, kSignatureEngineOps);
        completePhase();
        return true;
      default:
        return false;
    }
}

void
InstallTiming::completeGrant(uint64_t completion)
{
    switch (phase_) {
      case InstallPhase::AdmissionRead:
      case InstallPhase::ReverifyRead:
        // The granted line arrived; the digest holds the engine for
        // the whole line time, exactly as in fixed pacing.
        finishLine(engine_.reserve(completion));
        return;
      case InstallPhase::StageWrite:
        // The granted write moves the line: a power cut now leaves
        // exactly the lines written so far in the slot.
        onStageWrite(phase_index_);
        finishLine(completion);
        return;
      case InstallPhase::LoadWrite:
        finishLine(completion);
        return;
      default:
        panic("arbiter grant in install phase ",
              installPhaseName(phase_));
    }
}

uint64_t
InstallTiming::nextEventCycle(uint64_t now) const
{
    if (done())
        return sim::kNeverCycle;
    // Outside inputs (transport arrivals) must be collected promptly
    // whatever else the install is doing.
    uint64_t wake = externalEventCycle();
    if (waiting_) {
        // A grant may already be parked for us (the foreground's own
        // channel activity runs the arbiter too): collect at the
        // next boundary. Otherwise the channel knows the earliest
        // cycle its arbiter state can change.
        if (channel_.backgroundGrantReady(agent_))
            return now;
        return std::min(wake, channel_.nextArbiterEventCycle());
    }
    // Self-paced: the next issue happens at the first boundary that
    // reaches the pipeline cursor — unless it is blocked on an input
    // only the wake above can deliver.
    if (phase_ != InstallPhase::AdmissionRead ||
        admissionReadyCycle(phase_index_) != sim::kNeverCycle)
        wake = std::min(wake, cursor_);
    return wake;
}

void
InstallTiming::advance(uint64_t cycle)
{
    if (done())
        return;
    pump(cycle);
    while (!done()) {
        if (waiting_) {
            const auto granted = channel_.pollBackground(agent_, cycle);
            if (!granted.has_value())
                return;
            waiting_ = false;
            completeGrant(*granted);
            continue;
        }
        if (cursor_ > cycle)
            return;
        if (!issueNext())
            return; // blocked on an outside input
    }
}

uint64_t
InstallTiming::replay()
{
    fatal_if(repeat_, "replay() on a repeating install never finishes");
    fatal_if(done(), "nothing to replay");
    uint64_t now = cursor_;
    while (!done()) {
        advance(now);
        if (done())
            break;
        // Idle machine: jump the clock to whatever unblocks us — the
        // next arbiter grant window (right after the current bus
        // horizon), or the next cursor/outside input.
        uint64_t next = std::max(now, cursor_);
        if (waiting_) {
            next = std::max(next, channel_.busyUntil()) +
                   channel_.config().transfer_cycles + 1;
        } else {
            next += replay_step_;
        }
        panic_if(next <= now, "idle replay is stuck at cycle ", now,
                 " in phase ", installPhaseName(phase_));
        now = next;
    }
    return cursor_;
}

} // namespace secproc::update
