/**
 * @file
 * Vendor update service implementation.
 */

#include "fleet/vendor.hh"

#include <algorithm>

#include "crypto/latency.hh"
#include "mem/memory_channel.hh"
#include "update/device_rig.hh"
#include "update/install_timing.hh"
#include "util/logging.hh"

namespace secproc::fleet
{

const InstallCostModel &
ReleaseInfo::cost(uint32_t engine_latency) const
{
    fatal_if(engine_latency != crypto::kPaperCryptoLatency &&
                 engine_latency != crypto::kStrongCipherLatency,
             "release calibrated for the 50/102-cycle engine "
             "classes, not ",
             engine_latency);
    return engine_latency == crypto::kStrongCipherLatency
               ? cost_strong
               : cost_paper;
}

const InstallCostModel &
ReleaseInfo::deltaCost(uint32_t engine_latency) const
{
    fatal_if(delta_base_version == 0,
             "release ships no delta to cost");
    fatal_if(engine_latency != crypto::kPaperCryptoLatency &&
                 engine_latency != crypto::kStrongCipherLatency,
             "release calibrated for the 50/102-cycle engine "
             "classes, not ",
             engine_latency);
    return engine_latency == crypto::kStrongCipherLatency
               ? delta_cost_strong
               : delta_cost_paper;
}

namespace
{

/** The image a given payload generation ships: deterministic bytes
 *  from the vendor seed, so a rollback release byte-matches the
 *  release it reverts to. */
std::vector<uint8_t>
payloadBytes(uint64_t vendor_seed, uint32_t payload_version,
             uint64_t image_bytes, double change_fraction)
{
    return update::payloadGeneration(
        image_bytes, payload_version, change_fraction,
        mixSeed(vendor_seed, 1), [vendor_seed](uint32_t gen) {
            return mixSeed(vendor_seed, 0xD1FFull + gen);
        });
}

/**
 * Replay @p plan through a standalone fixed-pace InstallTiming on an
 * otherwise idle machine with an @p engine_latency crypto engine,
 * and split its phase cycles into the lightweight cost model's three
 * stages. This is the one place the fleet touches the real cycle
 * plane per (release, engine class) — every lightweight device
 * reuses the result.
 */
InstallCostModel
calibrate(const update::InstallPlan &plan, uint32_t line_bytes,
          uint32_t engine_latency)
{
    using update::InstallPhase;
    mem::MemoryChannel channel;
    crypto::CryptoEngineModel engine(
        crypto::CryptoEngineConfig{engine_latency, 1});
    update::InstallTiming timing(channel, engine, line_bytes,
                                 update::InstallPacing::Fixed);
    timing.start(plan, 0);
    timing.replay();

    InstallCostModel cost;
    cost.admission_read_cycles =
        timing.phaseCycles(InstallPhase::AdmissionRead);
    cost.admission_sig_cycles =
        timing.phaseCycles(InstallPhase::AdmissionSig);
    cost.post_admission_cycles = timing.installCycles() -
                                 cost.admission_read_cycles -
                                 cost.admission_sig_cycles;
    return cost;
}

} // namespace

VendorService::VendorService(const VendorConfig &config)
    : config_(config), rng_(mixSeed(config.seed, 0x5E11E12ull)),
      builder_(crypto::rsaGenerate(512, rng_)),
      device_class_key_(crypto::rsaGenerate(512, rng_))
{
}

const ReleaseInfo &
VendorService::publish(uint32_t version, uint64_t rollback_counter,
                       uint32_t payload_version,
                       int32_t defective_variant, double defect_rate,
                       uint32_t rollback_of,
                       uint32_t delta_base_version)
{
    fatal_if(releases_.count(version) != 0, "release ", version,
             " already published");

    ReleaseInfo info;
    info.version = version;
    info.rollback_counter = rollback_counter;
    info.payload_version = payload_version;
    info.image_bytes = config_.image_bytes;
    info.defective_variant = defective_variant;
    info.defect_rate = defect_rate;
    info.rollback_of = rollback_of;
    info.delta_base_version = delta_base_version;

    update::UpdateSpec spec;
    spec.image_version = version;
    spec.rollback_counter = rollback_counter;
    spec.scheme = xom::VendorScheme::Otp;
    spec.cipher = secure::CipherKind::Des;
    spec.line_size = config_.line_bytes;

    // Bundle entropy is keyed by version, not call order, so
    // re-running a scenario reproduces every release byte for byte.
    // A delta release draws the *base's* stream instead: the same
    // symmetric key means unchanged plaintext lines keep their
    // ciphertext (the OTP pad is keyed by key and address alone),
    // which is the whole delta opportunity.
    const ReleaseInfo *base = nullptr;
    uint64_t rng_key = 0xB0B0ull + version;
    if (delta_base_version != 0) {
        const auto it = releases_.find(delta_base_version);
        fatal_if(it == releases_.end(), "delta base release ",
                 delta_base_version, " not published");
        base = &it->second;
        spec.base_digest =
            update::sha256DigestOfImage(base->bundle.image);
        rng_key = 0xB0B0ull + delta_base_version;
    }
    util::Rng bundle_rng(mixSeed(config_.seed, rng_key));
    info.bundle = update::firmwareBundle(
        builder_, device_class_key_.pub, spec,
        payloadBytes(config_.seed, payload_version, config_.image_bytes,
                     config_.change_fraction),
        bundle_rng, "fleet-fw");
    info.framed_bytes =
        update::kSlotHeaderBytes + util::encodedSize(info.bundle);

    const update::InstallPlan plan = update::InstallPlan::fromBundle(
        info.framed_bytes, info.bundle.image.totalBytes(),
        config_.line_bytes);
    info.cost_paper = calibrate(plan, config_.line_bytes,
                                crypto::kPaperCryptoLatency);
    info.cost_strong = calibrate(plan, config_.line_bytes,
                                 crypto::kStrongCipherLatency);

    if (base != nullptr) {
        info.delta = builder_.buildDelta(base->bundle, info.bundle);
        info.delta_framed_bytes =
            update::kSlotHeaderBytes + util::encodedSize(info.delta);
        const update::InstallPlan delta_plan =
            update::InstallPlan::fromDelta(info.delta_framed_bytes,
                                           base->framed_bytes, plan,
                                           config_.line_bytes);
        info.delta_cost_paper = calibrate(
            delta_plan, config_.line_bytes, crypto::kPaperCryptoLatency);
        info.delta_cost_strong =
            calibrate(delta_plan, config_.line_bytes,
                      crypto::kStrongCipherLatency);
    }

    return releases_.emplace(version, std::move(info))
        .first->second;
}

const ReleaseInfo &
VendorService::release(uint32_t version) const
{
    const auto it = releases_.find(version);
    fatal_if(it == releases_.end(), "no published release ",
             version);
    return it->second;
}

std::span<LedgerRecord>
VendorService::extendLedger(size_t records)
{
    const size_t old_size = ledger_.size();
    ledger_.resize(old_size + records);
    return std::span<LedgerRecord>(ledger_).subspan(old_size);
}

} // namespace secproc::fleet
