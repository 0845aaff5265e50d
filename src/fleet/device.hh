/**
 * @file
 * Lightweight device models for fleet-scale rollout simulation.
 *
 * A million fielded secure processors cannot each be a full
 * sim::System — but a fleet simulation degenerates to a counter if
 * devices have no per-unit verification state (the HOST 2020
 * secure-boot critique). The middle ground modeled here: every
 * device has immutable *traits* drawn from seeded distributions
 * (hardware variant, crypto-engine latency class, downlink quality,
 * foreground workload mix, power-cut propensity) and compact mutable
 * *state* (active image version, health), and the cycle cost of one
 * install is predicted from
 *
 *  - ota::Transport's own loss process (ota::LossSchedule, no byte
 *    movement), so a lightweight download completes on exactly the
 *    cycle the full transport model would deliver its last chunk;
 *    and
 *  - an InstallCostModel calibrated per (release, engine-latency
 *    class) by replaying the real bundle through the
 *    update::InstallTiming executor once (vendor.hh does the
 *    calibration),
 *    with the admission read overlapped against the download and
 *    the post-admission pipeline stretched by the device's workload
 *    contention factor.
 *
 * A handful of full update::LiveInstall devices embedded in the
 * population (rollout.hh) pin this prediction to the unified-plane
 * ground truth within kGroundTruthTolerance.
 */

#ifndef SECPROC_FLEET_DEVICE_HH
#define SECPROC_FLEET_DEVICE_HH

#include <cstdint>
#include <vector>

#include "ota/transport.hh"
#include "util/random.hh"

namespace secproc::fleet
{

/** Simulated device clock: a nominal 1 GHz part. Converts install
 *  completion cycles into the fleet's device-hours headline. */
inline constexpr double kCyclesPerHour = 3.6e12;

/**
 * Documented agreement bound between the lightweight cost model and
 * an embedded LiveInstall ground-truth device installing the same
 * release over the same downlink: |predicted - measured| /
 * measured <= this. The download half of the prediction is exact by
 * construction; the slack covers the pipeline half (fixed-pace
 * calibration vs the live agent's per-line transport step-locking).
 */
inline constexpr double kGroundTruthTolerance = 0.25;

/** Foreground activity of a device while an install runs. */
enum class WorkloadMix : uint8_t
{
    Idle,   ///< screensaver fleet: install has the machine to itself
    Office, ///< light interactive foreground
    Heavy,  ///< bus-saturating foreground (the paper's art-like mix)
};

/**
 * Install-pipeline stretch factor under the mix's bus contention,
 * applied to the post-download pipeline only (the downlink is not
 * contended by the foreground). Values follow the arbiter-paced
 * slowdown bands the live_install bench measured: idle buses grant
 * immediately, heavy foregrounds starve the installer toward the
 * channel's starvation bound.
 */
double workloadContentionFactor(WorkloadMix mix);

/** Downlink quality tier a device is provisioned on. */
enum class LinkClass : uint8_t
{
    Fiber,     ///< fast, near-lossless
    Broadband, ///< mid-rate, mild burst loss
    Cellular,  ///< slow, bursty loss, long NACK round trip
};

const char *linkClassName(LinkClass link);

/** Transport knobs of @p link (seed left for the caller to set). */
ota::TransportConfig linkTransport(LinkClass link);

/** Per-device immutable traits drawn from the fleet distributions. */
struct DeviceTraits
{
    /** Root of every RNG stream this device consumes. */
    uint64_t seed = 0;

    /** Hardware variant; the vendor only offers updates to variants
     *  its quirk table covers (fwupd-style matching). */
    uint32_t hw_variant = 0;

    /** Crypto-engine latency class (50 or 102 cycles per line). */
    uint32_t engine_latency = 0;

    LinkClass link = LinkClass::Broadband;
    WorkloadMix mix = WorkloadMix::Idle;

    /** Probability one install attempt is cut by a power loss. */
    double power_cut_rate = 0.0;
};

/** Seeded distributions the population is drawn from. */
struct FleetDistributions
{
    /**
     * Relative weight per hardware variant (index = variant id).
     * Variants past the vendor's quirk table exist in the field but
     * are never offered an update.
     */
    std::vector<double> variant_weights =
        {0.35, 0.25, 0.20, 0.12, 0.05, 0.03};

    /** Fraction of the fleet with the 102-cycle strong-cipher
     *  engine; the rest run the paper's 50-cycle engine. */
    double strong_cipher_fraction = 0.3;

    /** Link-class mix; the remainder is Broadband. @{ */
    double fiber_fraction = 0.2;
    double cellular_fraction = 0.3;
    /** @} */

    /** Workload mix; the remainder is Office. @{ */
    double idle_fraction = 0.5;
    double heavy_fraction = 0.15;
    /** @} */

    /** Per-attempt power-cut probability is uniform in
     *  [0, max_power_cut_rate); half the fleet draws ~0. */
    double max_power_cut_rate = 0.02;
};

/**
 * The traits of device @p device_id in the fleet seeded by
 * @p fleet_seed: a pure function, so a million-device population is
 * never materialized — any shard recomputes any device's traits in
 * a few RNG draws.
 */
DeviceTraits deviceTraits(uint64_t fleet_seed, uint64_t device_id,
                          const FleetDistributions &dist);

/** splitmix64 of @p a ^ @p b; never returns 0 (Rng-safe). */
uint64_t mixSeed(uint64_t a, uint64_t b);

/** Mutable per-device rollout state; kept to 16 bytes so a
 *  million-device fleet fits comfortably in memory. */
struct DeviceState
{
    /** Active image version (factory firmware is version 1). */
    uint32_t version = 1;

    /** Running a release whose post-reboot health check failed. */
    uint8_t failed_health = 0;

    uint8_t reserved_[3] = {};

    /** Completion cycle of the last successful install. */
    uint64_t updated_at_cycle = 0;
};

/**
 * Calibrated cycle cost of one clean, uncontended install of a
 * release on one engine-latency class (the phase cycles of a
 * standalone update::InstallTiming replay of the real bundle).
 */
struct InstallCostModel
{
    /** Per-line fetch + digest of the arriving bundle; overlapped
     *  with the download (a line cannot verify before it arrives). */
    uint64_t admission_read_cycles = 0;

    /** Manifest signature check at admission. */
    uint64_t admission_sig_cycles = 0;

    /** Everything after admission: stage, re-verify, load, capsule
     *  unwrap, attestation quote. */
    uint64_t post_admission_cycles = 0;

    uint64_t total() const
    {
        return admission_read_cycles + admission_sig_cycles +
               post_admission_cycles;
    }
};

/** What one lightweight download simulation produced. */
struct DownloadSim
{
    /** Cycle the last payload chunk arrives (== the cycle
     *  ota::Transport::completionCycle() would report). */
    uint64_t completion_cycle = 0;

    uint64_t chunks_sent = 0;
    uint64_t chunks_lost = 0;
    uint64_t retransmit_passes = 0;
};

/**
 * Run ota::Transport's loss process for a @p payload_bytes payload
 * starting at @p start_cycle — the same ota::LossSchedule draws
 * send() makes, counting chunks instead of materializing payload
 * bytes or the schedule. Exactness is asserted by
 * tests/fleet_test.cc against the real Transport.
 */
DownloadSim simulateDownload(const ota::TransportConfig &config,
                             uint64_t payload_bytes,
                             uint64_t start_cycle);

/** Outcome of one device's install attempt chain. */
struct InstallSim
{
    /** Cycles from dispatch to the install landing. */
    uint64_t cycles = 0;

    /** Attempts abandoned to a power cut before the one that
     *  succeeded. */
    uint32_t power_cut_retries = 0;
};

/**
 * Predict the cycles one device spends installing a release:
 * download overlapped with the admission read, signature and
 * post-admission pipeline stretched by the device's workload
 * contention, power cuts retrying the whole attempt (conservative:
 * a cut download restarts from scratch). @p rng is the device's
 * per-wave stream; @p transport is the device's link class with its
 * per-device seed already set.
 */
InstallSim simulateInstall(const DeviceTraits &traits,
                           const InstallCostModel &cost,
                           const ota::TransportConfig &transport,
                           uint64_t framed_bytes, util::Rng &rng);

/**
 * The clean-attempt prediction simulateInstall converges to with no
 * power cuts and an idle foreground — what an embedded LiveInstall
 * ground-truth device is compared against.
 */
uint64_t predictCleanInstallCycles(const InstallCostModel &cost,
                                   const ota::TransportConfig &transport,
                                   uint64_t framed_bytes);

} // namespace secproc::fleet

#endif // SECPROC_FLEET_DEVICE_HH
