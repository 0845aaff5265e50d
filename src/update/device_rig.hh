/**
 * @file
 * One update device, wired once: the processor's key pair, its
 * compartment key table, the rollback bank, the UpdateEngine and the
 * protection plane the secure loader writes ciphertext into.
 *
 * The plane is one of two things:
 *
 *  - a bare functional plane (memory channel, protection engine,
 *    MainMemory, VirtualMemory): zero simulated cycles, real bytes.
 *    Its protection engine starts at the default 128-byte line and
 *    is rebuilt only for a bundle whose *verified* manifest names
 *    another line size, so no plane is ever built from an
 *    unauthenticated field;
 *  - a caller's sim::System, with a LiveInstall attached to it that
 *    installs into compartment 1 on the machine's own channel,
 *    crypto engine and memory.
 *
 * Members are declared (and so destroyed) in dependency order: the
 * LiveInstall before the engine it drives, the engine before the key
 * table and rollback bank it writes.
 *
 * Next to the rig sits the vendor side every update test, bench and
 * tool shares: a single-.text firmware bundle, the seeded payload
 * generations delta releases are cut from, and a FirmwareVendor that
 * draws a vendor and its target processor from one seed.
 */

#ifndef SECPROC_UPDATE_DEVICE_RIG_HH
#define SECPROC_UPDATE_DEVICE_RIG_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rsa.hh"
#include "mem/main_memory.hh"
#include "mem/memory_channel.hh"
#include "mem/virtual_memory.hh"
#include "secure/key_table.hh"
#include "secure/protection_engine.hh"
#include "sim/system.hh"
#include "update/image_builder.hh"
#include "update/live_install.hh"
#include "update/rollback_store.hh"
#include "update/staging_journal.hh"
#include "update/update_engine.hh"
#include "util/random.hh"

namespace secproc::update
{

class DeviceRig
{
  public:
    /** A functional device with its own @p rollback_capacity-counter
     *  rollback bank. */
    DeviceRig(crypto::RsaPublicKey vendor_key,
              crypto::RsaKeyPair processor_key,
              const StagingConfig &staging = {},
              size_t rollback_capacity = 64);

    /** A functional device over the caller's (persisted) rollback
     *  bank, which must outlive the rig. */
    DeviceRig(crypto::RsaPublicKey vendor_key,
              crypto::RsaKeyPair processor_key, RollbackStore &rollback,
              const StagingConfig &staging = {});

    /** The update half of @p system (which must outlive the rig): a
     *  LiveInstall built from @p live_config, already attached, and a
     *  64-counter rollback bank. */
    DeviceRig(crypto::RsaPublicKey vendor_key,
              crypto::RsaKeyPair processor_key, sim::System &system,
              const LiveInstallConfig &live_config,
              const StagingConfig &staging = {});

    ~DeviceRig();
    DeviceRig(const DeviceRig &) = delete;
    DeviceRig &operator=(const DeviceRig &) = delete;

    /**
     * Stage and activate @p bundle into @p compartment (ASID =
     * compartment). Staging verifies before it writes a byte; only
     * then does a functional rig fit its protection engine to the
     * verified manifest's line size. A refit engine starts with no
     * line state: images installed under the old line size are not
     * readable through it.
     */
    InstallResult install(const UpdateBundle &bundle,
                          secure::CompartmentId compartment = 1);

    /** install() the bundle @p delta reconstructs against the active
     *  slot; a reconstruction failure (BaseMismatch, ...) is
     *  returned as is. */
    InstallResult installDelta(const DeltaBundle &delta,
                               secure::CompartmentId compartment = 1);

    /** Activate whatever is staged into @p compartment on the plane
     *  as it stands. */
    InstallResult activate(secure::CompartmentId compartment = 1);

    /** Framed bytes (header + bundle) of the active slot, sized by
     *  its header; empty when the header is torn or absent. */
    std::vector<uint8_t> activeSlotBytes();

    /** Step the System until the live install finishes (600 steps of
     *  25k instructions at most). @return live().done(). */
    bool runToCompletion();

    UpdateEngine &updater() { return updater_; }
    RollbackStore &rollback() { return rollback_; }
    secure::KeyTable &keys() { return keys_; }
    /** A staging journal owned by the rig; attach it with
     *  updater().setJournal(&journal()). */
    StagingJournal &journal() { return journal_; }

    /** The attached live install (System rigs only). */
    LiveInstall &live();

    mem::MainMemory &memory();
    mem::VirtualMemory &vm();
    secure::ProtectionEngine &engine();

  private:
    /** The bare functional plane. */
    struct Plane
    {
        mem::MemoryChannel channel;
        std::unique_ptr<secure::ProtectionEngine> engine;
        mem::MainMemory memory;
        mem::VirtualMemory vm;

        /** (Re)build engine for @p line_size over @p keys. */
        void fit(uint32_t line_size, const secure::KeyTable &keys);
    };

    DeviceRig(crypto::RsaPublicKey vendor_key,
              crypto::RsaKeyPair processor_key, RollbackStore *borrowed,
              size_t rollback_capacity, const StagingConfig &staging,
              sim::System *system);

    secure::KeyTable keys_;
    std::optional<RollbackStore> owned_rollback_;
    RollbackStore &rollback_;
    StagingJournal journal_;
    UpdateEngine updater_;
    std::optional<Plane> plane_;        ///< functional rigs
    sim::System *system_ = nullptr;     ///< System rigs
    std::optional<LiveInstall> live_;   ///< System rigs
};

/** Load address and entry point of firmwareBundle() images. */
inline constexpr uint64_t kFirmwareBase = 0x0800'0000;

/**
 * Sign a firmware program of one .text section holding @p text at
 * @p base (its entry point) for @p processor under @p spec, drawing
 * the image key and capsule padding from @p rng.
 */
UpdateBundle firmwareBundle(const ImageBuilder &vendor,
                            const crypto::RsaPublicKey &processor,
                            const UpdateSpec &spec,
                            std::vector<uint8_t> text, util::Rng &rng,
                            std::string title = "fw",
                            uint64_t base = kFirmwareBase);

/**
 * Payload generation @p generation of an @p image_bytes image:
 * generation 1 is random bytes from @p fill_seed; each later
 * generation g rewrites @p change_fraction of its predecessor's
 * 64-byte blocks from the stream mutate_seed(g). The block-level
 * similarity between generations is what a delta bundle exploits.
 */
std::vector<uint8_t>
payloadGeneration(uint64_t image_bytes, uint32_t generation,
                  double change_fraction, uint64_t fill_seed,
                  const std::function<uint64_t(uint32_t)> &mutate_seed);

/** Two consecutive releases and the delta between them. */
struct ReleasePair
{
    UpdateBundle base;
    UpdateBundle next;
    DeltaBundle delta;
};

/** A vendor and the one processor it ships to, from one seed. */
struct FirmwareVendor
{
    util::Rng rng;
    ImageBuilder builder;
    crypto::RsaKeyPair processor;

    /** Draws the vendor's signing key, then the processor's key
     *  pair; later bundles draw from the same stream. */
    explicit FirmwareVendor(uint64_t seed);

    /** Release @p version (also its rollback counter): @p image_bytes
     *  copies of the byte @p version, drawing from rng. */
    UpdateBundle release(uint32_t version, uint64_t image_bytes,
                         secure::CipherKind cipher =
                             secure::CipherKind::Des);

    /**
     * Releases 1 and 2 of an @p image_bytes firmware whose successor
     * rewrites @p change_fraction of its 64-byte blocks, and the
     * delta between them. Both builds draw the RNG stream
     * @p key_seed (one symmetric key, so unchanged plaintext keeps
     * its ciphertext) and release 2 signs release 1's image digest,
     * so the delta collapses.
     */
    ReleasePair releasePair(uint64_t image_bytes, double change_fraction,
                            uint64_t key_seed) const;
};

} // namespace secproc::update

#endif // SECPROC_UPDATE_DEVICE_RIG_HH
