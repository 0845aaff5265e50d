/**
 * @file
 * Device rig and vendor-side firmware helpers.
 */

#include "update/device_rig.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secproc::update
{

DeviceRig::DeviceRig(crypto::RsaPublicKey vendor_key,
                     crypto::RsaKeyPair processor_key,
                     RollbackStore *borrowed, size_t rollback_capacity,
                     const StagingConfig &staging, sim::System *system)
    : owned_rollback_(borrowed == nullptr
                          ? std::optional<RollbackStore>(
                                std::in_place, rollback_capacity)
                          : std::nullopt),
      rollback_(borrowed == nullptr ? *owned_rollback_ : *borrowed),
      updater_(std::move(vendor_key), std::move(processor_key), keys_,
               rollback_, staging),
      system_(system)
{
    if (system == nullptr) {
        // The default line size comes from no bundle field at all.
        plane_.emplace();
        plane_->fit(secure::ProtectionConfig{}.line_size, keys_);
    }
}

DeviceRig::DeviceRig(crypto::RsaPublicKey vendor_key,
                     crypto::RsaKeyPair processor_key,
                     const StagingConfig &staging,
                     size_t rollback_capacity)
    : DeviceRig(std::move(vendor_key), std::move(processor_key), nullptr,
                rollback_capacity, staging, nullptr)
{
}

DeviceRig::DeviceRig(crypto::RsaPublicKey vendor_key,
                     crypto::RsaKeyPair processor_key,
                     RollbackStore &rollback, const StagingConfig &staging)
    : DeviceRig(std::move(vendor_key), std::move(processor_key),
                &rollback, 0, staging, nullptr)
{
}

DeviceRig::DeviceRig(crypto::RsaPublicKey vendor_key,
                     crypto::RsaKeyPair processor_key,
                     sim::System &system,
                     const LiveInstallConfig &live_config,
                     const StagingConfig &staging)
    : DeviceRig(std::move(vendor_key), std::move(processor_key), nullptr,
                64, staging, &system)
{
    live_.emplace(live_config, system, updater_, 1);
    system.attachAgent(&*live_);
}

DeviceRig::~DeviceRig()
{
    if (live_.has_value())
        system_->detachAgent(&*live_);
}

void
DeviceRig::Plane::fit(uint32_t line_size, const secure::KeyTable &keys)
{
    secure::ProtectionConfig config;
    config.line_size = line_size;
    config.snc.l2_line_size = line_size;
    engine = secure::makeProtectionEngine(config, channel, keys);
}

InstallResult
DeviceRig::install(const UpdateBundle &bundle,
                   secure::CompartmentId compartment)
{
    const VerifyResult staged = updater_.stage(bundle, memory());
    if (!staged.ok()) {
        return {staged.status, staged.detail, compartment, 0,
                updater_.activeSlot()};
    }
    // stage() just authenticated the manifest's line size.
    const uint32_t line_size = bundle.manifest.line_size;
    if (plane_.has_value() &&
        plane_->engine->config().line_size != line_size)
        plane_->fit(line_size, keys_);
    return activate(compartment);
}

InstallResult
DeviceRig::installDelta(const DeltaBundle &delta,
                        secure::CompartmentId compartment)
{
    const UpdateEngine::DeltaReconstruction rec =
        updater_.reconstructDelta(delta, memory());
    if (!rec.result.ok()) {
        return {rec.result.status, rec.result.detail, compartment, 0,
                updater_.activeSlot()};
    }
    return install(*rec.bundle, compartment);
}

InstallResult
DeviceRig::activate(secure::CompartmentId compartment)
{
    return updater_.activate(compartment, memory(), vm(), compartment,
                             engine());
}

std::vector<uint8_t>
DeviceRig::activeSlotBytes()
{
    const uint32_t slot = updater_.activeSlot();
    std::vector<uint8_t> bytes(
        updater_.framedExtent(slot, memory()).value_or(0));
    memory().read(updater_.slotBase(slot), bytes.data(), bytes.size());
    return bytes;
}

bool
DeviceRig::runToCompletion()
{
    for (int chunk = 0; chunk < 600 && !live().done(); ++chunk)
        system_->run(25'000);
    return live().done();
}

LiveInstall &
DeviceRig::live()
{
    panic_if(!live_.has_value(), "a functional rig has no live install");
    return *live_;
}

mem::MainMemory &
DeviceRig::memory()
{
    return plane_.has_value() ? plane_->memory : system_->mainMemory();
}

mem::VirtualMemory &
DeviceRig::vm()
{
    return plane_.has_value() ? plane_->vm : system_->virtualMemory();
}

secure::ProtectionEngine &
DeviceRig::engine()
{
    return plane_.has_value() ? *plane_->engine : system_->engine();
}

UpdateBundle
firmwareBundle(const ImageBuilder &vendor,
               const crypto::RsaPublicKey &processor,
               const UpdateSpec &spec, std::vector<uint8_t> text,
               util::Rng &rng, std::string title, uint64_t base)
{
    xom::PlainProgram program;
    program.title = std::move(title);
    program.entry_point = base;
    program.sections.push_back({".text", base, std::move(text), false});
    return vendor.build(program, spec, processor, rng);
}

std::vector<uint8_t>
payloadGeneration(uint64_t image_bytes, uint32_t generation,
                  double change_fraction, uint64_t fill_seed,
                  const std::function<uint64_t(uint32_t)> &mutate_seed)
{
    constexpr uint64_t kBlock = 64;
    std::vector<uint8_t> bytes(image_bytes);
    util::Rng fill(fill_seed);
    for (auto &byte : bytes)
        byte = static_cast<uint8_t>(fill.nextRange(256));

    const uint64_t blocks = (image_bytes + kBlock - 1) / kBlock;
    const auto changed = static_cast<uint64_t>(
        static_cast<double>(blocks) * change_fraction);
    for (uint32_t gen = 2; gen <= generation; ++gen) {
        util::Rng mutate(mutate_seed(gen));
        for (uint64_t c = 0; c < changed; ++c) {
            const uint64_t begin = mutate.nextRange(blocks) * kBlock;
            const uint64_t end = std::min(begin + kBlock, image_bytes);
            for (uint64_t i = begin; i < end; ++i)
                bytes[i] = static_cast<uint8_t>(mutate.nextRange(256));
        }
    }
    return bytes;
}

FirmwareVendor::FirmwareVendor(uint64_t seed)
    : rng(seed), builder(crypto::rsaGenerate(512, rng)),
      processor(crypto::rsaGenerate(512, rng))
{
}

UpdateBundle
FirmwareVendor::release(uint32_t version, uint64_t image_bytes,
                        secure::CipherKind cipher)
{
    UpdateSpec spec;
    spec.image_version = version;
    spec.rollback_counter = version;
    spec.cipher = cipher;
    return firmwareBundle(
        builder, processor.pub, spec,
        std::vector<uint8_t>(image_bytes, static_cast<uint8_t>(version)),
        rng);
}

ReleasePair
FirmwareVendor::releasePair(uint64_t image_bytes, double change_fraction,
                            uint64_t key_seed) const
{
    const auto text = [&](uint32_t generation) {
        return payloadGeneration(
            image_bytes, generation, change_fraction, key_seed ^ 0xF111,
            [key_seed](uint32_t g) { return key_seed ^ (0xD1FFull + g); });
    };
    UpdateSpec spec;
    ReleasePair pair;
    util::Rng rng_base(key_seed);
    pair.base = firmwareBundle(builder, processor.pub, spec, text(1),
                               rng_base);
    spec.image_version = 2;
    spec.rollback_counter = 2;
    spec.base_digest = sha256DigestOfImage(pair.base.image);
    util::Rng rng_next(key_seed);
    pair.next = firmwareBundle(builder, processor.pub, spec, text(2),
                               rng_next);
    pair.delta = builder.buildDelta(pair.base, pair.next);
    return pair;
}

} // namespace secproc::update
