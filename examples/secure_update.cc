/**
 * @file
 * Secure-update walkthrough: the whole scenario family the update
 * subsystem opens, end to end in one run.
 *
 *  1. vendor builds and signs v1; the device verifies, installs and
 *     runs it;
 *  2. v2 ships and replaces v1 in the other A/B slot;
 *  3. an attacker bit-flips an image section   -> digest-mismatch;
 *  4. an attacker replays the old signed v1    -> rollback;
 *  5. an image built for another processor     -> wrong-processor;
 *  6. an impostor vendor signs for this device -> bad-signature;
 *  7. a staging write is interrupted           -> staging-corrupt,
 *     the previous image stays live, recovery succeeds;
 *  8. a verifier challenges the device         -> attestation quote.
 */

#include <iostream>
#include <string>

#include "update/attestation.hh"
#include "update/device_rig.hh"
#include "util/strutil.hh"
#include "xom/secure_loader.hh"

using namespace secproc;
using namespace secproc::update;

namespace
{

constexpr uint32_t kLine = 128;
constexpr uint64_t kEntry = 0x400000;

void
show(const std::string &what, const VerifyResult &result)
{
    std::cout << "  " << what << " -> "
              << updateStatusName(result.status)
              << (result.detail.empty() ? "" : " (" + result.detail +
                                                   ")")
              << "\n";
}

} // namespace

int
main()
{
    util::Rng rng(2026);

    // The cast: a vendor, a fielded device, and a second device the
    // attacker controls.
    ImageBuilder vendor(crypto::rsaGenerate(512, rng));
    const crypto::RsaKeyPair device_key = crypto::rsaGenerate(512, rng);
    const crypto::RsaKeyPair device_attestation_key =
        crypto::rsaGenerate(512, rng);
    const crypto::RsaKeyPair other_key = crypto::rsaGenerate(512, rng);

    DeviceRig device(vendor.publicKey(), device_key);
    UpdateEngine &updater = device.updater();
    updater.setAttestationKey(device_attestation_key);

    std::cout << "secure update walkthrough\n"
              << "device identity: "
              << util::toHex(updater.processorIdentity().data(), 16)
              << "...\n\n";

    // Each release: four random lines, then four of its version byte.
    UpdateSpec spec;
    auto release = [&](const ImageBuilder &builder,
                       const crypto::RsaPublicKey &target) {
        std::vector<uint8_t> text(8 * kLine,
                                  static_cast<uint8_t>(spec.image_version));
        rng.fillBytes(text.data(), 4 * kLine);
        return firmwareBundle(builder, target, spec, std::move(text), rng,
                              "firmware", kEntry);
    };

    // 1. First install.
    spec.image_version = 1;
    spec.rollback_counter = 1;
    const UpdateBundle v1 = release(vendor, device_key.pub);
    auto installed = device.install(v1);
    std::cout << "1. install v1 -> " << updateStatusName(installed.status)
              << ", slot " << (installed.slot == 0 ? "A" : "B") << "\n";

    xom::SecureLoader loader(device_key.priv, device.keys());
    auto line = loader.fetchLine(kEntry + 5 * kLine, device.memory(),
                                 device.vm(), 1, device.engine(), true);
    std::cout << "   fetched text byte: "
              << util::formatHex(line[0]) << " (vendor wrote "
              << util::formatHex(1) << ")\n";

    // 2. Routine upgrade.
    spec.image_version = 2;
    spec.rollback_counter = 2;
    const UpdateBundle v2 = release(vendor, device_key.pub);
    installed = device.install(v2);
    std::cout << "2. install v2 -> " << updateStatusName(installed.status)
              << ", slot " << (installed.slot == 0 ? "A" : "B")
              << " (A/B alternation)\n";

    std::cout << "\nattack family:\n";

    // 3. Tampered image.
    UpdateBundle tampered = v2;
    tampered.manifest.rollback_counter = 3; // pretend v3
    tampered = vendor.resign(tampered);
    tampered.image.sections[0].bytes[0] ^= 0x01;
    show("3. bit-flipped section ", updater.verify(tampered));

    // 4. Downgrade/replay of the genuine, correctly-signed v1.
    show("4. replay signed v1    ", updater.verify(v1));

    // 5. Image keyed and targeted to a different processor.
    spec.image_version = 3;
    spec.rollback_counter = 3;
    const UpdateBundle for_other = release(vendor, other_key.pub);
    show("5. other device's image", updater.verify(for_other));

    // 6. Impostor vendor: right target, wrong signing key.
    ImageBuilder impostor(crypto::rsaGenerate(512, rng));
    const UpdateBundle forged = release(impostor, device_key.pub);
    show("6. impostor signature  ", updater.verify(forged));

    // 7. Interrupted staging write: stage v3, corrupt the staged
    //    copy, try to activate — then recover.
    const UpdateBundle v3 = release(vendor, device_key.pub);
    updater.stage(v3, device.memory());
    const uint64_t slot_base =
        0x4000'0000 + updater.stagingSlot() * (8ull << 20);
    for (uint64_t off = 100; off < 200; ++off)
        device.memory().corruptByte(slot_base + off, 0x5A);
    auto activated = device.activate();
    std::cout << "  7. interrupted staging -> "
              << updateStatusName(activated.status)
              << "; active image still v"
              << updater.activeManifest()->image_version << "\n";
    updater.stage(v3, device.memory());
    activated = device.activate();
    std::cout << "     re-staged cleanly   -> "
              << updateStatusName(activated.status) << "; active v"
              << updater.activeManifest()->image_version << "\n";

    // 8. Attestation: a verifier with a fresh nonce learns what runs.
    std::cout << "\nattestation:\n";
    Digest nonce = {};
    rng.fillBytes(nonce.data(), nonce.size());
    const AttestationQuote quote = attest(updater, 1, nonce);
    std::cout << "  quote: '" << quote.report.title << "' v"
              << quote.report.image_version << ", rollback "
              << quote.report.rollback_counter << ", image "
              << util::toHex(quote.report.image_digest.data(), 8)
              << "...\n  verifies under device attestation key: "
              << (verifyQuote(device_attestation_key.pub, quote, nonce)
                      ? "yes"
                      : "NO")
              << "\n  rejected under another device's key: "
              << (verifyQuote(other_key.pub, quote, nonce) ? "NO"
                                                           : "yes")
              << "\n";

    std::cout << "\nrollback bank: firmware counter = "
              << device.rollback().current("firmware") << "\n";
    return 0;
}
