/**
 * @file
 * Tests for the secure software-update and attestation subsystem:
 * manifest/bundle serialization, the vendor build -> processor
 * verify/install round trip, the rejection family (tampered image,
 * downgrade, wrong processor, bad signature, interrupted staging),
 * rollback counter monotonicity and attestation quotes.
 */

#include <gtest/gtest.h>

#include "crypto/rsa.hh"
#include "update/attestation.hh"
#include "update/device_rig.hh"
#include "update/manifest.hh"
#include "util/wire.hh"
#include "xom/secure_loader.hh"
#include "xom/vendor_tool.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

constexpr uint32_t kLine = 128;

/** A fielded device: processor identity + update machinery. */
struct Device
{
    util::Rng rng;
    crypto::RsaKeyPair processor = crypto::rsaGenerate(512, rng);
    crypto::RsaKeyPair attestation = crypto::rsaGenerate(512, rng);
    DeviceRig rig;

    Device(uint64_t seed, const crypto::RsaPublicKey &vendor_key)
        : rng(seed), rig(vendor_key, processor)
    {
        rig.updater().setAttestationKey(attestation);
    }

    UpdateEngine &updater() { return rig.updater(); }
};

/** The vendor: signing identity + release pipeline. */
struct Vendor
{
    util::Rng rng;
    ImageBuilder builder;

    explicit Vendor(uint64_t seed)
        : rng(seed), builder(crypto::rsaGenerate(512, rng))
    {}

    UpdateBundle
    release(const crypto::RsaPublicKey &processor, uint32_t version,
            uint64_t counter, const std::string &title = "firmware")
    {
        xom::PlainProgram program;
        program.title = title;
        program.entry_point = 0x400000;
        xom::PlainProgram::PlainSection text;
        text.name = ".text";
        text.vaddr = 0x400000;
        // Version-dependent payload so every release differs.
        text.bytes.resize(4 * kLine,
                          static_cast<uint8_t>(0xC0 + version));
        rng.fillBytes(text.bytes.data(), 2 * kLine);
        xom::PlainProgram::PlainSection data;
        data.name = ".data";
        data.vaddr = 0x600000;
        data.bytes.resize(2 * kLine,
                          static_cast<uint8_t>(version));
        program.sections = {text, data};

        UpdateSpec spec;
        spec.image_version = version;
        spec.rollback_counter = counter;
        return builder.build(program, spec, processor, rng);
    }
};

// ------------------------------------------------------------ round trip

TEST(UpdateRoundTrip, BuildVerifyInstallRun)
{
    Vendor vendor(1);
    Device device(2, vendor.builder.publicKey());

    const UpdateBundle bundle =
        vendor.release(device.processor.pub, 1, 1);
    const VerifyResult admission = device.updater().verify(bundle);
    ASSERT_TRUE(admission.ok()) << admission.detail;

    const InstallResult installed = device.rig.install(bundle);
    ASSERT_TRUE(installed.ok()) << installed.detail;
    EXPECT_EQ(installed.entry_point, 0x400000u);
    EXPECT_EQ(installed.slot, 0u) << "first install lands in slot A";

    // The program must actually run under the protection engine:
    // demand fetches through the loader path decrypt to plaintext.
    xom::SecureLoader loader(device.processor.priv, device.rig.keys());
    const auto line =
        loader.fetchLine(0x400000 + 2 * kLine, device.rig.memory(),
                         device.rig.vm(), 1, device.rig.engine(), true);
    EXPECT_EQ(line, std::vector<uint8_t>(kLine, 0xC0 + 1))
        << "fetched text must decrypt to the vendor's plaintext";

    EXPECT_EQ(device.rig.rollback().current("firmware"), 1u);
    ASSERT_NE(device.updater().compartmentManifest(1), nullptr);
    EXPECT_EQ(device.updater().compartmentManifest(1)->image_version,
              1u);
}

TEST(UpdateRoundTrip, SequentialUpdatesAlternateSlots)
{
    Vendor vendor(3);
    Device device(4, vendor.builder.publicKey());

    const auto v1 = device.rig.install(
        vendor.release(device.processor.pub, 1, 1));
    ASSERT_TRUE(v1.ok()) << v1.detail;
    EXPECT_EQ(v1.slot, 0u);

    const auto v2 = device.rig.install(
        vendor.release(device.processor.pub, 2, 2));
    ASSERT_TRUE(v2.ok()) << v2.detail;
    EXPECT_EQ(v2.slot, 1u) << "second install lands in slot B";
    EXPECT_EQ(device.rig.rollback().current("firmware"), 2u);

    // The new text is what fetches decrypt to now.
    xom::SecureLoader loader(device.processor.priv, device.rig.keys());
    const auto line =
        loader.fetchLine(0x400000 + 2 * kLine, device.rig.memory(),
                         device.rig.vm(), 1, device.rig.engine(), true);
    EXPECT_EQ(line, std::vector<uint8_t>(kLine, 0xC0 + 2));
}

TEST(UpdateRoundTrip, BundleSerializationRoundTrips)
{
    Vendor vendor(5);
    util::Rng rng(6);
    const auto processor = crypto::rsaGenerate(512, rng);
    const UpdateBundle bundle = vendor.release(processor.pub, 7, 9);

    const auto back = UpdateBundle::deserialize(util::encode(bundle));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(util::encode(back->manifest), util::encode(bundle.manifest));
    EXPECT_EQ(back->signature, bundle.signature);
    EXPECT_EQ(util::encode(back->image), util::encode(bundle.image));
    EXPECT_EQ(back->manifest.image_version, 7u);
    EXPECT_EQ(back->manifest.rollback_counter, 9u);
}

TEST(UpdateRoundTrip, ManifestDescribesImage)
{
    Vendor vendor(7);
    util::Rng rng(8);
    const auto processor = crypto::rsaGenerate(512, rng);
    const UpdateBundle bundle = vendor.release(processor.pub, 1, 1);
    const UpdateManifest &m = bundle.manifest;

    EXPECT_EQ(m.processor_id, processorId(processor.pub));
    ASSERT_EQ(m.sections.size(), bundle.image.sections.size());
    for (size_t i = 0; i < m.sections.size(); ++i) {
        EXPECT_EQ(m.sections[i].digest,
                  sha256Digest(bundle.image.sections[i].bytes));
    }
    EXPECT_EQ(m.image_digest, sha256Digest(util::encode(bundle.image)));
}

// ------------------------------------------------------ rejection family

TEST(UpdateRejection, TamperedSectionIsDigestMismatch)
{
    Vendor vendor(10);
    Device device(11, vendor.builder.publicKey());

    UpdateBundle bundle = vendor.release(device.processor.pub, 1, 1);
    bundle.image.sections[0].bytes[17] ^= 0x01; // one flipped bit

    const VerifyResult result = device.updater().verify(bundle);
    EXPECT_EQ(result.status, UpdateStatus::DigestMismatch)
        << result.detail;

    const InstallResult installed = device.rig.install(bundle);
    EXPECT_EQ(installed.status, UpdateStatus::DigestMismatch);
    EXPECT_EQ(device.rig.rollback().current("firmware"), 0u)
        << "a rejected update must not burn the counter";
}

TEST(UpdateRejection, TamperedCapsuleIsDigestMismatch)
{
    Vendor vendor(12);
    Device device(13, vendor.builder.publicKey());
    UpdateBundle bundle = vendor.release(device.processor.pub, 1, 1);
    bundle.image.key_capsule[3] ^= 0x80;
    EXPECT_EQ(device.updater().verify(bundle).status,
              UpdateStatus::DigestMismatch);
}

TEST(UpdateRejection, ResignedDowngradeIsRollback)
{
    Vendor vendor(14);
    Device device(15, vendor.builder.publicKey());

    // Take v2 (counter 2) live first.
    const auto v2 = device.rig.install(
        vendor.release(device.processor.pub, 2, 2));
    ASSERT_TRUE(v2.ok()) << v2.detail;

    // A *correctly signed* release with a lower counter — the
    // strongest downgrade attempt: nothing is forged, it is simply
    // old. The counter, not the signature, must kill it.
    const UpdateBundle old_release =
        vendor.release(device.processor.pub, 1, 1);
    const VerifyResult result = device.updater().verify(old_release);
    EXPECT_EQ(result.status, UpdateStatus::Rollback) << result.detail;

    // Equal counter (replay of the installed release) also fails.
    const UpdateBundle replay =
        vendor.release(device.processor.pub, 2, 2);
    EXPECT_EQ(device.updater().verify(replay).status,
              UpdateStatus::Rollback);
}

TEST(UpdateRejection, OtherProcessorsImageIsWrongProcessor)
{
    Vendor vendor(16);
    Device device_a(17, vendor.builder.publicKey());
    Device device_b(18, vendor.builder.publicKey());

    const UpdateBundle for_b =
        vendor.release(device_b.processor.pub, 1, 1);
    const VerifyResult result = device_a.updater().verify(for_b);
    EXPECT_EQ(result.status, UpdateStatus::WrongProcessor)
        << result.detail;
}

TEST(UpdateRejection, ForgedSignatureIsBadSignature)
{
    Vendor vendor(19);
    Vendor impostor(20);
    Device device(21, vendor.builder.publicKey());

    // An impostor with its own key signs an image for our processor.
    UpdateBundle forged =
        impostor.release(device.processor.pub, 1, 1);
    EXPECT_EQ(device.updater().verify(forged).status,
              UpdateStatus::BadSignature);

    // A manifest edited after genuine signing also fails.
    UpdateBundle edited = vendor.release(device.processor.pub, 1, 1);
    edited.manifest.rollback_counter = 99;
    EXPECT_EQ(device.updater().verify(edited).status,
              UpdateStatus::BadSignature);

    // A corrupted signature fails.
    UpdateBundle corrupted =
        vendor.release(device.processor.pub, 1, 1);
    corrupted.signature[5] ^= 0x10;
    EXPECT_EQ(device.updater().verify(corrupted).status,
              UpdateStatus::BadSignature);
}

TEST(UpdateRejection, TruncatedBundleIsMalformed)
{
    Vendor vendor(22);
    util::Rng rng(23);
    const auto processor = crypto::rsaGenerate(512, rng);
    auto bytes = util::encode(vendor.release(processor.pub, 1, 1));
    bytes.resize(bytes.size() / 2);
    EXPECT_FALSE(UpdateBundle::deserialize(bytes).has_value());
}

TEST(UpdateRejection, SelfConsistentGarbageImageIsMalformedNotFatal)
{
    // An attacker who controls the whole bundle can make the
    // manifest's image digest match arbitrary non-image bytes (no
    // signature needed for self-consistency). Parsing must reject
    // this cleanly rather than dying in the image parser.
    util::Rng rng(24);
    std::vector<uint8_t> garbage(256);
    rng.fillBytes(garbage.data(), garbage.size());

    UpdateManifest manifest;
    manifest.title = "evil";
    manifest.image_digest = sha256Digest(garbage);

    // Hand-frame the bundle exactly as util::encode would, but with
    // the garbage bytes where the image blob belongs.
    std::vector<uint8_t> crafted;
    util::VectorSink sink(crafted);
    util::WireWriter(sink)
        .tag(0x53505542) // "SPUB"
        .nested32(manifest)
        .blob(std::vector<uint8_t>{0xAA, 0xBB})
        .u64(garbage.size());
    crafted.insert(crafted.end(), garbage.begin(), garbage.end());

    EXPECT_FALSE(UpdateBundle::deserialize(crafted).has_value());
}

TEST(UpdateRejection, TamperedEntryPointIsDigestMismatch)
{
    // The per-section digests do not cover image-level fields; the
    // whole-image digest must catch edits to them.
    Vendor vendor(25);
    Device device(26, vendor.builder.publicKey());
    UpdateBundle bundle = vendor.release(device.processor.pub, 1, 1);
    bundle.image.entry_point = 0xDEAD0000;
    EXPECT_EQ(device.updater().verify(bundle).status,
              UpdateStatus::DigestMismatch);

    // Flipping a section's encryption mode (e.g. to Plaintext) is
    // also caught even though section digests cover only the bytes.
    UpdateBundle downgraded =
        vendor.release(device.processor.pub, 1, 1);
    downgraded.image.sections[0].encryption =
        xom::SectionEncryption::Plaintext;
    EXPECT_EQ(device.updater().verify(downgraded).status,
              UpdateStatus::DigestMismatch);
}

TEST(UpdateRejection, AbsurdLineSizeIsMalformed)
{
    Vendor vendor(27);
    Device device(28, vendor.builder.publicKey());
    UpdateBundle bundle = vendor.release(device.processor.pub, 1, 1);
    bundle.manifest.line_size = 0;
    EXPECT_EQ(device.updater().verify(bundle).status,
              UpdateStatus::MalformedBundle);
    bundle.manifest.line_size = 96; // not a power of two
    EXPECT_EQ(device.updater().verify(bundle).status,
              UpdateStatus::MalformedBundle);
}

TEST(UpdateRejection, UnknownCipherKindIsMalformedNotFatal)
{
    // Regression: the cipher field used to be cast straight from the
    // untrusted u32 into secure::CipherKind, surviving parse with an
    // out-of-range value and panicking later inside makeCipher().
    // It must die at deserialize as a malformed manifest.
    Vendor vendor(53);
    util::Rng rng(54);
    const auto processor = crypto::rsaGenerate(512, rng);
    const UpdateBundle bundle = vendor.release(processor.pub, 1, 1);

    std::vector<uint8_t> bytes = util::encode(bundle.manifest);
    // Manifest layout: magic u32 | format u32 | title (u32 len +
    // bytes) | image_version u32 | rollback u64 | processor_id[32] |
    // cipher u32 | ...
    const size_t cipher_off =
        4 + 4 + 4 + bundle.manifest.title.size() + 4 + 8 + 32;
    ASSERT_LT(cipher_off + 4, bytes.size());
    ASSERT_TRUE(UpdateManifest::deserialize(bytes).has_value())
        << "the unpatched manifest must parse";

    for (const uint32_t evil : {99u, 3u, 0xFFFF'FFFFu}) {
        std::vector<uint8_t> patched = bytes;
        for (int i = 0; i < 4; ++i)
            patched[cipher_off + i] =
                static_cast<uint8_t>(evil >> (8 * i));
        EXPECT_FALSE(UpdateManifest::deserialize(patched).has_value())
            << "cipher kind " << evil << " parsed";
    }
}

TEST(UpdateRejection, ImageLengthPastU32IsNotTruncated)
{
    // Regression: the image blob's length used to be framed as a u32
    // cast of a u64 size, so a crafted length of 2^32 + N read back
    // as N and "parsed" with silent wraparound. The u64 framing must
    // reject any claimed length the buffer cannot back.
    Vendor vendor(55);
    util::Rng rng(56);
    const auto processor = crypto::rsaGenerate(512, rng);
    const UpdateBundle bundle = vendor.release(processor.pub, 1, 1);

    const std::vector<uint8_t> manifest_bytes =
        util::encode(bundle.manifest);
    const std::vector<uint8_t> tail(16, 0xEE);

    auto craft = [&](uint64_t claimed_image_len) {
        std::vector<uint8_t> out;
        util::VectorSink sink(out);
        util::WireWriter(sink)
            .tag(0x53505542) // "SPUB"
            .blob(manifest_bytes)
            .blob(bundle.signature)
            .u64(claimed_image_len);
        out.insert(out.end(), tail.begin(), tail.end());
        return out;
    };

    // The wraparound probe: 2^32 + 16 with 16 bytes present. A u32
    // frame would have read this as a 16-byte image.
    EXPECT_FALSE(UpdateBundle::deserialize(
                     craft((1ull << 32) + tail.size()))
                     .has_value());
    // Boundary neighbours on both sides of the u32 range.
    EXPECT_FALSE(UpdateBundle::deserialize(craft(1ull << 32))
                     .has_value());
    EXPECT_FALSE(UpdateBundle::deserialize(craft(0xFFFF'FFFFull))
                     .has_value());

    // Control: a genuine bundle still frames and parses, and its
    // size query matches the encoder exactly.
    EXPECT_EQ(util::encodedSize(bundle), util::encode(bundle).size());
    EXPECT_TRUE(
        UpdateBundle::deserialize(util::encode(bundle)).has_value());
}

// ------------------------------------------------- interrupted install

TEST(UpdateStaging, InterruptedStagingKeepsOldImageLive)
{
    Vendor vendor(30);
    Device device(31, vendor.builder.publicKey());

    const auto v1 = device.rig.install(
        vendor.release(device.processor.pub, 1, 1));
    ASSERT_TRUE(v1.ok()) << v1.detail;

    // Stage v2 but "lose power" mid-write: corrupt the staged copy
    // in untrusted memory before activation.
    const UpdateBundle v2 = vendor.release(device.processor.pub, 2, 2);
    const VerifyResult staged =
        device.updater().stage(v2, device.rig.memory());
    ASSERT_TRUE(staged.ok()) << staged.detail;

    const uint64_t slot_base = 0x4000'0000 +
                               device.updater().stagingSlot() *
                                   (8ull << 20);
    for (uint64_t off = 200; off < 260; ++off)
        device.rig.memory().corruptByte(slot_base + off, 0xFF);

    const InstallResult activated = device.rig.activate();
    EXPECT_EQ(activated.status, UpdateStatus::StagingCorrupt)
        << activated.detail;

    // Old image still active, counter not burned, v1 still runs.
    EXPECT_EQ(device.updater().activeSlot(), 0u);
    EXPECT_EQ(device.rig.rollback().current("firmware"), 1u);
    ASSERT_TRUE(device.updater().activeManifest().has_value());
    EXPECT_EQ(device.updater().activeManifest()->image_version, 1u);

    // Recovery: re-stage the same bundle cleanly and activate.
    ASSERT_TRUE(device.updater().stage(v2, device.rig.memory()).ok());
    const InstallResult retried = device.rig.activate();
    ASSERT_TRUE(retried.ok()) << retried.detail;
    EXPECT_EQ(device.rig.rollback().current("firmware"), 2u);
}

TEST(UpdateStaging, ActivateWithoutStageIsNothingStaged)
{
    Vendor vendor(32);
    Device device(33, vendor.builder.publicKey());
    EXPECT_EQ(device.rig.activate().status, UpdateStatus::NothingStaged);

    // An activation consumes the staged slot: a second one has
    // nothing left to commit and leaves the installed image alone.
    ASSERT_TRUE(
        device.rig.install(vendor.release(device.processor.pub, 1, 1))
            .ok());
    const InstallResult again = device.rig.activate();
    EXPECT_EQ(again.status, UpdateStatus::NothingStaged);
    EXPECT_EQ(again.slot, 0u);
    EXPECT_EQ(device.rig.rollback().current("firmware"), 1u);
}

TEST(UpdateStaging, PlaneFollowsTheVerifiedLineSize)
{
    Vendor vendor(37);
    Device device(38, vendor.builder.publicKey());
    ASSERT_TRUE(
        device.rig.install(vendor.release(device.processor.pub, 1, 1))
            .ok());
    EXPECT_EQ(device.rig.engine().config().line_size, kLine);

    // The next release is cut for 256-byte lines: the plane is
    // rebuilt for it, and its text decrypts line by line.
    constexpr uint32_t kWide = 2 * kLine;
    UpdateSpec spec;
    spec.image_version = 2;
    spec.rollback_counter = 2;
    spec.line_size = kWide;
    const InstallResult installed = device.rig.install(
        firmwareBundle(vendor.builder, device.processor.pub, spec,
                       std::vector<uint8_t>(4 * kWide, 0x5A), vendor.rng,
                       "firmware", 0x400000));
    ASSERT_TRUE(installed.ok()) << installed.detail;
    EXPECT_EQ(device.rig.engine().config().line_size, kWide);
    EXPECT_EQ(device.rig.engine().config().snc.l2_line_size, kWide);

    xom::SecureLoader loader(device.processor.priv, device.rig.keys());
    EXPECT_EQ(loader.fetchLine(0x400000 + kWide, device.rig.memory(),
                               device.rig.vm(), 1, device.rig.engine(),
                               true),
              std::vector<uint8_t>(kWide, 0x5A));

    // A manifest line size that is not a power of two is refused
    // before the plane is touched.
    spec.image_version = 3;
    spec.rollback_counter = 3;
    UpdateBundle odd =
        firmwareBundle(vendor.builder, device.processor.pub, spec,
                       std::vector<uint8_t>(4 * kWide, 0x3C), vendor.rng,
                       "firmware", 0x400000);
    odd.manifest.line_size = 96;
    EXPECT_EQ(device.rig.install(odd).status,
              UpdateStatus::MalformedBundle);
    EXPECT_EQ(device.rig.engine().config().line_size, kWide);
}

// ------------------------------------------------------- rollback store

TEST(RollbackStoreTest, CountersAreMonotonic)
{
    RollbackStore store;
    EXPECT_EQ(store.current("app"), 0u);
    EXPECT_TRUE(store.wouldAccept("app", 1));
    EXPECT_FALSE(store.wouldAccept("app", 0));

    store.commit("app", 5);
    EXPECT_EQ(store.current("app"), 5u);
    EXPECT_FALSE(store.wouldAccept("app", 5));
    EXPECT_FALSE(store.wouldAccept("app", 4));
    EXPECT_TRUE(store.wouldAccept("app", 6));

    // Independent titles do not interfere.
    EXPECT_TRUE(store.wouldAccept("other", 1));
}

TEST(UpdateRejection, FullCounterBankIsItsOwnStatus)
{
    Vendor vendor(29);
    Device device(34, vendor.builder.publicKey());
    // Shrink the device's fuse bank to one slot.
    DeviceRig tiny(vendor.builder.publicKey(), device.processor,
                   StagingConfig{}, 1);
    UpdateEngine &updater = tiny.updater();

    const auto first = tiny.install(
        vendor.release(device.processor.pub, 1, 1, "app-one"));
    ASSERT_TRUE(first.ok()) << first.detail;

    // A fresh title with a perfectly fine counter must be reported
    // as bank exhaustion, not as a (nonsensical) rollback.
    const VerifyResult second = updater.verify(
        vendor.release(device.processor.pub, 1, 1, "app-two"));
    EXPECT_EQ(second.status, UpdateStatus::CounterBankFull)
        << second.detail;

    // The existing title still upgrades.
    EXPECT_TRUE(updater
                    .verify(vendor.release(device.processor.pub, 2, 2,
                                           "app-one"))
                    .ok());
}

TEST(UpdateRejection, OversizedBundleIsTooLargeNotFatal)
{
    Vendor vendor(35);
    Device device(36, vendor.builder.publicKey());
    // A staging slot too small for even a minimal bundle.
    DeviceRig small(vendor.builder.publicKey(), device.processor,
                    StagingConfig{0x4000'0000, 512});

    const VerifyResult result = small.updater().verify(
        vendor.release(device.processor.pub, 1, 1));
    EXPECT_EQ(result.status, UpdateStatus::TooLarge) << result.detail;
}

TEST(RollbackStoreTest, CapacityBoundsFreshTitles)
{
    RollbackStore store(2);
    store.commit("a", 1);
    store.commit("b", 1);
    EXPECT_FALSE(store.wouldAccept("c", 1))
        << "fuse bank is full for new titles";
    EXPECT_TRUE(store.wouldAccept("a", 2))
        << "existing titles still advance";
}

TEST(RollbackStoreTest, SerializationSurvivesReboot)
{
    RollbackStore store(16);
    store.commit("boot", 3);
    store.commit("app", 41);

    const auto rebooted = RollbackStore::deserialize(util::encode(store));
    ASSERT_TRUE(rebooted.has_value());
    EXPECT_EQ(rebooted->current("boot"), 3u);
    EXPECT_EQ(rebooted->current("app"), 41u);
    EXPECT_EQ(rebooted->capacity(), 16u);

    // Corrupt persistence is refused, not trusted.
    auto bytes = util::encode(store);
    bytes.resize(bytes.size() - 3);
    EXPECT_FALSE(RollbackStore::deserialize(bytes).has_value());

    // Titles are stored strictly ascending, so a duplicate title or
    // titles out of order are refused, not merged or re-sorted: the
    // parse accepts only what util::encode produces. Layout: magic
    // u32 | capacity u64 | count u32 | { title (u32 len + bytes) |
    // counter u64 }...
    RollbackStore pair(16);
    pair.commit("a", 1);
    pair.commit("b", 2);
    const size_t first = 4 + 8 + 4 + 4;
    const size_t second = first + 1 + 8 + 4;
    auto duplicate = util::encode(pair);
    ASSERT_EQ(duplicate[first], 'a');
    ASSERT_EQ(duplicate[second], 'b');
    duplicate[second] = 'a';
    EXPECT_FALSE(RollbackStore::deserialize(duplicate).has_value());
    auto unsorted = util::encode(pair);
    unsorted[first] = 'b';
    unsorted[second] = 'a';
    EXPECT_FALSE(RollbackStore::deserialize(unsorted).has_value());
}

// --------------------------------------------------------- attestation

TEST(Attestation, QuoteProvesActiveImage)
{
    Vendor vendor(40);
    Device device(41, vendor.builder.publicKey());
    const auto installed = device.rig.install(
        vendor.release(device.processor.pub, 3, 7));
    ASSERT_TRUE(installed.ok()) << installed.detail;

    Digest nonce = {};
    device.rng.fillBytes(nonce.data(), nonce.size());
    const AttestationQuote quote = attest(device.updater(), 1, nonce);

    EXPECT_TRUE(verifyQuote(device.attestation.pub, quote, nonce));
    EXPECT_EQ(quote.report.image_version, 3u);
    EXPECT_EQ(quote.report.rollback_counter, 7u);
    EXPECT_EQ(quote.report.title, "firmware");
}

TEST(Attestation, StaleNonceAndTamperedReportRejected)
{
    Vendor vendor(42);
    Device device(43, vendor.builder.publicKey());
    ASSERT_TRUE(
        device.rig.install(vendor.release(device.processor.pub, 1, 1)).ok());

    Digest nonce = {};
    nonce[0] = 0xAB;
    AttestationQuote quote = attest(device.updater(), 1, nonce);

    Digest other_nonce = nonce;
    other_nonce[0] ^= 1;
    EXPECT_FALSE(verifyQuote(device.attestation.pub, quote, other_nonce))
        << "replayed quote must fail a fresh challenge";

    // Claiming a different version breaks the signature.
    quote.report.image_version = 99;
    EXPECT_FALSE(verifyQuote(device.attestation.pub, quote, nonce));
}

TEST(Attestation, QuoteBindsToProcessorIdentity)
{
    Vendor vendor(44);
    Device device_a(45, vendor.builder.publicKey());
    Device device_b(46, vendor.builder.publicKey());
    ASSERT_TRUE(device_a.rig
                    .install(vendor.release(device_a.processor.pub, 1, 1))
                    .ok());

    const Digest nonce = {};
    const AttestationQuote quote = attest(device_a.updater(), 1, nonce);
    EXPECT_TRUE(verifyQuote(device_a.attestation.pub, quote, nonce));
    EXPECT_FALSE(verifyQuote(device_b.attestation.pub, quote, nonce))
        << "a quote must not verify as another processor";
}

TEST(Attestation, QuoteSignedByAttestationKeyNotUnwrapKey)
{
    // Sign/decrypt key separation: the capsule-unwrap key pair's
    // padding check is an observable decryption oracle, so quotes
    // must never verify under it.
    Vendor vendor(49);
    Device device(52, vendor.builder.publicKey());
    ASSERT_TRUE(
        device.rig.install(vendor.release(device.processor.pub, 1, 1)).ok());

    const Digest nonce = {};
    const AttestationQuote quote = attest(device.updater(), 1, nonce);
    EXPECT_TRUE(verifyQuote(device.attestation.pub, quote, nonce));
    EXPECT_FALSE(verifyQuote(device.processor.pub, quote, nonce))
        << "quote must not be a signature under the unwrap key";
    // Identity in the report remains the capsule-key fingerprint.
    EXPECT_EQ(quote.report.processor_id,
              processorId(device.processor.pub));
}

TEST(Attestation, HmacBindingWorksWithSharedKey)
{
    Vendor vendor(47);
    Device device(48, vendor.builder.publicKey());
    ASSERT_TRUE(
        device.rig.install(vendor.release(device.processor.pub, 1, 1)).ok());

    const std::vector<uint8_t> session_key = {0x01, 0x02, 0x03, 0x04};
    const Digest nonce = {};
    const AttestationQuote quote =
        attest(device.updater(), 1, nonce, session_key);

    EXPECT_TRUE(verifyQuoteMac(session_key, quote, nonce));
    const std::vector<uint8_t> wrong_key = {0x0A, 0x0B};
    EXPECT_FALSE(verifyQuoteMac(wrong_key, quote, nonce));
}

// ------------------------------------------------- multi-compartment

TEST(MultiCompartment, IndependentTitlesUpdateIndependently)
{
    Vendor vendor(50);
    Device device(51, vendor.builder.publicKey());

    const auto app1 = device.rig.install(
        vendor.release(device.processor.pub, 1, 1, "app-one"));
    ASSERT_TRUE(app1.ok()) << app1.detail;
    const auto app2 = device.rig.install(
        vendor.release(device.processor.pub, 4, 4, "app-two"), 2);
    ASSERT_TRUE(app2.ok()) << app2.detail;

    EXPECT_EQ(device.rig.rollback().current("app-one"), 1u);
    EXPECT_EQ(device.rig.rollback().current("app-two"), 4u);
    EXPECT_EQ(device.rig.keys().size(), 2u);

    // app-one can still move 1 -> 2 even though app-two is at 4.
    const auto upgraded = device.rig.install(
        vendor.release(device.processor.pub, 2, 2, "app-one"));
    ASSERT_TRUE(upgraded.ok()) << upgraded.detail;

    // Per-compartment attestation sees the right images.
    const Digest nonce = {};
    EXPECT_EQ(attest(device.updater(), 1, nonce).report.title,
              "app-one");
    EXPECT_EQ(attest(device.updater(), 2, nonce).report.title,
              "app-two");
    EXPECT_EQ(attest(device.updater(), 1, nonce).report.image_version,
              2u);
}

} // namespace
