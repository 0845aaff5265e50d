/**
 * @file
 * Delta-update tests (DFU-grade OTA).
 *
 * The headline property is differential: a delta-reconstructed
 * install must leave the device byte-identical to a full-bundle
 * install of the same release — slot bytes, active manifest and
 * rollback counter — on both the pure functional engine and the
 * unified cycle plane. Around it: the shipping-size win deltas
 * exist for, BaseMismatch as a clean fall-back-to-full signal (never
 * a crash), tampered patch ops dying at the signed-manifest checks,
 * the encoder-derived framed-size gate, and the staging journal's
 * resume semantics and canonical parse. The mutation oracle over
 * every format lives in wire_test.
 */

#include <gtest/gtest.h>

#include "crypto/latency.hh"
#include "ota/transport.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "update/device_rig.hh"
#include "util/wire.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

constexpr uint32_t kLine = 128;
constexpr StagingConfig kStaging{0x4000'0000, 2ull << 20};

/** The pure-functional device (zero simulated cycles). */
DeviceRig
functionalDevice(const FirmwareVendor &vendor)
{
    return DeviceRig(vendor.builder.publicKey(), vendor.processor,
                     kStaging);
}

// ------------------------------------------------------- wire format

TEST(DeltaBundle, SerializeRoundTrips)
{
    FirmwareVendor vendor(0xDE17A);
    const ReleasePair pair = vendor.releasePair(32ull << 10, 0.10, 0xAB);

    const std::vector<uint8_t> bytes = util::encode(pair.delta);
    EXPECT_EQ(bytes.size(), util::encodedSize(pair.delta));

    const auto parsed = DeltaBundle::deserialize(bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(util::encode(*parsed), bytes);
    EXPECT_EQ(util::encode(parsed->manifest),
              util::encode(pair.delta.manifest));
    EXPECT_EQ(parsed->signature, pair.delta.signature);
}

TEST(DeltaBundle, TruncationIsRejectedNotFatal)
{
    FirmwareVendor vendor(0xDE17B);
    const ReleasePair pair = vendor.releasePair(8ull << 10, 0.10, 0xAC);
    const std::vector<uint8_t> bytes = util::encode(pair.delta);

    // Every prefix must parse to nullopt or to a structurally valid
    // bundle — never crash. Stride keeps the loop fast; the first and
    // last few bytes are the interesting edges, so cover them exactly.
    for (size_t cut = 0; cut < bytes.size();
         cut += (cut < 64 || cut + 64 > bytes.size()) ? 1 : 997) {
        const std::vector<uint8_t> prefix(bytes.begin(),
                                          bytes.begin() + cut);
        EXPECT_FALSE(DeltaBundle::deserialize(prefix).has_value())
            << "truncated delta at " << cut << " bytes parsed";
    }
}

// ---------------------------------------------------- shipping size

TEST(DeltaBundle, ShipsFarFewerBytesForSmallChanges)
{
    FirmwareVendor vendor(0xDE17C);
    const ReleasePair pair = vendor.releasePair(256ull << 10, 0.10, 0xAD);

    // A 10%-changed release must ship well under half the full
    // bundle (in practice ~15%: literals + manifest + capsule + op
    // framing).
    EXPECT_LT(util::encodedSize(pair.delta),
              util::encodedSize(pair.next) / 2)
        << "delta=" << util::encodedSize(pair.delta)
        << " full=" << util::encodedSize(pair.next);
    EXPECT_GT(pair.delta.literalBytes(), 0u);
}

// ----------------------------------------------- satellite: framing

TEST(UpdateEngine, FramedSizeDerivesFromTheSerializer)
{
    FirmwareVendor vendor(0xDE17D);
    const ReleasePair pair = vendor.releasePair(16ull << 10, 0.10, 0xAE);

    // The slot-fit gate in verify() must cost exactly what the
    // encoder produces — for full bundles and for a
    // delta-reconstructed bundle alike — and one framing serves
    // both bundle kinds.
    EXPECT_EQ(util::encodedSize(pair.next), util::encode(pair.next).size());
    const std::vector<uint8_t> framed = frameBundle(pair.next);
    EXPECT_EQ(framed.size(), kSlotHeaderBytes + util::encodedSize(pair.next));
    EXPECT_EQ(std::vector<uint8_t>(framed.begin() + kSlotHeaderBytes,
                                   framed.end()),
              util::encode(pair.next));
    const std::vector<uint8_t> framed_delta = frameBundle(pair.delta);
    const auto delta_view = unframeBundleView(framed_delta);
    ASSERT_TRUE(delta_view.has_value());
    EXPECT_EQ(std::vector<uint8_t>(delta_view->begin(), delta_view->end()),
              util::encode(pair.delta));

    DeviceRig rig = functionalDevice(vendor);
    ASSERT_TRUE(rig.install(pair.base).ok());
    const auto rec =
        rig.updater().reconstructDelta(pair.delta, rig.memory());
    ASSERT_TRUE(rec.result.ok()) << rec.result.detail;
    EXPECT_EQ(util::encodedSize(*rec.bundle),
              util::encode(*rec.bundle).size());
    EXPECT_EQ(frameBundle(*rec.bundle).size(),
              kSlotHeaderBytes + util::encodedSize(*rec.bundle));
}

// ------------------------------------------------------ differential

TEST(Delta, ReconstructionIsByteIdenticalToFullInstall)
{
    FirmwareVendor vendor(0xDE17E);
    const ReleasePair pair = vendor.releasePair(64ull << 10, 0.10, 0xAF);

    DeviceRig full = functionalDevice(vendor);
    ASSERT_TRUE(full.install(pair.base).ok());
    ASSERT_TRUE(full.install(pair.next).ok());

    DeviceRig delta = functionalDevice(vendor);
    ASSERT_TRUE(delta.install(pair.base).ok());
    const InstallResult installed = delta.installDelta(pair.delta);
    ASSERT_TRUE(installed.ok()) << installed.detail;

    // The reconstructed device is indistinguishable from the
    // full-bundle one: same active slot, same slot bytes, same
    // manifest, same counter.
    EXPECT_EQ(delta.updater().activeSlot(), full.updater().activeSlot());
    EXPECT_EQ(delta.activeSlotBytes().size(),
              kSlotHeaderBytes + util::encodedSize(pair.next));
    EXPECT_EQ(delta.activeSlotBytes(), full.activeSlotBytes());
    EXPECT_EQ(util::encode(*delta.updater().activeManifest()),
              util::encode(*full.updater().activeManifest()));
    EXPECT_EQ(delta.rollback().current("fw"),
              full.rollback().current("fw"));
}

// ----------------------------------------------- fallback + tampering

TEST(Delta, BaseMismatchIsACleanFallbackSignal)
{
    FirmwareVendor vendor(0xDE17F);
    const ReleasePair pair = vendor.releasePair(16ull << 10, 0.10, 0xB0);

    // No active image at all: the device needs the full bundle.
    DeviceRig fresh = functionalDevice(vendor);
    EXPECT_EQ(fresh.updater().stageDelta(pair.delta, fresh.memory())
                  .status,
              UpdateStatus::BaseMismatch);

    // Wrong base installed (a different generation's bytes).
    DeviceRig wrong = functionalDevice(vendor);
    const UpdateBundle other =
        vendor.releasePair(16ull << 10, 0.10, 0xCAFE).base;
    ASSERT_TRUE(wrong.install(other).ok());
    EXPECT_EQ(wrong.updater().stageDelta(pair.delta, wrong.memory())
                  .status,
              UpdateStatus::BaseMismatch);

    // The defined fallback always works: the full bundle installs on
    // the very device that just refused the delta.
    EXPECT_TRUE(wrong.install(pair.next).ok());
}

TEST(Delta, DamagedBaseSlotHeaderIsBaseMismatch)
{
    FirmwareVendor vendor(0xDE180);
    const ReleasePair pair = vendor.releasePair(16ull << 10, 0.10, 0xB1);

    // Damage the active slot's header two ways: a wrong magic, and a
    // length past the slot's capacity (magic intact).
    std::vector<uint8_t> bad_magic, oversize;
    util::VectorSink magic_sink(bad_magic), size_sink(oversize);
    util::WireWriter(magic_sink).u32(0xDEADBEEF);
    util::WireWriter(size_sink).u64(kStaging.slot_size);
    const struct
    {
        const char *what;
        uint64_t offset;
        std::vector<uint8_t> bytes;
    } damages[] = {{"magic", 0, bad_magic}, {"length", 4, oversize}};

    for (const auto &damage : damages) {
        SCOPED_TRACE(damage.what);
        DeviceRig device = functionalDevice(vendor);
        ASSERT_TRUE(device.install(pair.base).ok());
        const UpdateEngine &updater = device.updater();
        device.memory().write(
            updater.slotBase(updater.activeSlot()) + damage.offset,
            damage.bytes.data(), damage.bytes.size());

        const VerifyResult staged =
            device.updater().stageDelta(pair.delta, device.memory());
        EXPECT_EQ(staged.status, UpdateStatus::BaseMismatch);
        EXPECT_EQ(staged.detail,
                  "active slot holds no readable base bundle");

        // The full bundle is the fallback and still installs here.
        EXPECT_TRUE(device.install(pair.next).ok());
    }
}

TEST(Delta, TamperedPatchInputIsRejectedNotTrusted)
{
    FirmwareVendor vendor(0xDE180);
    const ReleasePair pair = vendor.releasePair(16ull << 10, 0.10, 0xB1);

    DeviceRig rig = functionalDevice(vendor);
    ASSERT_TRUE(rig.install(pair.base).ok());

    // A flipped literal byte survives the bounds checks but dies on
    // the signed digests of the reconstructed image.
    {
        DeltaBundle tampered = pair.delta;
        bool flipped = false;
        for (auto &section : tampered.sections) {
            for (auto &op : section.ops) {
                if (op.kind == DeltaOp::Kind::Literal &&
                    !op.literal.empty()) {
                    op.literal[op.literal.size() / 2] ^= 0xFF;
                    flipped = true;
                    break;
                }
            }
            if (flipped)
                break;
        }
        ASSERT_TRUE(flipped);
        EXPECT_EQ(rig.updater().reconstructDelta(tampered, rig.memory())
                      .result.status,
                  UpdateStatus::DigestMismatch);
    }

    // A copy range pushed past the base section is caught by the
    // bounds checks before any bytes move.
    {
        DeltaBundle tampered = pair.delta;
        bool bent = false;
        for (auto &section : tampered.sections) {
            for (auto &op : section.ops) {
                if (op.kind == DeltaOp::Kind::Copy) {
                    op.src_offset = ~0ull - op.length;
                    bent = true;
                    break;
                }
            }
            if (bent)
                break;
        }
        ASSERT_TRUE(bent);
        EXPECT_EQ(rig.updater().reconstructDelta(tampered, rig.memory())
                      .result.status,
                  UpdateStatus::MalformedBundle);
    }

    // A forged signature never reaches the patch ops at all.
    {
        DeltaBundle tampered = pair.delta;
        tampered.signature[0] ^= 0x01;
        EXPECT_EQ(rig.updater().reconstructDelta(tampered, rig.memory())
                      .result.status,
                  UpdateStatus::BadSignature);
    }

    // The untampered delta still installs after all those refusals —
    // nothing above changed device state.
    EXPECT_TRUE(rig.updater().stageDelta(pair.delta, rig.memory()).ok());
}

// -------------------------------------------------- staging journal

TEST(StagingJournal, ResumeKeepsOnlyMatchingRecords)
{
    StagingJournal journal;
    Digest digest{};
    digest[0] = 0xAA;

    // Fresh record: nothing marked.
    EXPECT_FALSE(journal.begin(0, digest, 10'000, 1024));
    EXPECT_EQ(journal.chunkCount(0), 10u);
    EXPECT_EQ(journal.completedBytes(0), 0u);

    journal.markChunk(0, 0);
    journal.markChunk(0, 3);
    journal.markChunk(0, 9); // tail chunk: 10'000 - 9*1024 bytes
    EXPECT_TRUE(journal.chunkDone(0, 3));
    EXPECT_FALSE(journal.chunkDone(0, 4));
    EXPECT_EQ(journal.completedBytes(0),
              1024u + 1024u + (10'000u - 9u * 1024u));

    // Same identity resumes with the bitmap intact...
    EXPECT_TRUE(journal.begin(0, digest, 10'000, 1024));
    EXPECT_TRUE(journal.chunkDone(0, 0));

    // ...and survives a simulated reboot.
    const auto rebooted =
        StagingJournal::deserialize(util::encode(journal));
    ASSERT_TRUE(rebooted.has_value());
    EXPECT_TRUE(rebooted->chunkDone(0, 3));
    EXPECT_EQ(rebooted->completedBytes(0),
              journal.completedBytes(0));

    // Any identity mismatch resets: different payload digest...
    Digest other = digest;
    other[1] = 0xBB;
    StagingJournal fresh = *rebooted;
    EXPECT_FALSE(fresh.begin(0, other, 10'000, 1024));
    EXPECT_FALSE(fresh.chunkDone(0, 0));

    // ...different size or granularity.
    StagingJournal resized = *rebooted;
    EXPECT_FALSE(resized.begin(0, digest, 12'000, 1024));
    StagingJournal rechunked = *rebooted;
    EXPECT_FALSE(rechunked.begin(0, digest, 10'000, 512));

    // Slots are independent; clear() drops one record only.
    journal.begin(1, other, 4'000, 1024);
    journal.clear(1);
    EXPECT_FALSE(journal.active(1));
    EXPECT_TRUE(journal.active(0));
}

TEST(StagingJournal, ParseRejectsNonCanonicalRecords)
{
    // Slot 0's record starts at byte 12: valid u32 | digest[32] |
    // total_bytes u64 @48 | chunk_bytes u32 @56 | bitmap len u32 @60
    // | bitmap @64. No journal method can write any patch below.
    Digest digest{};
    digest[0] = 0xAA;
    StagingJournal empty;
    empty.begin(0, digest, 0, 4096);
    ASSERT_TRUE(StagingJournal::deserialize(util::encode(empty)));

    // total_bytes = 2^64 - 1 at 4 KiB chunks: total + chunk - 1
    // wrapped to an active record of 0 chunks and an empty bitmap.
    auto wrapped = util::encode(empty);
    std::fill_n(wrapped.begin() + 48, 8, 0xFF);
    EXPECT_FALSE(StagingJournal::deserialize(wrapped));

    auto valid2 = util::encode(empty); // valid is a 0/1 flag
    valid2[12] = 2;
    EXPECT_FALSE(StagingJournal::deserialize(valid2));

    auto junk = util::encode(StagingJournal()); // inactive means blank
    junk[16] = 0x01;
    EXPECT_FALSE(StagingJournal::deserialize(junk));

    // 10 chunks own bits 0..9 of a 2-byte bitmap: bit 15 is past the
    // last chunk, bit 9 is the tail chunk.
    StagingJournal ten;
    ten.begin(0, digest, 10'000, 1024);
    auto past = util::encode(ten);
    past[65] = 0x80;
    EXPECT_FALSE(StagingJournal::deserialize(past));
    past[65] = 0x02;
    EXPECT_TRUE(StagingJournal::deserialize(past));
}

// ------------------------------------------------------ cycle plane

/** A full machine with a journaled LiveInstall agent attached. */
struct LiveRig
{
    sim::SystemConfig config;
    sim::SyntheticWorkload workload;
    sim::System system;
    DeviceRig device;

    explicit LiveRig(const FirmwareVendor &vendor)
        : config(sim::paperConfig(secure::SecurityModel::OtpSnc)),
          workload(sim::benchmarkProfile("gcc"), config.l2.line_size),
          system(config, workload),
          device(vendor.builder.publicKey(), vendor.processor, system,
                 liveConfig(), kStaging)
    {
        device.updater().setJournal(&device.journal());
    }

    static LiveInstallConfig
    liveConfig()
    {
        LiveInstallConfig live_config;
        live_config.line_bytes = kLine;
        live_config.pacing = InstallPacing::Arbiter;
        live_config.transport.chunk_bytes = 1024;
        live_config.transport.cycles_per_chunk = 64;
        return live_config;
    }
};

TEST(Delta, LiveDeltaInstallLandsIdenticalBytes)
{
    FirmwareVendor vendor(0xDE181);
    const ReleasePair pair = vendor.releasePair(64ull << 10, 0.10, 0xB2);

    // Functional full-bundle reference.
    DeviceRig reference = functionalDevice(vendor);
    ASSERT_TRUE(reference.install(pair.base).ok());
    ASSERT_TRUE(reference.install(pair.next).ok());

    // Live machine: base installed functionally, successor shipped
    // as a delta through the unified plane.
    LiveRig rig(vendor);
    DeviceRig &device = rig.device;
    LiveInstall &live = device.live();
    ASSERT_TRUE(device.install(pair.base).ok());
    live.startDelta(pair.delta, rig.system.core().cycles());
    ASSERT_TRUE(device.runToCompletion());
    ASSERT_EQ(live.phase(), LiveInstallPhase::Done)
        << (live.result() ? live.result()->detail
                          : live.admission()->detail);

    // The delta stream on the wire is the small thing; the staged
    // slot holds the full reconstructed bundle.
    const uint64_t framed_full =
        kSlotHeaderBytes + util::encodedSize(pair.next);
    const uint64_t framed_delta =
        kSlotHeaderBytes + util::encodedSize(pair.delta);
    EXPECT_LT(framed_delta, framed_full / 2);
    EXPECT_EQ(live.stagedBytesWritten(), framed_full);

    EXPECT_EQ(device.updater().activeSlot(),
              reference.updater().activeSlot());
    EXPECT_EQ(device.activeSlotBytes(), reference.activeSlotBytes());
    EXPECT_EQ(util::encode(*device.updater().activeManifest()),
              util::encode(*reference.updater().activeManifest()));
    EXPECT_EQ(device.rollback().current("fw"),
              reference.rollback().current("fw"));

    // Activation success retired the journal record for the slot.
    EXPECT_FALSE(device.journal().active(device.updater().activeSlot()));
}

TEST(Delta, LiveBaseMismatchFailsSoCallerCanFallBack)
{
    FirmwareVendor vendor(0xDE182);
    const ReleasePair pair = vendor.releasePair(16ull << 10, 0.10, 0xB3);

    // Nothing installed: the delta admission must render
    // BaseMismatch and fail the install without touching state.
    LiveRig rig(vendor);
    DeviceRig &device = rig.device;
    LiveInstall &live = device.live();
    live.startDelta(pair.delta, 0);
    ASSERT_TRUE(device.runToCompletion());
    EXPECT_EQ(live.phase(), LiveInstallPhase::Failed);
    ASSERT_TRUE(live.admission().has_value());
    EXPECT_EQ(live.admission()->status, UpdateStatus::BaseMismatch);
    EXPECT_EQ(live.stagedBytesWritten(), 0u);

    // The fallback the verdict asks for: the full bundle lands on
    // the same machine (base first — the counter is monotonic).
    live.start(pair.base, rig.system.core().cycles());
    ASSERT_TRUE(device.runToCompletion());
    ASSERT_EQ(live.phase(), LiveInstallPhase::Done);
    live.start(pair.next, rig.system.core().cycles());
    ASSERT_TRUE(device.runToCompletion());
    EXPECT_EQ(live.phase(), LiveInstallPhase::Done);
}

} // namespace
