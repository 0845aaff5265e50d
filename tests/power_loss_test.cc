/**
 * @file
 * Interrupted-install power-loss matrix (ROADMAP scenario item).
 *
 * A device can lose power at any point while an update bundle is
 * streaming into the A/B staging slot, and a hijacked OS can damage
 * the slot at will — the staging area lives in untrusted memory. The
 * A/B engine must never boot a torn or tampered image: activation
 * re-verifies everything and a failure leaves the previous image
 * active.
 *
 * The matrix is expressed as an ExperimentSpec so the sweep
 * parallelizes through the standard Runner and reports like any
 * experiment: variants are corruption families (every manifest field
 * mutated without re-signing; a systematic single-byte corruption
 * sweep across the staged bytes; a torn-write truncation sweep),
 * benchmarks are cipher kinds, and each cell's measured value is the
 * percentage of corruptions rejected — anything under 100 is a
 * security hole and fails the test.
 */

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "update/device_rig.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

constexpr uint32_t kLine = 128;
constexpr uint64_t kStagingBase = 0x4000'0000;
constexpr uint64_t kSlotSize = 1ull << 20;

secure::CipherKind
cipherFor(const std::string &bench)
{
    return bench == "aes128" ? secure::CipherKind::Aes128
                             : secure::CipherKind::Des;
}

/** One device under corruption attack (self-contained per cell). */
struct Rig
{
    FirmwareVendor vendor{1234};
    DeviceRig device{vendor.builder.publicKey(), vendor.processor,
                     StagingConfig{kStagingBase, kSlotSize}};

    UpdateBundle
    bundle(uint32_t version, secure::CipherKind cipher)
    {
        UpdateSpec spec;
        spec.image_version = version;
        spec.rollback_counter = version;
        spec.cipher = cipher;
        return firmwareBundle(
            vendor.builder, vendor.processor.pub, spec,
            std::vector<uint8_t>(64 * kLine, static_cast<uint8_t>(version)),
            vendor.rng, "fw", 0x400000);
    }
};

/** Running count of attack trials and survived (rejected) ones. */
struct Tally
{
    uint64_t trials = 0;
    uint64_t rejected = 0;

    void
    record(DeviceRig &device, const InstallResult &result,
           uint32_t safe_version)
    {
        ++trials;
        if (result.ok())
            return; // accepted a torn image: counted as a breach
        // Rejection must also leave the previous image untouched.
        const UpdateManifest *active =
            device.updater().compartmentManifest(1);
        if (active != nullptr && active->image_version == safe_version)
            ++rejected;
    }

    double
    rejectionPct() const
    {
        return trials == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(rejected) /
                         static_cast<double>(trials);
    }
};

/** Mutate every manifest field in turn without re-signing. */
exp::CellOutput
manifestFieldCell(const std::string &bench, const exp::RunOptions &)
{
    Rig rig;
    DeviceRig &device = rig.device;
    const secure::CipherKind cipher = cipherFor(bench);
    exp::CellOutput cell;
    const bool setup_ok = device.install(rig.bundle(1, cipher)).ok();
    cell.extras.emplace_back("setup_ok", setup_ok ? 1.0 : 0.0);
    if (!setup_ok) {
        cell.measured = 0.0;
        return cell;
    }

    const UpdateBundle good = rig.bundle(2, cipher);
    std::vector<UpdateBundle> mutants;
    auto mutate = [&](auto &&edit) {
        UpdateBundle mutant = good;
        edit(mutant.manifest);
        mutants.push_back(std::move(mutant));
    };
    mutate([](UpdateManifest &m) { m.title = "fw2"; });
    mutate([](UpdateManifest &m) { m.image_version += 1; });
    mutate([](UpdateManifest &m) { m.rollback_counter += 10; });
    mutate([](UpdateManifest &m) { m.processor_id[0] ^= 0x01; });
    mutate([](UpdateManifest &m) {
        m.cipher = m.cipher == secure::CipherKind::Des
                       ? secure::CipherKind::Aes128
                       : secure::CipherKind::Des;
    });
    mutate([](UpdateManifest &m) { m.entry_point ^= 0x40; });
    mutate([](UpdateManifest &m) { m.line_size *= 2; });
    mutate([](UpdateManifest &m) { m.image_digest[5] ^= 0x80; });
    mutate([](UpdateManifest &m) { m.capsule_digest[0] ^= 0x80; });
    mutate([](UpdateManifest &m) {
        m.sections.at(0).digest[3] ^= 0x01;
    });
    mutate([](UpdateManifest &m) { m.sections.at(0).vaddr += kLine; });
    mutate([](UpdateManifest &m) { m.sections.at(0).size += 1; });
    mutate([](UpdateManifest &m) { m.sections.at(0).name = "evil"; });

    Tally tally;
    for (const UpdateBundle &mutant : mutants)
        tally.record(device, device.install(mutant), 1);

    // A correctly re-signed bundle with a non-advancing counter is
    // the "vendor mistake" flavour of rollback; it must fail too.
    UpdateBundle resigned = good;
    resigned.manifest.rollback_counter = 1;
    resigned = rig.vendor.builder.resign(std::move(resigned));
    tally.record(device, device.install(resigned), 1);

    cell.measured = tally.rejectionPct();
    cell.extras.emplace_back("trials",
                             static_cast<double>(tally.trials));
    return cell;
}

/**
 * Stage a valid v2, then corrupt / tear the staged bytes before
 * activation. @p truncate selects torn-write mode (the suffix from
 * the chosen offset was never written) over single-byte flips.
 */
exp::CellOutput
stagedBytesCell(const std::string &bench, bool truncate)
{
    Rig rig;
    DeviceRig &device = rig.device;
    const secure::CipherKind cipher = cipherFor(bench);
    exp::CellOutput cell;
    bool setup_ok = device.install(rig.bundle(1, cipher)).ok();
    const UpdateBundle good = rig.bundle(2, cipher);
    const uint64_t framed_size =
        kSlotHeaderBytes + util::encodedSize(good);
    const uint64_t slot_base =
        kStagingBase + device.updater().stagingSlot() * kSlotSize;

    // 33 systematic offsets: both slot-header bytes and every stripe
    // of the bundle body get hit.
    constexpr uint64_t kPoints = 33;
    Tally tally;
    for (uint64_t i = 0; setup_ok && i < kPoints; ++i) {
        const uint64_t offset = i * (framed_size - 1) / (kPoints - 1);
        setup_ok = device.updater().stage(good, device.memory()).ok();
        if (!setup_ok)
            break;
        if (truncate) {
            // Power loss mid-write: everything from offset on reads
            // as if never written.
            const uint64_t len = framed_size - offset;
            const std::vector<uint8_t> zeros(len, 0);
            device.memory().write(slot_base + offset, zeros.data(), len);
        } else {
            device.memory().corruptByte(slot_base + offset, 0x40);
        }
        tally.record(device, device.activate(), 1);
    }

    // The slot is not burned: an intact re-stage still activates.
    const bool recovered =
        setup_ok && device.updater().stage(good, device.memory()).ok() &&
        device.activate().ok();

    cell.extras.emplace_back("setup_ok", setup_ok ? 1.0 : 0.0);
    cell.extras.emplace_back("recovered", recovered ? 1.0 : 0.0);
    cell.measured = setup_ok ? tally.rejectionPct() : 0.0;
    cell.extras.emplace_back("trials",
                             static_cast<double>(tally.trials));
    return cell;
}

/**
 * Rewrite the staged manifest's cipher-kind field to out-of-range
 * values a hijacked OS could plant in the slot. Regression for the
 * untrusted-u32 cast: pre-fix these parsed "successfully" and blew
 * up inside makeCipher() after the signature check; they must die at
 * activation as a structural rejection, previous image intact.
 */
exp::CellOutput
cipherKindMutantCell(const std::string &bench, const exp::RunOptions &)
{
    Rig rig;
    DeviceRig &device = rig.device;
    const secure::CipherKind cipher = cipherFor(bench);
    exp::CellOutput cell;
    bool setup_ok = device.install(rig.bundle(1, cipher)).ok();
    const UpdateBundle good = rig.bundle(2, cipher);
    const uint64_t slot_base =
        kStagingBase + device.updater().stagingSlot() * kSlotSize;
    // Slot header | bundle magic u32 | manifest blob len u32 |
    // manifest: magic u32, format u32, title (u32 len + bytes),
    // image_version u32, rollback u64, processor_id[32], cipher u32.
    const uint64_t cipher_off =
        kSlotHeaderBytes + 4 + 4 +
        (4 + 4 + 4 + good.manifest.title.size() + 4 + 8 + 32);

    Tally tally;
    for (const uint32_t evil : {99u, 3u, 0xFFFF'FFFFu}) {
        if (!setup_ok)
            break;
        setup_ok = device.updater().stage(good, device.memory()).ok();
        if (!setup_ok)
            break;
        uint8_t field[4];
        for (int i = 0; i < 4; ++i)
            field[i] = static_cast<uint8_t>(evil >> (8 * i));
        device.memory().write(slot_base + cipher_off, field, sizeof field);
        tally.record(device, device.activate(), 1);
    }

    const bool recovered =
        setup_ok && device.updater().stage(good, device.memory()).ok() &&
        device.activate().ok();
    cell.extras.emplace_back("setup_ok", setup_ok ? 1.0 : 0.0);
    cell.extras.emplace_back("recovered", recovered ? 1.0 : 0.0);
    cell.measured = setup_ok ? tally.rejectionPct() : 0.0;
    cell.extras.emplace_back("trials",
                             static_cast<double>(tally.trials));
    return cell;
}

TEST(PowerLossMatrix, NoTornImageEverBoots)
{
    exp::ExperimentSpec spec;
    spec.name = "power_loss_matrix";
    spec.title = "Interrupted-install power-loss matrix";
    spec.subtitle = "% of corruptions rejected (must be 100)";
    spec.benchmarks = {"des", "aes128"};
    spec.addCustom("manifest-field", manifestFieldCell);
    spec.addCustom("staged-corrupt",
                   [](const std::string &bench,
                      const exp::RunOptions &) {
                       return stagedBytesCell(bench, false);
                   });
    spec.addCustom("staged-truncate",
                   [](const std::string &bench,
                      const exp::RunOptions &) {
                       return stagedBytesCell(bench, true);
                   });
    spec.addCustom("staged-cipher-kind", cipherKindMutantCell);

    exp::RunnerOptions runner_options;
    runner_options.threads = 2;
    const exp::Report report = exp::Runner(runner_options).run(spec);

    size_t checked = 0;
    for (const exp::CellResult &cell : report.cells()) {
        ASSERT_TRUE(cell.measured.has_value());
        EXPECT_DOUBLE_EQ(*cell.measured, 100.0)
            << cell.variant << "/" << cell.bench
            << " accepted a torn or tampered image";
        for (const auto &[key, value] : cell.extras) {
            if (key == "setup_ok" || key == "recovered") {
                EXPECT_EQ(value, 1.0)
                    << cell.variant << "/" << cell.bench << ": "
                    << key;
            }
        }
        ++checked;
    }
    EXPECT_EQ(checked, 8u);
}

} // namespace
