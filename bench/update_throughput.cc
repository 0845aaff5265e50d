/**
 * @file
 * Secure-update throughput (google-benchmark): how fast a fleet
 * device chews through signed bundles. Measures the three phases
 * separately — admission verify (signature + digests), full
 * stage+activate install, and attestation quoting — across image
 * sizes, cipher kinds and many concurrent compartments (the
 * multitask scenario: one device hosting N independently-updated
 * programs). Bytes/sec counts image payload bytes.
 */

#include <algorithm>
#include <memory>

#include <benchmark/benchmark.h>

#include "exp/runner.hh"
#include "update/attestation.hh"
#include "update/device_rig.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

constexpr uint32_t kLine = 128;

/** Everything needed to exercise one device under update load. */
struct Rig
{
    FirmwareVendor vendor{99};
    DeviceRig device{vendor.builder.publicKey(), vendor.processor,
                     StagingConfig{0x4000'0000, 64ull << 20}, 4096};

    Rig()
    {
        device.updater().setAttestationKey(
            crypto::rsaGenerate(512, vendor.rng));
    }

    UpdateBundle
    bundle(const std::string &title, uint32_t version,
           uint64_t counter, size_t lines, secure::CipherKind cipher)
    {
        UpdateSpec spec;
        spec.image_version = version;
        spec.rollback_counter = counter;
        spec.cipher = cipher;
        return firmwareBundle(
            vendor.builder, vendor.processor.pub, spec,
            std::vector<uint8_t>(lines * kLine,
                                 static_cast<uint8_t>(version)),
            vendor.rng, title, 0x400000);
    }
};

/** Admission verify only: signature + digest + rollback checks. */
void
benchVerify(benchmark::State &state)
{
    Rig rig;
    const UpdateBundle bundle =
        rig.bundle("fw", 1, 1, static_cast<size_t>(state.range(0)),
                   secure::CipherKind::Des);
    for (auto _ : state) {
        const VerifyResult result = rig.device.updater().verify(bundle);
        benchmark::DoNotOptimize(result);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(
                                bundle.image.totalBytes()));
}

/** Full lifecycle: verify + stage into memory + activate + load. */
void
benchInstall(benchmark::State &state)
{
    Rig rig;
    const size_t lines = static_cast<size_t>(state.range(0));
    uint64_t counter = 0;
    uint64_t bytes = 0;
    for (auto _ : state) {
        state.PauseTiming();
        // Each iteration needs a fresh, higher-counter release.
        const UpdateBundle bundle =
            rig.bundle("fw", static_cast<uint32_t>(counter + 1),
                       counter + 1, lines, secure::CipherKind::Des);
        state.ResumeTiming();

        const InstallResult result = rig.device.install(bundle);
        benchmark::DoNotOptimize(result);
        ++counter;
        bytes += bundle.image.totalBytes();
    }
    state.SetBytesProcessed(static_cast<int64_t>(bytes));
}

/**
 * Multitask fleet scenario: N compartments, each running its own
 * title, all updated in one sweep. Reported rate is whole sweeps.
 *
 * The sweep is sharded through the experiment Runner: each worker
 * owns one device shard (its own Rig) and installs that shard's
 * compartments. Serial by default; set SECPROC_THREADS to fan the
 * fleet out, e.g. SECPROC_THREADS=4 ./update_throughput.
 */
void
benchMultiCompartmentSweep(benchmark::State &state)
{
    const auto compartments =
        static_cast<secure::CompartmentId>(state.range(0));
    const exp::Runner runner;
    const size_t shards =
        std::min<size_t>(runner.threads(), compartments);

    // One device per shard, built (RSA keygen) outside the timing.
    std::vector<std::unique_ptr<Rig>> rigs;
    for (size_t s = 0; s < shards; ++s)
        rigs.push_back(std::make_unique<Rig>());

    uint64_t round = 0;
    uint64_t bytes = 0;
    for (auto _ : state) {
        state.PauseTiming();
        // Compartment c runs on shard (c-1) % shards; its bundle
        // must come from that shard's vendor.
        std::vector<UpdateBundle> wave;
        for (secure::CompartmentId c = 1; c <= compartments; ++c) {
            wave.push_back(rigs[(c - 1) % shards]->bundle(
                "app-" + std::to_string(c),
                static_cast<uint32_t>(round + 1), round + 1, 8,
                secure::CipherKind::Des));
        }
        state.ResumeTiming();

        runner.forEach(shards, [&](size_t s) {
            Rig &rig = *rigs[s];
            for (secure::CompartmentId c =
                     static_cast<secure::CompartmentId>(s + 1);
                 c <= compartments;
                 c = static_cast<secure::CompartmentId>(c + shards)) {
                const InstallResult result =
                    rig.device.install(wave[c - 1], c);
                benchmark::DoNotOptimize(result);
            }
        });
        for (const UpdateBundle &bundle : wave)
            bytes += bundle.image.totalBytes();
        ++round;
    }
    state.SetBytesProcessed(static_cast<int64_t>(bytes));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            compartments);
}

/** Verify cost per cipher family (digests dominate; capsule fixed). */
template <secure::CipherKind kKind>
void
benchVerifyCipher(benchmark::State &state)
{
    Rig rig;
    const UpdateBundle bundle = rig.bundle("fw", 1, 1, 64, kKind);
    for (auto _ : state) {
        const VerifyResult result = rig.device.updater().verify(bundle);
        benchmark::DoNotOptimize(result);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(
                                bundle.image.totalBytes()));
}

/** Attestation quote generation (RSA sign dominates). */
void
benchAttest(benchmark::State &state)
{
    Rig rig;
    const UpdateBundle bundle =
        rig.bundle("fw", 1, 1, 8, secure::CipherKind::Des);
    const InstallResult installed = rig.device.install(bundle);
    if (!installed.ok())
        state.SkipWithError("install failed");
    Digest nonce = {};
    for (auto _ : state) {
        nonce[0]++;
        const AttestationQuote quote =
            attest(rig.device.updater(), 1, nonce);
        benchmark::DoNotOptimize(quote);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
benchVerifyDes(benchmark::State &state)
{
    benchVerifyCipher<secure::CipherKind::Des>(state);
}

void
benchVerifyAes(benchmark::State &state)
{
    benchVerifyCipher<secure::CipherKind::Aes128>(state);
}

} // namespace

BENCHMARK(benchVerify)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(benchInstall)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(benchMultiCompartmentSweep)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(benchVerifyDes);
BENCHMARK(benchVerifyAes);
BENCHMARK(benchAttest);

BENCHMARK_MAIN();
