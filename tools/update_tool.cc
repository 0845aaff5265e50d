/**
 * @file
 * update_tool — the secure-update lifecycle from the command line.
 *
 * Drives both sides of the update flow over real files: vendor-side
 * key generation and bundle building, device-side verification,
 * install and attestation. State that a fielded device would keep in
 * fuses (the rollback counter bank) persists in a state file, so
 * downgrade protection holds across invocations.
 *
 *   update_tool keygen  --out=vendor --bits=512 --seed=7
 *   update_tool keygen  --out=cpu    --bits=512 --seed=8
 *   update_tool build   --vendor=vendor --processor=cpu.pub \
 *                       --title=firmware --version=2 --counter=2 \
 *                       --out=fw2.bundle [--text=payload.bin]
 *   update_tool info    --bundle=fw2.bundle
 *   update_tool verify  --bundle=fw2.bundle --vendor=vendor.pub \
 *                       --processor=cpu --state=device.state
 *   update_tool install --bundle=fw2.bundle --vendor=vendor.pub \
 *                       --processor=cpu --state=device.state
 *   update_tool attest  --processor=cpu --state=device.state \
 *                       --nonce=deadbeef
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/cli.hh"
#include "obs/trace.hh"
#include "update/attestation.hh"
#include "update/device_rig.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

using namespace secproc;
using namespace secproc::update;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "usage: update_tool <command> [options]\n"
        "  keygen  --out=PREFIX [--bits=512] [--seed=N]\n"
        "          write PREFIX.pub / PREFIX.priv\n"
        "  build   --vendor=PREFIX --processor=PUBFILE --out=FILE\n"
        "          [--title=NAME] [--version=N] [--counter=N]\n"
        "          [--text=FILE] [--scheme=otp|xom]\n"
        "          [--cipher=des|3des|aes]\n"
        "          [--delta-base=BUNDLE]  cut a signed delta against\n"
        "          that base release instead of a full bundle (use\n"
        "          the same --seed the base was built with, or the\n"
        "          key streams diverge and the delta stops shrinking)\n"
        "  info    --bundle=FILE\n"
        "  verify  --bundle=FILE --vendor=PUBFILE --processor=PREFIX\n"
        "          [--state=FILE]\n"
        "  install --bundle=FILE --vendor=PUBFILE --processor=PREFIX\n"
        "          [--state=FILE]\n"
        "          [--delta-base=BUNDLE]  --bundle names a delta\n"
        "          file: install the base first (the factory image a\n"
        "          fielded device already runs), then reconstruct and\n"
        "          activate the delta slot-to-slot\n"
        "  attest  --processor=PREFIX --vendor=PUBFILE --bundle=FILE\n"
        "          [--state=FILE] [--nonce=HEX]\n"
        "  any verify/install command also accepts --trace-out=FILE:\n"
        "          write the engine's security-decision instants as a\n"
        "          Chrome/Perfetto trace (steps stamped 0,1,... — the\n"
        "          functional engine has no cycle clock)\n";
    std::exit(code);
}

// ------------------------------------------------------------- file I/O

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open '", path, "'");
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    fatal_if(!out, "cannot write '", path, "'");
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Keys persist as hex lines: "n <hex>" then "e <hex>" / "d <hex>". */
void
writeKeyFile(const std::string &path, const std::string &kind,
             const crypto::BigInt &n, const crypto::BigInt &exponent)
{
    std::ofstream out(path, std::ios::trunc);
    fatal_if(!out, "cannot write '", path, "'");
    out << "n " << n.toHex() << "\n"
        << kind << " " << exponent.toHex() << "\n";
}

std::pair<crypto::BigInt, crypto::BigInt>
readKeyFile(const std::string &path, const std::string &kind)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open key file '", path, "'");
    std::string label_n, hex_n, label_x, hex_x;
    in >> label_n >> hex_n >> label_x >> hex_x;
    fatal_if(label_n != "n" || label_x != kind,
             "'", path, "' is not a ", kind == "e" ? "public" : "private",
             " key file");
    return {crypto::BigInt::fromHex(hex_n),
            crypto::BigInt::fromHex(hex_x)};
}

crypto::RsaPublicKey
readPublicKey(const std::string &path)
{
    const auto [n, e] = readKeyFile(path, "e");
    return {n, e};
}

crypto::RsaPrivateKey
readPrivateKey(const std::string &path)
{
    const auto [n, d] = readKeyFile(path, "d");
    return {n, d};
}

/** "--processor=PREFIX" names PREFIX.pub + PREFIX.priv. */
crypto::RsaKeyPair
readKeyPair(const std::string &prefix)
{
    return {readPublicKey(prefix + ".pub"),
            readPrivateKey(prefix + ".priv")};
}

// ------------------------------------------------------------- options

struct Options
{
    std::string command;
    std::string out;
    std::string vendor;
    std::string processor;
    std::string bundle;
    std::string state;
    std::string title = "firmware";
    std::string text;
    std::string scheme = "otp";
    std::string cipher = "des";
    std::string nonce_hex;
    std::string trace_out;
    std::string delta_base;
    unsigned bits = 512;
    uint64_t seed = 1;
    uint32_t version = 1;
    uint64_t counter = 1;
};

Options
parse(int argc, char **argv)
{
    using exp::flag;
    using exp::flagU64;
    using exp::flagValue;

    if (argc < 2)
        usage(1);
    Options options;
    options.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        uint64_t n = 0;
        if (flag(arg, "--help") || flag(arg, "-h"))
            usage(0);
        else if (flagValue(arg, "--out=", &options.out) ||
                 flagValue(arg, "--vendor=", &options.vendor) ||
                 flagValue(arg, "--processor=",
                           &options.processor) ||
                 flagValue(arg, "--bundle=", &options.bundle) ||
                 flagValue(arg, "--state=", &options.state) ||
                 flagValue(arg, "--title=", &options.title) ||
                 flagValue(arg, "--text=", &options.text) ||
                 flagValue(arg, "--scheme=", &options.scheme) ||
                 flagValue(arg, "--cipher=", &options.cipher) ||
                 flagValue(arg, "--nonce=", &options.nonce_hex) ||
                 flagValue(arg, "--delta-base=",
                           &options.delta_base) ||
                 flagValue(arg, "--trace-out=",
                           &options.trace_out) ||
                 flagU64(arg, "--seed=", &options.seed) ||
                 flagU64(arg, "--counter=", &options.counter)) {
        } else if (flagU64(arg, "--bits=", &n))
            options.bits = static_cast<unsigned>(n);
        else if (flagU64(arg, "--version=", &n))
            options.version = static_cast<uint32_t>(n);
        else
            usage(1);
    }
    return options;
}

secure::CipherKind
cipherKind(const std::string &name)
{
    if (name == "des") return secure::CipherKind::Des;
    if (name == "3des") return secure::CipherKind::TripleDes;
    if (name == "aes") return secure::CipherKind::Aes128;
    fatal("unknown cipher '", name, "' (des | 3des | aes)");
}

// ------------------------------------------------------------ commands

UpdateBundle loadBundle(const std::string &path);

int
cmdKeygen(const Options &options)
{
    fatal_if(options.out.empty(), "keygen needs --out=PREFIX");
    util::Rng rng(options.seed);
    const auto pair = crypto::rsaGenerate(options.bits, rng);
    writeKeyFile(options.out + ".pub", "e", pair.pub.n, pair.pub.e);
    writeKeyFile(options.out + ".priv", "d", pair.priv.n, pair.priv.d);
    // Separate signing identity for attestation quotes — never the
    // capsule-unwrap key (see UpdateEngine::setAttestationKey).
    const auto att = crypto::rsaGenerate(options.bits, rng);
    writeKeyFile(options.out + ".att.pub", "e", att.pub.n, att.pub.e);
    writeKeyFile(options.out + ".att.priv", "d", att.priv.n,
                 att.priv.d);
    std::cout << "wrote " << options.out
              << ".pub / .priv (+ .att.pub / .att.priv) ("
              << options.bits << "-bit RSA)\n"
              << "processor id: "
              << util::toHex(processorId(pair.pub).data(), 16)
              << "...\n";
    return 0;
}

int
cmdBuild(const Options &options)
{
    fatal_if(options.vendor.empty() || options.processor.empty() ||
                 options.out.empty(),
             "build needs --vendor, --processor and --out");

    std::optional<UpdateBundle> base;
    if (!options.delta_base.empty())
        base = loadBundle(options.delta_base);

    std::vector<uint8_t> text;
    if (!options.text.empty()) {
        text = readFile(options.text);
    } else if (base.has_value()) {
        // Demo payload for a delta release: the base release's demo
        // payload with ~10% of its 64-byte blocks rewritten — the
        // block-level similarity a delta exploits.
        const uint32_t base_version = base->manifest.image_version;
        util::Rng rng(options.seed + base_version);
        text.resize(16 * 128);
        rng.fillBytes(text.data(), text.size());
        constexpr uint64_t kBlock = 64;
        const uint64_t blocks = text.size() / kBlock;
        util::Rng mutate(options.seed + options.version);
        for (uint64_t c = 0; c < blocks / 10 + 1; ++c) {
            const uint64_t begin = mutate.nextRange(blocks) * kBlock;
            mutate.fillBytes(text.data() + begin, kBlock);
        }
    } else {
        // Deterministic demo payload derived from the release.
        util::Rng rng(options.seed + options.version);
        text.resize(16 * 128);
        rng.fillBytes(text.data(), text.size());
    }

    UpdateSpec spec;
    spec.image_version = options.version;
    spec.rollback_counter = options.counter;
    spec.scheme = options.scheme == "xom" ? xom::VendorScheme::Xom
                                          : xom::VendorScheme::Otp;
    spec.cipher = cipherKind(options.cipher);
    if (base.has_value())
        spec.base_digest = sha256DigestOfImage(base->image);

    util::Rng rng(options.seed);
    const ImageBuilder builder(readKeyPair(options.vendor));
    const UpdateBundle bundle = firmwareBundle(
        builder, readPublicKey(options.processor), spec,
        std::move(text), rng, options.title, 0x400000);
    if (base.has_value()) {
        const DeltaBundle delta = builder.buildDelta(*base, bundle);
        const std::vector<uint8_t> delta_bytes = util::encode(delta);
        writeFile(options.out, delta_bytes);
        std::cout << "wrote '" << options.out << "': delta "
                  << options.title << " v"
                  << base->manifest.image_version << " -> v"
                  << options.version << ", " << delta_bytes.size()
                  << " delta bytes vs "
                  << util::encodedSize(bundle) << " full\n";
        return 0;
    }
    writeFile(options.out, util::encode(bundle));
    std::cout << "wrote '" << options.out << "': " << options.title
              << " v" << options.version << ", rollback counter "
              << options.counter << ", "
              << bundle.image.totalBytes() << " image bytes\n";
    return 0;
}

UpdateBundle
loadBundle(const std::string &path)
{
    const auto parsed = UpdateBundle::deserialize(readFile(path));
    fatal_if(!parsed.has_value(),
             "'", path, "' is not a well-formed update bundle");
    return *parsed;
}

int
cmdInfo(const Options &options)
{
    fatal_if(options.bundle.empty(), "info needs --bundle");
    const UpdateBundle bundle = loadBundle(options.bundle);
    const UpdateManifest &m = bundle.manifest;
    std::cout << "title:            " << m.title << "\n"
              << "image version:    " << m.image_version << "\n"
              << "rollback counter: " << m.rollback_counter << "\n"
              << "target processor: "
              << util::toHex(m.processor_id.data(), 16) << "...\n"
              << "entry point:      "
              << util::formatHex(m.entry_point) << "\n"
              << "line size:        " << m.line_size << "\n"
              << "image digest:     "
              << util::toHex(m.image_digest.data(), 16) << "...\n"
              << "sections:\n";
    for (const SectionDigest &sd : m.sections) {
        std::cout << "  " << sd.name << " @ "
                  << util::formatHex(sd.vaddr) << ", " << sd.size
                  << " bytes, sha256 "
                  << util::toHex(sd.digest.data(), 8) << "...\n";
    }
    return 0;
}

/** Device state file: rollback store bytes (fuse-bank snapshot). */
RollbackStore
loadState(const std::string &path)
{
    if (path.empty())
        return RollbackStore();
    std::ifstream probe(path, std::ios::binary);
    if (!probe)
        return RollbackStore(); // first boot
    const auto parsed = RollbackStore::deserialize(readFile(path));
    fatal_if(!parsed.has_value(),
             "state file '", path, "' is corrupt");
    return *parsed;
}

/**
 * Delta flow: --bundle names a delta file and --delta-base the full
 * bundle of the release the device already runs. The tool recreates
 * that fielded state (base installed and active), then verifies or
 * installs the delta against the active slot — a BaseMismatch is the
 * signal to go fetch the full bundle instead.
 */
int
cmdDeltaVerifyOrInstall(const Options &options, bool install)
{
    const UpdateBundle base = loadBundle(options.delta_base);
    const auto delta =
        DeltaBundle::deserialize(readFile(options.bundle));
    fatal_if(!delta.has_value(),
             "'", options.bundle,
             "' is not a well-formed delta bundle");

    RollbackStore rollback = loadState(options.state);
    DeviceRig device(readPublicKey(options.vendor),
                     readKeyPair(options.processor), rollback);

    // The rig admits the base before it builds anything from the
    // base's manifest.
    const InstallResult base_install = device.install(base);
    if (!base_install.ok()) {
        std::cout << "base bundle refused: "
                  << updateStatusName(base_install.status)
                  << (base_install.detail.empty()
                          ? ""
                          : ": " + base_install.detail)
                  << "\n";
        return 1;
    }

    const auto report = [&](const auto &verdict) {
        std::cout << updateStatusName(verdict.status)
                  << (verdict.detail.empty() ? ""
                                             : ": " + verdict.detail)
                  << "\n";
        if (verdict.status == UpdateStatus::BaseMismatch) {
            std::cout << "base mismatch: request the full bundle "
                         "instead\n";
        }
    };

    if (!install) {
        const auto rec =
            device.updater().reconstructDelta(*delta, device.memory());
        report(rec.result);
        return rec.result.ok() ? 0 : 1;
    }

    const InstallResult result = device.installDelta(*delta);
    report(result);
    if (!result.ok())
        return 1;
    std::cout << "'" << delta->manifest.title << "' v"
              << delta->manifest.image_version << " active in slot "
              << (result.slot == 0 ? "A" : "B") << " via delta ("
              << readFile(options.bundle).size()
              << " delta bytes)\n";
    if (!options.state.empty()) {
        writeFile(options.state, util::encode(rollback));
        std::cout << "rollback state saved to '" << options.state
                  << "'\n";
    }
    return 0;
}

int
cmdVerifyOrInstall(const Options &options, bool install)
{
    fatal_if(options.bundle.empty() || options.vendor.empty() ||
                 options.processor.empty(),
             "needs --bundle, --vendor and --processor");
    if (!options.delta_base.empty())
        return cmdDeltaVerifyOrInstall(options, install);

    const UpdateBundle bundle = loadBundle(options.bundle);
    RollbackStore rollback = loadState(options.state);
    DeviceRig device(readPublicKey(options.vendor),
                     readKeyPair(options.processor), rollback);
    UpdateEngine &updater = device.updater();

    // Decision instants land at step numbers 0, 1, ... — the
    // functional engine has no cycle clock of its own.
    obs::TraceSink trace;
    if (!options.trace_out.empty()) {
        updater.setTrace(&trace);
        updater.setTraceCycle(0);
    }

    auto flush_trace = [&] {
        if (options.trace_out.empty())
            return;
        trace.writeChromeJson(options.trace_out);
        std::cout << "wrote trace '" << options.trace_out << "'\n";
    };

    const VerifyResult admission = updater.verify(bundle);
    updater.setTraceCycle(1);
    if (!install || !admission.ok()) {
        flush_trace();
        std::cout << updateStatusName(admission.status)
                  << (admission.detail.empty() ? ""
                                               : ": " + admission.detail)
                  << "\n";
        return admission.ok() ? 0 : 1;
    }

    const InstallResult result = device.install(bundle);
    flush_trace();
    std::cout << updateStatusName(result.status)
              << (result.detail.empty() ? "" : ": " + result.detail)
              << "\n";
    if (!result.ok())
        return 1;
    std::cout << "'" << bundle.manifest.title << "' v"
              << bundle.manifest.image_version << " active in slot "
              << (result.slot == 0 ? "A" : "B") << ", entry "
              << util::formatHex(result.entry_point) << "\n";
    if (!options.state.empty()) {
        writeFile(options.state, util::encode(rollback));
        std::cout << "rollback state saved to '" << options.state
                  << "'\n";
    }
    return 0;
}

int
cmdAttest(const Options &options)
{
    fatal_if(options.processor.empty() || options.bundle.empty() ||
                 options.vendor.empty(),
             "attest needs --processor, --vendor and --bundle (the "
             "bundle whose install to prove)");

    // Reconstruct the device: re-install the bundle in a scratch
    // engine, then quote. (A long-running device would keep the
    // UpdateEngine alive instead.) The bundle must be *the* release
    // the persisted state records as installed — its counter must
    // equal the stored value, otherwise the quote would claim
    // software this device's fuse bank no longer accepts.
    const UpdateBundle bundle = loadBundle(options.bundle);
    RollbackStore rollback = loadState(options.state);
    const uint64_t recorded = rollback.current(bundle.manifest.title);
    fatal_if(recorded != 0 &&
                 bundle.manifest.rollback_counter != recorded,
             "cannot attest '", bundle.manifest.title,
             "' at rollback counter ",
             bundle.manifest.rollback_counter,
             ": device state records counter ", recorded);

    const crypto::RsaKeyPair attestation =
        readKeyPair(options.processor + ".att");
    DeviceRig device(readPublicKey(options.vendor),
                     readKeyPair(options.processor), StagingConfig{},
                     rollback.capacity());
    device.updater().setAttestationKey(attestation);
    const InstallResult installed = device.install(bundle);
    fatal_if(!installed.ok(),
             "cannot attest: ", updateStatusName(installed.status),
             " — ", installed.detail);

    Digest nonce = {};
    if (!options.nonce_hex.empty()) {
        const auto bytes = util::fromHex(options.nonce_hex);
        std::copy_n(bytes.begin(),
                    std::min(bytes.size(), nonce.size()),
                    nonce.begin());
    }
    const AttestationQuote quote = attest(device.updater(), 1, nonce);
    std::cout << "report:\n"
              << "  processor: "
              << util::toHex(quote.report.processor_id.data(), 16)
              << "...\n"
              << "  title:     " << quote.report.title << " v"
              << quote.report.image_version << " (rollback "
              << quote.report.rollback_counter << ")\n"
              << "  image:     "
              << util::toHex(quote.report.image_digest.data(), 16)
              << "...\n"
              << "  nonce:     "
              << util::toHex(quote.report.nonce.data(), 8) << "...\n"
              << "signature: "
              << util::toHex(quote.signature.data(),
                             std::min<size_t>(quote.signature.size(),
                                              16))
              << "...\n"
              << "self-check: "
              << (verifyQuote(attestation.pub, quote, nonce)
                      ? "verifies"
                      : "FAILS")
              << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    if (options.command == "keygen")
        return cmdKeygen(options);
    if (options.command == "build")
        return cmdBuild(options);
    if (options.command == "info")
        return cmdInfo(options);
    if (options.command == "verify")
        return cmdVerifyOrInstall(options, false);
    if (options.command == "install")
        return cmdVerifyOrInstall(options, true);
    if (options.command == "attest")
        return cmdAttest(options);
    usage(1);
}
