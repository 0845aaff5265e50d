/**
 * @file
 * Wire-format tests for every artifact that crosses a trust boundary.
 *
 * Two properties. The bytes are pinned: SHA-256s of fixed-seed
 * encodings of all seven formats, of a framed staging slot and of
 * instruction traces of every benchmark profile, recorded with the
 * hand-paired codecs that preceded util/wire.hh, so no codec change
 * may move a wire byte.
 * And the readers are canonical: seeded mutants of those encodings
 * (bit flips, boundary values written over u32/u64 fields,
 * truncations, splices) are either rejected or re-encode to the very
 * same bytes, and no parse makes a single allocation larger than a
 * small multiple of its input.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <new>

#include "sim/profiles.hh"
#include "sim/trace_io.hh"
#include "update/attestation.hh"
#include "update/device_rig.hh"
#include "util/strutil.hh"

namespace
{

/** Largest single operator new while tracking (single-threaded). */
bool g_tracking = false;
size_t g_largest = 0;

} // namespace

void *
operator new(std::size_t size)
{
    if (g_tracking)
        g_largest = std::max(g_largest, size);
    if (void *ptr = std::malloc(size == 0 ? 1 : size))
        return ptr;
    throw std::bad_alloc();
}

// Out of line, or GCC inlines free() into delete-expressions and
// warns that it mismatches operator new.
[[gnu::noinline]] void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

[[gnu::noinline]] void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

namespace
{

using namespace secproc;
using namespace secproc::update;
using Bytes = std::vector<uint8_t>;

/** @p parse(), recording its largest single allocation. */
template <class Fn>
auto
tracked(Fn parse)
{
    g_largest = 0;
    g_tracking = true;
    auto parsed = parse();
    g_tracking = false;
    return parsed;
}

template <class T>
std::optional<Bytes>
reencode(std::span<const uint8_t> bytes)
{
    const auto parsed = tracked([&] { return T::deserialize(bytes); });
    if (!parsed.has_value())
        return std::nullopt;
    return util::encode(*parsed);
}

std::optional<Bytes>
retrace(std::span<const uint8_t> bytes)
{
    const auto parsed = tracked([&] { return sim::decodeTrace(bytes); });
    if (!parsed.has_value())
        return std::nullopt;
    return sim::encodeTrace(*parsed);
}

/** @p ops ops of benchmark @p name, as a trace file's bytes. */
Bytes
traceBytes(const std::string &name, uint32_t line_size, uint64_t ops)
{
    sim::SyntheticWorkload workload(sim::benchmarkProfile(name),
                                    line_size);
    return sim::encodeTrace(sim::captureTrace(workload, ops));
}

/**
 * A framed slot keeps whatever follows the bundle (the rest of the
 * slot, here a splice tail); the re-encoding carries it over.
 */
std::optional<Bytes>
reframe(std::span<const uint8_t> framed)
{
    const auto view = unframeBundleView(framed);
    if (!view.has_value())
        return std::nullopt;
    const auto bundle =
        tracked([&] { return UpdateBundle::deserialize(*view); });
    if (!bundle.has_value())
        return std::nullopt;
    Bytes out = frameBundle(*bundle);
    out.insert(out.end(), view->end(), framed.end());
    return out;
}

/** A fixed-seed encoding of one format. */
struct Format
{
    const char *name;
    Bytes bytes;
    /** SHA-256 of bytes, recorded before the codec rewrite. */
    std::string pinned;
    /** The re-encoding of what the parse accepts (none: write-only). */
    std::function<std::optional<Bytes>(std::span<const uint8_t>)> reparse;
    /** Bound on the parse's largest allocation per input byte: an
     *  element may be larger in memory than on the wire. */
    size_t alloc_per_byte = 2;
};

const std::vector<Format> &
formats()
{
    static const std::vector<Format> all = [] {
        FirmwareVendor vendor(7);
        const UpdateBundle bundle = vendor.release(
            3, 64ull << 10, secure::CipherKind::Aes128);

        const DeltaBundle delta =
            vendor.releasePair(16ull << 10, 0.10, 0xAB).delta;

        StagingJournal journal;
        Digest digest{};
        digest.fill(0xAA);
        journal.begin(0, digest, 10'000, 1024);
        journal.markChunk(0, 0);
        journal.markChunk(0, 3);
        journal.markChunk(0, 9);
        digest.fill(0x5B);
        journal.begin(1, digest, 5'000, 4096);
        journal.markChunk(1, 1);

        RollbackStore bank(8);
        bank.commit("fw", 7);
        bank.commit("boot", 2);
        bank.commit("app", 41);

        AttestationReport report;
        report.processor_id = bundle.manifest.processor_id;
        report.compartment = 3;
        report.title = "fw";
        report.image_version = 3;
        report.rollback_counter = 3;
        report.image_digest = bundle.manifest.image_digest;
        report.nonce.fill(0x5A);

        return std::vector<Format>{
            {"manifest", util::encode(bundle.manifest),
             "a802a8be7c35769c6ba0ff7d7de5e71a"
             "9f3dea7c38dd4cac7feb516d72091d3f",
             reencode<UpdateManifest>},
            {"bundle", util::encode(bundle),
             "ea320f4cbad32dcb9bd08f72032abf21"
             "26d9c32530d7755ff96d088c2d31f93a",
             reencode<UpdateBundle>},
            {"delta", util::encode(delta),
             "553bef06a34c2f8cc1a820c510d8b15b"
             "9e29809458a84dee4f7578cec4285dc7",
             reencode<DeltaBundle>},
            {"image", util::encode(bundle.image),
             "59af047414283171da22e5bffbebb5c4"
             "10f1f64fb40055c064ca2f7be8da2e9c",
             reencode<xom::ProgramImage>},
            {"journal", util::encode(journal),
             "91b56b259da52360f505808de02b9cea"
             "c9c5e249b4f5ae1c114ef767d29b0508",
             reencode<StagingJournal>},
            {"rollback", util::encode(bank),
             "5ab0ee6a68244b0e1f186bcf744d6d21"
             "1b55f644f37f2befe0616c512d8c305e",
             reencode<RollbackStore>},
            {"report", util::encode(report),
             "01cb67fddd10c82c43ac581558970678"
             "edbb95344e1e0d32b6566e7c1bf980a2",
             nullptr},
            {"slot", frameBundle(bundle),
             "731034a68113afc4f5cead48a99867b0"
             "61dd72481741d00b1ca06536acb3c0b1",
             reframe},
            // A one-byte op header expands to a 24-byte TraceOp.
            {"trace", traceBytes("gzip", 128, 2'000),
             "a57e35f1b85091dc05612c40b1bf9735"
             "41081894cbcc49ac390e117fdf192e70",
             retrace, 2 * sizeof(sim::TraceOp)},
        };
    }();
    return all;
}

/** SHA-256s of 20,000-op traces of every benchmark profile, in
 *  benchmarkNames() order, each at 64- then 128-byte lines. */
constexpr const char *kPinnedTraces[] = {
    "1aef0bb5edba971778299be874cc4bf3b58ecedb9c04cafcaf3f022c74e5f93c",
    "7581712d3caf972ed23748ae7a6567ec703f3f921113ad5e6c9f9978043f119e",
    "e96b83ddec0704d440c4f4ee563d621962963fbf82cfe82b5ef3cc3b8992bc95",
    "7bd0ebc2603c013e1c67892891234fde4ca075f8d968c1092903e145ac717844",
    "c37660ff564809b39456c0f16c589dc495c3f23d2b47067274810f59117c1cd6",
    "5d74efe85d22b69a896ba8a7f76768eea0f9cc630ca92b907ab38a337ed09bb7",
    "a22e768284e365ae2e6c65a4de26de5f9487ba7c47ceca4e145be2cf84a4eda4",
    "789bf7f4c1811b074de7f5159cd0055a1ee2c82a6a8b39292de21d39b4aede78",
    "364a0a9ff61bc514cae9ec648b072250503eef5f806cafad64ac845ee7467e0c",
    "c3fa512b2b61462f5307ff4786d7646d4b85c7c1db052f8c1024ac3b6c08ada3",
    "48c3e2007598f7afba9a77033907057d3390e49a1916caf58e81bcdc500f0ccd",
    "d638ea5254700616559c68f36cc5684ec148d43f935c9c7032e77a85b4c277dd",
    "982e391c899eeb09dfb789e0997b2ce6fccd0953eeb0aaf3c227e3d6743dfd0c",
    "2e75aa13d169bea4cbafff4602685798050009e2688bd611159d658528d6d4b4",
    "e5d588733561ffa6a247f4ed8d1b6a1e60e3cc2f4cce811c5d2de86f5bed845b",
    "29ffef485bbdf42b6bafc74cb96bc07495f3a977c754d1de20b3341715312eb1",
    "e0d2ea1786b5f20875876695b0bcebf378974de604769daf54858ac6df28a3b8",
    "893cf78e8bfd0926b61eb169c21a2f87fa608fd46b349b6aeb2432c76cd65e2a",
    "31c7cb9f416df1f5270f257f163f2a01ca4cfcdff4763bf70e3b4f92a4f8edc1",
    "36476360fba151ec10a87dcf979c71f8561ada0276491ab3c765fcd9ddabbaba",
    "644517cef65f3e8e2813c6bb448b640673017962c9b0150123374076df86e12c",
    "b833d7c1bc0b9200b8ea92a671f86c5b6b5e87781c3c2c27ca8a845052d6a6b0",
};

TEST(WireFormat, BytesArePinned)
{
    for (const Format &format : formats()) {
        const Digest digest = sha256Digest(format.bytes);
        EXPECT_EQ(util::toHex(digest.data(), digest.size()),
                  format.pinned)
            << format.name;
    }
    const Bytes &bundle = formats()[1].bytes;
    EXPECT_EQ(bundle.size(), 65'978u);
    // The streamed digest and the materialized bytes agree.
    const auto parsed = UpdateBundle::deserialize(bundle);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(sha256DigestOfImage(parsed->image),
              sha256Digest(util::encode(parsed->image)));

    const std::vector<std::string> &names = sim::benchmarkNames();
    ASSERT_EQ(std::size(kPinnedTraces), 2 * names.size());
    const char *const *pinned = kPinnedTraces;
    for (const std::string &name : names) {
        for (const uint32_t line_size : {64u, 128u}) {
            const Digest digest =
                sha256Digest(traceBytes(name, line_size, 20'000));
            EXPECT_EQ(util::toHex(digest.data(), digest.size()),
                      *pinned++)
                << name << " at " << line_size << "-byte lines";
        }
    }
}

// ------------------------------------------------ round-trip oracle

/** Values written over u32/u64 fields: every length, count and
 *  offset must survive its largest and wrap-prone claims. */
constexpr uint64_t kBoundaryValues[] = {
    0xFFFF'FFFFull, 1ull << 61, ~0ull - 17, 1ull << 32, 0};

/** One seeded mutant of @p seed; @p other donates splice tails. */
Bytes
mutate(const Bytes &seed, const Bytes &other, util::Rng &rng)
{
    Bytes m = seed;
    switch (rng.nextRange(4)) {
      case 0: // bit flips
        for (uint64_t n = 1 + rng.nextRange(3); n > 0; --n) {
            const size_t bit = rng.nextRange(m.size() * 8);
            m[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
        break;
      case 1: { // a boundary value over a u32 or u64 field
        // Half of them land in the first KiB, where headers sit.
        const size_t width = rng.nextRange(2) == 0 ? 4 : 8;
        const uint64_t value = kBoundaryValues[rng.nextRange(
            std::size(kBoundaryValues))];
        const size_t span = m.size() - width + 1;
        const size_t at = rng.nextRange(
            rng.nextRange(2) == 0 ? span : std::min<size_t>(span, 1024));
        for (size_t i = 0; i < width; ++i)
            m[at + i] = static_cast<uint8_t>(value >> (8 * i));
        break;
      }
      case 2: // truncation
        m.resize(rng.nextRange(m.size()));
        break;
      default: { // splice: a prefix of this, a tail of either
        const Bytes &donor = rng.nextRange(2) == 0 ? seed : other;
        m.resize(rng.nextRange(m.size() + 1));
        const size_t from = rng.nextRange(donor.size() + 1);
        m.insert(m.end(), donor.begin() + from, donor.end());
        break;
      }
    }
    return m;
}

/**
 * The largest single allocation a parse may make is its format's
 * alloc_per_byte (2, a trace's 2 x sizeof(TraceOp)) times its input,
 * plus this slack. A reader reserves no more list elements than the
 * remaining bytes could pay for, but an element can be larger in
 * memory than on the wire (a 48-byte DeltaOp holds a 20-byte Copy
 * op) and vector growth may double past what was parsed. An
 * allocation sized from a claimed count or length (2^32 elements,
 * a 2^61-byte blob) exceeds this by orders of magnitude.
 */
constexpr size_t kAllocSlack = 256;
constexpr int kMutantsPerFormat = 20000;

TEST(WireFormat, EveryMutantIsRejectedOrCanonical)
{
    const std::vector<Format> &all = formats();
    util::Rng rng(0x31CE);
    for (size_t f = 0; f < all.size(); ++f) {
        const Format &format = all[f];
        if (!format.reparse)
            continue;
        const Bytes &other = all[(f + 1) % all.size()].bytes;
        SCOPED_TRACE(format.name);
        ASSERT_EQ(format.reparse(format.bytes), format.bytes);
        // No strict prefix parses: edges exactly, the middle strided.
        const size_t size = format.bytes.size();
        for (size_t cut = 0; cut < size;
             cut += cut < 64 || cut + 64 > size ? 1 : 997) {
            EXPECT_FALSE(format.reparse(std::span(format.bytes).first(cut)))
                << "prefix " << cut;
        }

        int accepted = 0;
        for (int i = 0; i < kMutantsPerFormat; ++i) {
            const Bytes mutant = mutate(format.bytes, other, rng);
            g_largest = 0;
            const std::optional<Bytes> again = format.reparse(mutant);
            EXPECT_LE(g_largest,
                      format.alloc_per_byte * mutant.size() + kAllocSlack)
                << "mutant " << i;
            if (again.has_value()) {
                ++accepted;
                EXPECT_EQ(*again, mutant) << "mutant " << i;
            }
        }
        // The oracle must see both outcomes to mean anything.
        EXPECT_GT(accepted, 0);
        EXPECT_LT(accepted, kMutantsPerFormat);
    }
}

} // namespace
