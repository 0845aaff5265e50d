/**
 * @file
 * Protected program image format.
 *
 * Models the artifact a software vendor ships for a XOM/OTP secure
 * processor (paper Section 2.1): sections of encrypted text and
 * initialized data, optional plaintext sections (shared library
 * code, default inputs), and a key capsule — the program's symmetric
 * key encrypted with the target processor's RSA public key, so the
 * program runs *only* on that processor.
 */

#ifndef SECPROC_XOM_PROGRAM_IMAGE_HH
#define SECPROC_XOM_PROGRAM_IMAGE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "secure/key_table.hh"
#include "util/wire.hh"

namespace secproc::xom
{

/** How a section's bytes are stored in the image. */
enum class SectionEncryption
{
    /** One-time pad with virtual-address seeds, seqnum 0. */
    OtpVaSeed,
    /** XOM-style direct (ECB) encryption. */
    Direct,
    /** No encryption (shared library code, program inputs). */
    Plaintext,
};

/** One loadable section. */
struct Section
{
    std::string name;
    uint64_t vaddr = 0; ///< load address (line aligned)
    SectionEncryption encryption = SectionEncryption::Plaintext;
    std::vector<uint8_t> bytes; ///< stored (possibly encrypted) image
};

/** The shippable program. */
struct ProgramImage
{
    static constexpr uint32_t kMaxSections = 1024;

    std::string title;
    secure::CipherKind cipher = secure::CipherKind::Des;
    uint64_t entry_point = 0;
    uint32_t line_size = 128;
    std::vector<Section> sections;
    /** RSA capsule holding the symmetric key. */
    std::vector<uint8_t> key_capsule;

    /** Total stored bytes across sections. */
    uint64_t
    totalBytes() const
    {
        uint64_t total = 0;
        for (const Section &section : sections)
            total += section.bytes.size();
        return total;
    }

    /** The wire layout (cipher, entry, line, then title: not the
     *  declaration order). */
    template <class W, class Self>
    static void
    wire(W &w, Self &image)
    {
        const auto section = [](auto &sw, auto &s) {
            sw.str(s.name)
                .u64(s.vaddr)
                .enumeration(s.encryption, SectionEncryption::Plaintext)
                .blob(s.bytes);
        };
        w.tag(0x5350494D) // "SPIM"
            .tag(1)       // format version
            .enumeration(image.cipher, secure::kLastCipherKind)
            .u64(image.entry_point)
            .u32(image.line_size)
            .str(image.title)
            .blob(image.key_capsule)
            .list(image.sections, kMaxSections, section);
    }

    /**
     * Parse bytes that crossed a trust boundary (an update bundle, a
     * staged slot): std::nullopt on malformed input, never fatal.
     * Section bytes are copied out, since the image owns them.
     */
    static std::optional<ProgramImage>
    deserialize(std::span<const uint8_t> data)
    {
        return util::decode<ProgramImage>(data);
    }
};

} // namespace secproc::xom

#endif // SECPROC_XOM_PROGRAM_IMAGE_HH
