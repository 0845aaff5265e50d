/**
 * @file
 * Manifest construction and digests.
 */

#include "update/manifest.hh"

namespace secproc::update
{

Digest
sha256Digest(std::span<const uint8_t> data)
{
    return crypto::Sha256::digest(data.data(), data.size());
}

Digest
sha256DigestOfImage(const xom::ProgramImage &image)
{
    crypto::Sha256Sink sink;
    util::encodeTo(sink, image);
    return sink.digest();
}

Digest
processorId(const crypto::RsaPublicKey &pub)
{
    std::vector<uint8_t> material = pub.n.toBytes();
    const std::vector<uint8_t> e = pub.e.toBytes();
    material.insert(material.end(), e.begin(), e.end());
    return sha256Digest(material);
}

UpdateManifest
describeImage(const xom::ProgramImage &image,
              const crypto::RsaPublicKey &processor)
{
    UpdateManifest manifest;
    manifest.title = image.title;
    manifest.processor_id = processorId(processor);
    manifest.cipher = image.cipher;
    manifest.entry_point = image.entry_point;
    manifest.line_size = image.line_size;
    manifest.image_digest = sha256DigestOfImage(image);
    manifest.capsule_digest = sha256Digest(image.key_capsule);
    for (const xom::Section &section : image.sections) {
        SectionDigest sd;
        sd.name = section.name;
        sd.vaddr = section.vaddr;
        sd.size = section.bytes.size();
        sd.digest = sha256Digest(section.bytes);
        manifest.sections.push_back(std::move(sd));
    }
    return manifest;
}

Digest
UpdateManifest::digest() const
{
    return sha256Digest(util::encode(*this));
}

bool
UpdateManifest::hasBase() const
{
    for (const uint8_t byte : base_digest)
        if (byte != 0)
            return true;
    return false;
}

} // namespace secproc::update
