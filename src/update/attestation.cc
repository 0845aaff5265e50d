/**
 * @file
 * Attestation implementation.
 */

#include "update/attestation.hh"

#include "util/logging.hh"

namespace secproc::update
{

AttestationQuote
attest(const UpdateEngine &engine, secure::CompartmentId compartment,
       const Digest &nonce, const std::vector<uint8_t> &session_key)
{
    const UpdateManifest *manifest =
        engine.compartmentManifest(compartment);
    panic_if(manifest == nullptr,
             "attesting compartment ", compartment,
             " with nothing installed");

    AttestationQuote quote;
    quote.report.processor_id = engine.processorIdentity();
    quote.report.compartment = compartment;
    quote.report.title = manifest->title;
    quote.report.image_version = manifest->image_version;
    quote.report.rollback_counter = manifest->rollback_counter;
    quote.report.image_digest = manifest->image_digest;
    quote.report.nonce = nonce;

    const std::vector<uint8_t> bytes = util::encode(quote.report);
    const Digest digest = sha256Digest(bytes);
    // Signed with the dedicated attestation key, never the capsule
    // unwrap key (see UpdateEngine::setAttestationKey).
    quote.signature = crypto::rsaSignDigest(
        engine.attestationKey().priv, {digest.begin(), digest.end()});
    if (!session_key.empty()) {
        quote.mac = crypto::hmacSha256(session_key.data(),
                                       session_key.size(), bytes.data(),
                                       bytes.size());
    }
    return quote;
}

bool
verifyQuote(const crypto::RsaPublicKey &attestation_pub,
            const AttestationQuote &quote, const Digest &nonce)
{
    if (quote.report.nonce != nonce)
        return false;
    const Digest digest = sha256Digest(util::encode(quote.report));
    return crypto::rsaVerifyDigest(attestation_pub,
                                   {digest.begin(), digest.end()},
                                   quote.signature);
}

bool
verifyQuoteMac(const std::vector<uint8_t> &session_key,
               const AttestationQuote &quote, const Digest &nonce)
{
    if (quote.report.nonce != nonce)
        return false;
    const std::vector<uint8_t> bytes = util::encode(quote.report);
    return quote.mac == crypto::hmacSha256(session_key.data(),
                                           session_key.size(),
                                           bytes.data(), bytes.size());
}

} // namespace secproc::update
