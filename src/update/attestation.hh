/**
 * @file
 * Remote attestation of the running software.
 *
 * Proof of what a fielded processor is executing (the fwupd
 * host-attestation model adapted to XOM compartments): a report
 * naming the processor's identity, a compartment, the active image's
 * digest/version and the rollback counter, bound to a
 * verifier-chosen nonce for freshness. Two bindings are offered —
 * an RSA signature under the device's *attestation* key pair
 * (dedicated to signing; never the capsule-unwrap key, whose
 * padding check is an observable decryption oracle) and HMAC-SHA256
 * under a shared session key (cheap, for a verifier that already
 * ran a key exchange).
 */

#ifndef SECPROC_UPDATE_ATTESTATION_HH
#define SECPROC_UPDATE_ATTESTATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/rsa.hh"
#include "update/manifest.hh"
#include "update/update_engine.hh"

namespace secproc::update
{

/** What the processor claims to be running. */
struct AttestationReport
{
    Digest processor_id = {};
    secure::CompartmentId compartment = 0;
    std::string title;
    uint32_t image_version = 0;
    uint64_t rollback_counter = 0;
    /** Digest of the active serialized image. */
    Digest image_digest = {};
    /** Verifier-chosen challenge echoed back for freshness. */
    Digest nonce = {};

    /** The wire layout the signature/MAC covers (write-only). */
    template <class W, class Self>
    static void
    wire(W &w, Self &report)
    {
        w.tag(0x53505154) // "SPQT"
            .bytes(report.processor_id)
            .u32(report.compartment)
            .str(report.title)
            .u32(report.image_version)
            .u64(report.rollback_counter)
            .bytes(report.image_digest)
            .bytes(report.nonce);
    }
};

/** A report plus its authenticity binding. */
struct AttestationQuote
{
    AttestationReport report;
    /** RSA signature by the device's attestation private key. */
    std::vector<uint8_t> signature;
    /** HMAC-SHA256 under a shared session key (empty key = unused). */
    Digest mac = {};
};

/**
 * Produce a quote for the image running in @p compartment of
 * @p engine. Panics if nothing is installed there — attesting an
 * empty compartment is a caller bug — or if the engine has no
 * attestation key provisioned.
 *
 * @param nonce Verifier's freshness challenge.
 * @param session_key Optional shared MAC key (empty: RSA only).
 */
AttestationQuote attest(const UpdateEngine &engine,
                        secure::CompartmentId compartment,
                        const Digest &nonce,
                        const std::vector<uint8_t> &session_key = {});

/**
 * Verifier side: does @p quote echo @p nonce and carry a valid
 * signature under the device's provisioned attestation public key?
 * The report's processor_id is the device's capsule-key
 * fingerprint; a verifier that tracks identities compares it to the
 * provisioned value alongside this check.
 */
bool verifyQuote(const crypto::RsaPublicKey &attestation_pub,
                 const AttestationQuote &quote, const Digest &nonce);

/** Verifier side for the HMAC binding. */
bool verifyQuoteMac(const std::vector<uint8_t> &session_key,
                    const AttestationQuote &quote, const Digest &nonce);

} // namespace secproc::update

#endif // SECPROC_UPDATE_ATTESTATION_HH
