/**
 * @file
 * Compartment key table.
 *
 * XOM isolates concurrently active tasks in "compartments" (paper
 * Section 2.3): each has an ID and the symmetric key its program was
 * encrypted with. The key table lives inside the security boundary;
 * the protection engines look up the active compartment's cipher
 * here. Register/cache tagging with compartment IDs is modelled by
 * the engines and the context-switch ablation.
 */

#ifndef SECPROC_SECURE_KEY_TABLE_HH
#define SECPROC_SECURE_KEY_TABLE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "crypto/block_cipher.hh"

namespace secproc::secure
{

/** Compartment (XOM ID). 0 is reserved for the null/shared domain. */
using CompartmentId = uint16_t;

/** Cipher family used for line encryption and pad generation. */
enum class CipherKind
{
    Des,
    TripleDes,
    Aes128,
};

/**
 * Maps compartments to their symmetric ciphers.
 */
class KeyTable
{
  public:
    KeyTable() = default;

    /**
     * Install a compartment's symmetric key (as unwrapped from the
     * vendor's RSA capsule). Replaces any previous key. Fatal when
     * the key length does not match @p kind (DES = 8, 3DES = 24,
     * AES-128 = 16 bytes): a malformed key must never reach cipher
     * construction.
     */
    void install(CompartmentId id, CipherKind kind,
                 const std::vector<uint8_t> &key);

    /** Remove a compartment's key (task exit). */
    void remove(CompartmentId id);

    /** @return the compartment's cipher, or nullptr if absent. */
    const crypto::BlockCipher *cipher(CompartmentId id) const;

    /** Number of installed compartments. */
    size_t size() const { return ciphers_.size(); }

  private:
    std::unordered_map<CompartmentId,
                       std::unique_ptr<crypto::BlockCipher>> ciphers_;
};

/** Construct a cipher of @p kind keyed with @p key. */
std::unique_ptr<crypto::BlockCipher>
makeCipher(CipherKind kind, const std::vector<uint8_t> &key);

/** Key length in bytes expected for @p kind. */
size_t cipherKeySize(CipherKind kind);

/**
 * The last cipher kind. Wire readers reject any larger value: an
 * out-of-range kind would otherwise travel as a "valid" CipherKind
 * until cipherKeySize()/makeCipher() panic — a remote DoS from one
 * attacker-controlled u32.
 */
inline constexpr CipherKind kLastCipherKind = CipherKind::Aes128;

} // namespace secproc::secure

#endif // SECPROC_SECURE_KEY_TABLE_HH
