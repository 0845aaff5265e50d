/**
 * @file
 * Key table implementation.
 */

#include "secure/key_table.hh"

#include "crypto/aes128.hh"
#include "crypto/des.hh"
#include "crypto/triple_des.hh"
#include "util/logging.hh"

namespace secproc::secure
{

std::unique_ptr<crypto::BlockCipher>
makeCipher(CipherKind kind, const std::vector<uint8_t> &key)
{
    fatal_if(key.size() != cipherKeySize(kind),
             "key of ", key.size(), " bytes for a cipher that needs ",
             cipherKeySize(kind));
    std::unique_ptr<crypto::BlockCipher> cipher;
    switch (kind) {
      case CipherKind::Des:
        cipher = std::make_unique<crypto::Des>();
        break;
      case CipherKind::TripleDes:
        cipher = std::make_unique<crypto::TripleDes>();
        break;
      case CipherKind::Aes128:
        cipher = std::make_unique<crypto::Aes128>();
        break;
    }
    cipher->setKey(key.data(), key.size());
    return cipher;
}

size_t
cipherKeySize(CipherKind kind)
{
    switch (kind) {
      case CipherKind::Des: return 8;
      case CipherKind::TripleDes: return 24;
      case CipherKind::Aes128: return 16;
    }
    panic("unknown cipher kind");
}

void
KeyTable::install(CompartmentId id, CipherKind kind,
                  const std::vector<uint8_t> &key)
{
    fatal_if(id == 0, "compartment 0 is reserved for the null domain");
    ciphers_[id] = makeCipher(kind, key);
}

void
KeyTable::remove(CompartmentId id)
{
    ciphers_.erase(id);
}

const crypto::BlockCipher *
KeyTable::cipher(CompartmentId id) const
{
    const auto it = ciphers_.find(id);
    return it == ciphers_.end() ? nullptr : it->second.get();
}

} // namespace secproc::secure
