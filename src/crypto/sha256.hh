/**
 * @file
 * SHA-256 (FIPS 180-4), from scratch.
 *
 * Used by the FLock frame-hash engine, HMAC, certificate signatures
 * and the fingerprint template digests. Streaming and one-shot APIs.
 *
 * Whole blocks go to the x86 SHA extensions when the CPU has them
 * (core/simd/sha256.hh) and to the portable processBlock() otherwise;
 * both produce identical digests.
 */

#ifndef TRUST_CRYPTO_SHA256_HH
#define TRUST_CRYPTO_SHA256_HH

#include <cstdint>

#include "core/bytes.hh"

namespace trust::crypto {

/** Streaming SHA-256 context. */
class Sha256
{
  public:
    /** Digest size in bytes. */
    static constexpr std::size_t digestSize = 32;

    Sha256();

    /** Absorb more message bytes. */
    void update(const std::uint8_t *data, std::size_t len);

    /** Absorb more message bytes. */
    void update(const core::Bytes &data);

    /** Finalize and return the 32-byte digest; context becomes reset. */
    core::Bytes finish();

    /** One-shot convenience. */
    static core::Bytes digest(const core::Bytes &data);

    /** One-shot over a string's bytes. */
    static core::Bytes digest(const std::string &data);

  private:
    void reset();
    /** Portable FIPS 180-4 block function: the reference backend. */
    void processBlock(const std::uint8_t *block);
    /** Absorb @p count whole blocks on the active backend. */
    void compress(const std::uint8_t *blocks, std::size_t count);

    std::uint32_t h_[8];
    std::uint8_t buf_[64];
    std::size_t bufLen_ = 0;
    std::uint64_t totalLen_ = 0;
};

} // namespace trust::crypto

#endif // TRUST_CRYPTO_SHA256_HH
