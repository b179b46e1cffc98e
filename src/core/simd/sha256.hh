/**
 * @file
 * SHA-256 compression on the x86 SHA extensions (SHA-NI).
 *
 * crypto::Sha256 keeps the portable scalar block function as the
 * reference and hands whole runs of 64-byte blocks to this kernel
 * when sha256NiActive() says so. The kernel lives here because raw
 * intrinsics are confined to src/core/simd/ (trustlint's
 * `simd-intrinsics` rule). It is compiled with a function-level
 * target attribute, so the build stays baseline x86-64 and the CPU
 * is asked at run time (cpuid leaf 7 EBX bit 29 for SHA, leaf 1 for
 * SSSE3 and SSE4.1) whether the instructions exist.
 *
 * The dispatch follows the pack layer's switches: -DTRUST_SIMD=OFF
 * compiles the kernel out, and setForceScalar(true) routes new
 * compressions to the scalar code. Both paths produce the same
 * chaining state for every block, so the switch may be flipped
 * between two update() calls of one streaming context.
 */

#ifndef TRUST_CORE_SIMD_SHA256_HH
#define TRUST_CORE_SIMD_SHA256_HH

#include <cstddef>
#include <cstdint>

namespace trust::core::simd {

/** True when the build and the CPU both allow the SHA-NI kernel. */
bool sha256NiSupported();

/** True when SHA-256 should run on SHA-NI right now. */
bool sha256NiActive();

/** SHA-256 backend in effect right now: "sha-ni" or "scalar". */
const char *sha256BackendName();

/**
 * Absorb @p blocks consecutive 64-byte blocks at @p data into the
 * FIPS 180-4 chaining state @p state (h0..h7, native word order).
 * Precondition: sha256NiSupported().
 */
void sha256CompressNi(std::uint32_t state[8], const std::uint8_t *data,
                      std::size_t blocks);

} // namespace trust::core::simd

#endif // TRUST_CORE_SIMD_SHA256_HH
