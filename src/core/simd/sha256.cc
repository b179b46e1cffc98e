#include "core/simd/sha256.hh"

#include "core/logging.hh"
#include "core/simd/simd.hh"

#if defined(TRUST_SIMD_BACKEND_SSE2) && defined(__GNUC__)
#define TRUST_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace trust::core::simd {

#if defined(TRUST_SHA_NI)

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

bool
detectShaNi()
{
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d))
        return false;
    const bool ssse3 = (c & bit_SSSE3) != 0;
    const bool sse41 = (c & bit_SSE4_1) != 0;
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
        return false;
    const bool sha = (b & (1u << 29)) != 0;
    return ssse3 && sse41 && sha;
}

__attribute__((target("sha,sse4.1,ssse3"))) void
compressNi(std::uint32_t state[8], const std::uint8_t *data,
           std::size_t blocks)
{
    // Big-endian message words: byte-reverse each 32-bit lane.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);

    // rnds2 works on the state split as ABEF and CDGH (high lane
    // first); h0..h7 arrive as DCBA and HGFE.
    __m128i dcba =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        // msg[i & 3] holds schedule words W[4i..4i+3]; each group
        // of four rounds finishes the words of group i + 1
        // (msg2) and starts those of group i + 3 (msg1).
        __m128i msg[4];
        for (int i = 0; i < 4; ++i)
            msg[i] = _mm_shuffle_epi8(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(data + 16 * i)),
                bswap);
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i) {
            const __m128i w = msg[i & 3];
            __m128i wk = _mm_add_epi32(
                w,
                _mm_load_si128(reinterpret_cast<const __m128i *>(
                    kK + 4 * i)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            if (i >= 3 && i < 15) {
                __m128i &next = msg[(i + 1) & 3];
                next = _mm_add_epi32(
                    next, _mm_alignr_epi8(w, msg[(i + 3) & 3], 4));
                next = _mm_sha256msg2_epu32(next, w);
            }
            wk = _mm_shuffle_epi32(wk, 0x0e);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
            if (i >= 1 && i < 13)
                msg[(i + 3) & 3] =
                    _mm_sha256msg1_epu32(msg[(i + 3) & 3], w);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    hgfe = _mm_alignr_epi8(dchg, feba, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state), dcba);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4), hgfe);
}

} // namespace

bool
sha256NiSupported()
{
    // Latched once: the CPU does not change under a running process.
    static const bool supported = detectShaNi();
    return supported;
}

void
sha256CompressNi(std::uint32_t state[8], const std::uint8_t *data,
                 std::size_t blocks)
{
    TRUST_ASSERT(sha256NiSupported(),
                 "sha256CompressNi: CPU lacks the SHA extensions");
    compressNi(state, data, blocks);
}

#else // !TRUST_SHA_NI

bool
sha256NiSupported()
{
    return false;
}

void
sha256CompressNi(std::uint32_t *, const std::uint8_t *, std::size_t)
{
    TRUST_PANIC("sha256CompressNi: SHA-NI kernel not compiled in");
}

#endif

bool
sha256NiActive()
{
    return sha256NiSupported() && !scalarForced();
}

const char *
sha256BackendName()
{
    return sha256NiActive() ? "sha-ni" : "scalar";
}

} // namespace trust::core::simd
