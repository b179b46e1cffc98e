/**
 * @file
 * Portable fixed-width SIMD layer for the fingerprint hot path.
 *
 * Exposes three vector shapes — 4-lane float, 2-lane double and
 * 16-lane uint8 — as backend-tagged "packs" (type bundles) that hot
 * kernels take as a template parameter:
 *
 *     template <class P> void kernel(...) { typename P::F32 acc = ...; }
 *     TRUST_SIMD_DISPATCH(kernel, args...);   // picks Native or Scalar
 *
 * Backend selection is compile-time: SSE2 on x86-64, NEON on
 * aarch64, scalar everywhere else or when the build forces
 * -DTRUST_SIMD=OFF (which defines TRUST_SIMD_DISABLED). A runtime
 * force-scalar switch lets one binary run both code paths, which is
 * how the equivalence tests and the A13 sweep (in
 * bench_a10_parallel_pipeline) compare backends in-process.
 *
 * Bit-identity contract (DESIGN.md §12): every operation here is a
 * single IEEE-754 rounding step (add/sub/mul/min/max/compare, or
 * bitwise for abs and the integer ops), and every kernel performs
 * the same operations in the same per-lane order in both backends.
 * No FMA, reciprocal or rsqrt approximations are permitted, and the
 * build compiles with -ffp-contract=off so the scalar fallback
 * cannot be silently contracted on FMA-capable targets. Scalar and
 * vector execution therefore produce bit-identical results.
 *
 * Raw intrinsics (_mm_*, v*q_*) are banned outside src/core/simd/
 * by trustlint's `simd-intrinsics` rule.
 */

#ifndef TRUST_CORE_SIMD_SIMD_HH
#define TRUST_CORE_SIMD_SIMD_HH

#include <cmath>
#include <cstdint>
#include <cstring>

namespace trust::core::simd {

enum class Backend { Scalar, Sse2, Neon };

#if defined(TRUST_SIMD_DISABLED)
#define TRUST_SIMD_BACKEND_SCALAR 1
constexpr Backend kCompiledBackend = Backend::Scalar;
#elif defined(__SSE2__) || defined(_M_X64) ||                         \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define TRUST_SIMD_BACKEND_SSE2 1
constexpr Backend kCompiledBackend = Backend::Sse2;
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define TRUST_SIMD_BACKEND_NEON 1
constexpr Backend kCompiledBackend = Backend::Neon;
#else
#define TRUST_SIMD_BACKEND_SCALAR 1
constexpr Backend kCompiledBackend = Backend::Scalar;
#endif

constexpr int kF32Lanes = 4;
constexpr int kF64Lanes = 2;
constexpr int kU8Lanes = 16;

/** Compiled backend name: "scalar", "sse2" or "neon". */
const char *compiledBackendName();

/**
 * Runtime override: when set, vectorActive() reports false and
 * dispatching call sites take the scalar instantiation. Used by the
 * equivalence tests and the A13 sweep to compare both code paths in
 * one process. Not meant to be toggled while kernels are in flight.
 */
void setForceScalar(bool force);
bool scalarForced();

/** True when dispatch should take the vector instantiation. */
bool vectorActive();

/** Backend dispatch actually in effect right now. */
const char *activeBackendName();

// --------------------------------------------------------------------
// Scalar backend: plain arrays, one IEEE operation per lane in lane
// order. This is the semantic reference for the vector backends.
// --------------------------------------------------------------------

struct F32x4s
{
    float v[4];

    static F32x4s
    zero()
    {
        return {{0.0f, 0.0f, 0.0f, 0.0f}};
    }
    static F32x4s
    set1(float x)
    {
        return {{x, x, x, x}};
    }
    static F32x4s
    loadu(const float *p)
    {
        F32x4s r;
        std::memcpy(r.v, p, sizeof(r.v));
        return r;
    }
};

struct M32x4s
{
    std::uint32_t m[4];
};

struct F64x2s
{
    double v[2];

    static F64x2s
    zero()
    {
        return {{0.0, 0.0}};
    }
    static F64x2s
    set1(double x)
    {
        return {{x, x}};
    }
    static F64x2s
    loadu(const double *p)
    {
        F64x2s r;
        std::memcpy(r.v, p, sizeof(r.v));
        return r;
    }
    /** Widen two consecutive floats (exact). */
    static F64x2s
    load2f(const float *p)
    {
        return {{static_cast<double>(p[0]), static_cast<double>(p[1])}};
    }
};

struct M64x2s
{
    std::uint64_t m[2];
};

struct U8x16s
{
    std::uint8_t v[16];

    static U8x16s
    zero()
    {
        U8x16s r{};
        return r;
    }
    static U8x16s
    set1(std::uint8_t x)
    {
        U8x16s r;
        for (auto &b : r.v)
            b = x;
        return r;
    }
    static U8x16s
    loadu(const std::uint8_t *p)
    {
        U8x16s r;
        std::memcpy(r.v, p, sizeof(r.v));
        return r;
    }
};

// ---- float32 x4 ----------------------------------------------------

inline void
storeu(float *p, F32x4s a)
{
    std::memcpy(p, a.v, sizeof(a.v));
}
inline F32x4s
add(F32x4s a, F32x4s b)
{
    for (int i = 0; i < 4; ++i)
        a.v[i] += b.v[i];
    return a;
}
inline F32x4s
sub(F32x4s a, F32x4s b)
{
    for (int i = 0; i < 4; ++i)
        a.v[i] -= b.v[i];
    return a;
}
inline F32x4s
mul(F32x4s a, F32x4s b)
{
    for (int i = 0; i < 4; ++i)
        a.v[i] *= b.v[i];
    return a;
}
/** Lanewise min; ties take b, matching the SSE2 semantics. */
inline F32x4s
vmin(F32x4s a, F32x4s b)
{
    for (int i = 0; i < 4; ++i)
        a.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
    return a;
}
inline F32x4s
vmax(F32x4s a, F32x4s b)
{
    for (int i = 0; i < 4; ++i)
        a.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return a;
}
/** Lanewise a > b. */
inline M32x4s
cmpgt(F32x4s a, F32x4s b)
{
    M32x4s r;
    for (int i = 0; i < 4; ++i)
        r.m[i] = a.v[i] > b.v[i] ? 0xffffffffu : 0u;
    return r;
}
/** Narrow four 32-bit masks into sixteen 0xff/0x00 bytes. */
inline U8x16s
packMask(M32x4s a, M32x4s b, M32x4s c, M32x4s d)
{
    U8x16s r;
    for (int i = 0; i < 4; ++i) {
        r.v[i] = a.m[i] ? 0xff : 0x00;
        r.v[4 + i] = b.m[i] ? 0xff : 0x00;
        r.v[8 + i] = c.m[i] ? 0xff : 0x00;
        r.v[12 + i] = d.m[i] ? 0xff : 0x00;
    }
    return r;
}

// ---- float64 x2 ----------------------------------------------------

inline void
storeu(double *p, F64x2s a)
{
    std::memcpy(p, a.v, sizeof(a.v));
}
/** Narrow to two consecutive floats (one rounding per lane). */
inline void
store2f(float *p, F64x2s a)
{
    p[0] = static_cast<float>(a.v[0]);
    p[1] = static_cast<float>(a.v[1]);
}
inline F64x2s
add(F64x2s a, F64x2s b)
{
    a.v[0] += b.v[0];
    a.v[1] += b.v[1];
    return a;
}
inline F64x2s
sub(F64x2s a, F64x2s b)
{
    a.v[0] -= b.v[0];
    a.v[1] -= b.v[1];
    return a;
}
inline F64x2s
mul(F64x2s a, F64x2s b)
{
    a.v[0] *= b.v[0];
    a.v[1] *= b.v[1];
    return a;
}
inline F64x2s
vmin(F64x2s a, F64x2s b)
{
    a.v[0] = a.v[0] < b.v[0] ? a.v[0] : b.v[0];
    a.v[1] = a.v[1] < b.v[1] ? a.v[1] : b.v[1];
    return a;
}
inline F64x2s
vmax(F64x2s a, F64x2s b)
{
    a.v[0] = a.v[0] > b.v[0] ? a.v[0] : b.v[0];
    a.v[1] = a.v[1] > b.v[1] ? a.v[1] : b.v[1];
    return a;
}
/** Sign-bit clear: exact |x|, identical to std::fabs. */
inline F64x2s
vabs(F64x2s a)
{
    a.v[0] = std::fabs(a.v[0]);
    a.v[1] = std::fabs(a.v[1]);
    return a;
}
inline M64x2s
cmple(F64x2s a, F64x2s b)
{
    M64x2s r;
    r.m[0] = a.v[0] <= b.v[0] ? ~0ull : 0ull;
    r.m[1] = a.v[1] <= b.v[1] ? ~0ull : 0ull;
    return r;
}
inline M64x2s
cmplt(F64x2s a, F64x2s b)
{
    M64x2s r;
    r.m[0] = a.v[0] < b.v[0] ? ~0ull : 0ull;
    r.m[1] = a.v[1] < b.v[1] ? ~0ull : 0ull;
    return r;
}
inline M64x2s
maskAnd(M64x2s a, M64x2s b)
{
    a.m[0] &= b.m[0];
    a.m[1] &= b.m[1];
    return a;
}
/** Bit i set when lane i's mask is on. */
inline unsigned
maskBits(M64x2s a)
{
    return (a.m[0] ? 1u : 0u) | (a.m[1] ? 2u : 0u);
}
inline double
lane(F64x2s a, int i)
{
    return a.v[i];
}

// ---- uint8 x16 -----------------------------------------------------

inline void
storeu(std::uint8_t *p, U8x16s a)
{
    std::memcpy(p, a.v, sizeof(a.v));
}
inline U8x16s
add(U8x16s a, U8x16s b)
{
    for (int i = 0; i < 16; ++i)
        a.v[i] = static_cast<std::uint8_t>(a.v[i] + b.v[i]);
    return a;
}
inline U8x16s
and_(U8x16s a, U8x16s b)
{
    for (int i = 0; i < 16; ++i)
        a.v[i] &= b.v[i];
    return a;
}
inline U8x16s
or_(U8x16s a, U8x16s b)
{
    for (int i = 0; i < 16; ++i)
        a.v[i] |= b.v[i];
    return a;
}
inline U8x16s
xor_(U8x16s a, U8x16s b)
{
    for (int i = 0; i < 16; ++i)
        a.v[i] ^= b.v[i];
    return a;
}
/** b & ~mask (operand order matches the SSE2 andnot intrinsic). */
inline U8x16s
andnot(U8x16s mask, U8x16s b)
{
    for (int i = 0; i < 16; ++i)
        b.v[i] = static_cast<std::uint8_t>(b.v[i] & ~mask.v[i]);
    return b;
}
inline U8x16s
cmpeq(U8x16s a, U8x16s b)
{
    U8x16s r;
    for (int i = 0; i < 16; ++i)
        r.v[i] = a.v[i] == b.v[i] ? 0xff : 0x00;
    return r;
}
/** Signed byte compare a > b (operands reinterpreted as int8). */
inline U8x16s
cmpgt(U8x16s a, U8x16s b)
{
    U8x16s r;
    for (int i = 0; i < 16; ++i)
        r.v[i] = static_cast<std::int8_t>(a.v[i]) >
                         static_cast<std::int8_t>(b.v[i])
                     ? 0xff
                     : 0x00;
    return r;
}
inline bool
any(U8x16s a)
{
    for (int i = 0; i < 16; ++i)
        if (a.v[i])
            return true;
    return false;
}

/** The scalar-reference type bundle. */
struct ScalarPack
{
    using F32 = F32x4s;
    using M32 = M32x4s;
    using F64 = F64x2s;
    using M64 = M64x2s;
    using U8 = U8x16s;
    static constexpr Backend backend = Backend::Scalar;
};

} // namespace trust::core::simd

// --------------------------------------------------------------------
// SSE2 backend.
// --------------------------------------------------------------------
#if defined(TRUST_SIMD_BACKEND_SSE2)

#include <emmintrin.h>

namespace trust::core::simd {

struct F32x4v
{
    __m128 v;

    static F32x4v
    zero()
    {
        return {_mm_setzero_ps()};
    }
    static F32x4v
    set1(float x)
    {
        return {_mm_set1_ps(x)};
    }
    static F32x4v
    loadu(const float *p)
    {
        return {_mm_loadu_ps(p)};
    }
};

struct M32x4v
{
    __m128 m;
};

struct F64x2v
{
    __m128d v;

    static F64x2v
    zero()
    {
        return {_mm_setzero_pd()};
    }
    static F64x2v
    set1(double x)
    {
        return {_mm_set1_pd(x)};
    }
    static F64x2v
    loadu(const double *p)
    {
        return {_mm_loadu_pd(p)};
    }
    static F64x2v
    load2f(const float *p)
    {
        return {_mm_cvtps_pd(
            _mm_castsi128_ps(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(p))))};
    }
};

struct M64x2v
{
    __m128d m;
};

struct U8x16v
{
    __m128i v;

    static U8x16v
    zero()
    {
        return {_mm_setzero_si128()};
    }
    static U8x16v
    set1(std::uint8_t x)
    {
        return {_mm_set1_epi8(static_cast<char>(x))};
    }
    static U8x16v
    loadu(const std::uint8_t *p)
    {
        return {_mm_loadu_si128(reinterpret_cast<const __m128i *>(p))};
    }
};

inline void
storeu(float *p, F32x4v a)
{
    _mm_storeu_ps(p, a.v);
}
inline F32x4v
add(F32x4v a, F32x4v b)
{
    return {_mm_add_ps(a.v, b.v)};
}
inline F32x4v
sub(F32x4v a, F32x4v b)
{
    return {_mm_sub_ps(a.v, b.v)};
}
inline F32x4v
mul(F32x4v a, F32x4v b)
{
    return {_mm_mul_ps(a.v, b.v)};
}
inline F32x4v
vmin(F32x4v a, F32x4v b)
{
    return {_mm_min_ps(a.v, b.v)};
}
inline F32x4v
vmax(F32x4v a, F32x4v b)
{
    return {_mm_max_ps(a.v, b.v)};
}
inline M32x4v
cmpgt(F32x4v a, F32x4v b)
{
    return {_mm_cmpgt_ps(a.v, b.v)};
}
inline U8x16v
packMask(M32x4v a, M32x4v b, M32x4v c, M32x4v d)
{
    const __m128i lo = _mm_packs_epi32(_mm_castps_si128(a.m),
                                       _mm_castps_si128(b.m));
    const __m128i hi = _mm_packs_epi32(_mm_castps_si128(c.m),
                                       _mm_castps_si128(d.m));
    return {_mm_packs_epi16(lo, hi)};
}

inline void
storeu(double *p, F64x2v a)
{
    _mm_storeu_pd(p, a.v);
}
inline void
store2f(float *p, F64x2v a)
{
    _mm_storel_epi64(reinterpret_cast<__m128i *>(p),
                     _mm_castps_si128(_mm_cvtpd_ps(a.v)));
}
inline F64x2v
add(F64x2v a, F64x2v b)
{
    return {_mm_add_pd(a.v, b.v)};
}
inline F64x2v
sub(F64x2v a, F64x2v b)
{
    return {_mm_sub_pd(a.v, b.v)};
}
inline F64x2v
mul(F64x2v a, F64x2v b)
{
    return {_mm_mul_pd(a.v, b.v)};
}
inline F64x2v
vmin(F64x2v a, F64x2v b)
{
    return {_mm_min_pd(a.v, b.v)};
}
inline F64x2v
vmax(F64x2v a, F64x2v b)
{
    return {_mm_max_pd(a.v, b.v)};
}
inline F64x2v
vabs(F64x2v a)
{
    return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
}
inline M64x2v
cmple(F64x2v a, F64x2v b)
{
    return {_mm_cmple_pd(a.v, b.v)};
}
inline M64x2v
cmplt(F64x2v a, F64x2v b)
{
    return {_mm_cmplt_pd(a.v, b.v)};
}
inline M64x2v
maskAnd(M64x2v a, M64x2v b)
{
    return {_mm_and_pd(a.m, b.m)};
}
inline unsigned
maskBits(M64x2v a)
{
    return static_cast<unsigned>(_mm_movemask_pd(a.m));
}
inline double
lane(F64x2v a, int i)
{
    alignas(16) double tmp[2];
    _mm_store_pd(tmp, a.v);
    return tmp[i];
}

inline void
storeu(std::uint8_t *p, U8x16v a)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(p), a.v);
}
inline U8x16v
add(U8x16v a, U8x16v b)
{
    return {_mm_add_epi8(a.v, b.v)};
}
inline U8x16v
and_(U8x16v a, U8x16v b)
{
    return {_mm_and_si128(a.v, b.v)};
}
inline U8x16v
or_(U8x16v a, U8x16v b)
{
    return {_mm_or_si128(a.v, b.v)};
}
inline U8x16v
xor_(U8x16v a, U8x16v b)
{
    return {_mm_xor_si128(a.v, b.v)};
}
inline U8x16v
andnot(U8x16v mask, U8x16v b)
{
    return {_mm_andnot_si128(mask.v, b.v)};
}
inline U8x16v
cmpeq(U8x16v a, U8x16v b)
{
    return {_mm_cmpeq_epi8(a.v, b.v)};
}
inline U8x16v
cmpgt(U8x16v a, U8x16v b)
{
    return {_mm_cmpgt_epi8(a.v, b.v)};
}
inline bool
any(U8x16v a)
{
    return _mm_movemask_epi8(
               _mm_cmpeq_epi8(a.v, _mm_setzero_si128())) != 0xffff;
}

struct Sse2Pack
{
    using F32 = F32x4v;
    using M32 = M32x4v;
    using F64 = F64x2v;
    using M64 = M64x2v;
    using U8 = U8x16v;
    static constexpr Backend backend = Backend::Sse2;
};

using NativePack = Sse2Pack;

} // namespace trust::core::simd

// --------------------------------------------------------------------
// NEON backend (aarch64 only: needs float64x2_t).
// --------------------------------------------------------------------
#elif defined(TRUST_SIMD_BACKEND_NEON)

#include <arm_neon.h>

namespace trust::core::simd {

struct F32x4v
{
    float32x4_t v;

    static F32x4v
    zero()
    {
        return {vdupq_n_f32(0.0f)};
    }
    static F32x4v
    set1(float x)
    {
        return {vdupq_n_f32(x)};
    }
    static F32x4v
    loadu(const float *p)
    {
        return {vld1q_f32(p)};
    }
};

struct M32x4v
{
    uint32x4_t m;
};

struct F64x2v
{
    float64x2_t v;

    static F64x2v
    zero()
    {
        return {vdupq_n_f64(0.0)};
    }
    static F64x2v
    set1(double x)
    {
        return {vdupq_n_f64(x)};
    }
    static F64x2v
    loadu(const double *p)
    {
        return {vld1q_f64(p)};
    }
    static F64x2v
    load2f(const float *p)
    {
        return {vcvt_f64_f32(vld1_f32(p))};
    }
};

struct M64x2v
{
    uint64x2_t m;
};

struct U8x16v
{
    uint8x16_t v;

    static U8x16v
    zero()
    {
        return {vdupq_n_u8(0)};
    }
    static U8x16v
    set1(std::uint8_t x)
    {
        return {vdupq_n_u8(x)};
    }
    static U8x16v
    loadu(const std::uint8_t *p)
    {
        return {vld1q_u8(p)};
    }
};

inline void
storeu(float *p, F32x4v a)
{
    vst1q_f32(p, a.v);
}
inline F32x4v
add(F32x4v a, F32x4v b)
{
    return {vaddq_f32(a.v, b.v)};
}
inline F32x4v
sub(F32x4v a, F32x4v b)
{
    return {vsubq_f32(a.v, b.v)};
}
inline F32x4v
mul(F32x4v a, F32x4v b)
{
    return {vmulq_f32(a.v, b.v)};
}
inline F32x4v
vmin(F32x4v a, F32x4v b)
{
    return {vbslq_f32(vcltq_f32(a.v, b.v), a.v, b.v)};
}
inline F32x4v
vmax(F32x4v a, F32x4v b)
{
    return {vbslq_f32(vcgtq_f32(a.v, b.v), a.v, b.v)};
}
inline M32x4v
cmpgt(F32x4v a, F32x4v b)
{
    return {vcgtq_f32(a.v, b.v)};
}
inline U8x16v
packMask(M32x4v a, M32x4v b, M32x4v c, M32x4v d)
{
    const uint16x8_t lo =
        vcombine_u16(vmovn_u32(a.m), vmovn_u32(b.m));
    const uint16x8_t hi =
        vcombine_u16(vmovn_u32(c.m), vmovn_u32(d.m));
    return {vcombine_u8(vmovn_u16(lo), vmovn_u16(hi))};
}

inline void
storeu(double *p, F64x2v a)
{
    vst1q_f64(p, a.v);
}
inline void
store2f(float *p, F64x2v a)
{
    vst1_f32(p, vcvt_f32_f64(a.v));
}
inline F64x2v
add(F64x2v a, F64x2v b)
{
    return {vaddq_f64(a.v, b.v)};
}
inline F64x2v
sub(F64x2v a, F64x2v b)
{
    return {vsubq_f64(a.v, b.v)};
}
inline F64x2v
mul(F64x2v a, F64x2v b)
{
    return {vmulq_f64(a.v, b.v)};
}
inline F64x2v
vmin(F64x2v a, F64x2v b)
{
    // bsl keeps SSE2's "b when equal/unordered" tie behaviour; for
    // the finite inputs the kernels feed this is plain IEEE min.
    return {vbslq_f64(vcltq_f64(a.v, b.v), a.v, b.v)};
}
inline F64x2v
vmax(F64x2v a, F64x2v b)
{
    return {vbslq_f64(vcgtq_f64(a.v, b.v), a.v, b.v)};
}
inline F64x2v
vabs(F64x2v a)
{
    return {vabsq_f64(a.v)};
}
inline M64x2v
cmple(F64x2v a, F64x2v b)
{
    return {vcleq_f64(a.v, b.v)};
}
inline M64x2v
cmplt(F64x2v a, F64x2v b)
{
    return {vcltq_f64(a.v, b.v)};
}
inline M64x2v
maskAnd(M64x2v a, M64x2v b)
{
    return {vandq_u64(a.m, b.m)};
}
inline unsigned
maskBits(M64x2v a)
{
    return (vgetq_lane_u64(a.m, 0) ? 1u : 0u) |
           (vgetq_lane_u64(a.m, 1) ? 2u : 0u);
}
inline double
lane(F64x2v a, int i)
{
    return i == 0 ? vgetq_lane_f64(a.v, 0) : vgetq_lane_f64(a.v, 1);
}

inline void
storeu(std::uint8_t *p, U8x16v a)
{
    vst1q_u8(p, a.v);
}
inline U8x16v
add(U8x16v a, U8x16v b)
{
    return {vaddq_u8(a.v, b.v)};
}
inline U8x16v
and_(U8x16v a, U8x16v b)
{
    return {vandq_u8(a.v, b.v)};
}
inline U8x16v
or_(U8x16v a, U8x16v b)
{
    return {vorrq_u8(a.v, b.v)};
}
inline U8x16v
xor_(U8x16v a, U8x16v b)
{
    return {veorq_u8(a.v, b.v)};
}
inline U8x16v
andnot(U8x16v mask, U8x16v b)
{
    return {vbicq_u8(b.v, mask.v)};
}
inline U8x16v
cmpeq(U8x16v a, U8x16v b)
{
    return {vceqq_u8(a.v, b.v)};
}
inline U8x16v
cmpgt(U8x16v a, U8x16v b)
{
    return {vreinterpretq_u8_s8(vcgtq_s8(vreinterpretq_s8_u8(a.v),
                                         vreinterpretq_s8_u8(b.v)))};
}
inline bool
any(U8x16v a)
{
    return vmaxvq_u8(a.v) != 0;
}

struct NeonPack
{
    using F32 = F32x4v;
    using M32 = M32x4v;
    using F64 = F64x2v;
    using M64 = M64x2v;
    using U8 = U8x16v;
    static constexpr Backend backend = Backend::Neon;
};

using NativePack = NeonPack;

} // namespace trust::core::simd

#else // scalar-only build

namespace trust::core::simd {
using NativePack = ScalarPack;
} // namespace trust::core::simd

#endif

/**
 * Instantiate a kernel template for the active backend. `fn` must be
 * a function template taking the pack as its first template
 * parameter; both instantiations are compiled, the branch picks one
 * at runtime (compile-time scalar builds fold it away since both
 * sides are the same instantiation).
 */
#define TRUST_SIMD_DISPATCH(fn, ...)                                  \
    (::trust::core::simd::vectorActive()                              \
         ? fn<::trust::core::simd::NativePack>(__VA_ARGS__)           \
         : fn<::trust::core::simd::ScalarPack>(__VA_ARGS__))

#endif // TRUST_CORE_SIMD_SIMD_HH
