#include "crypto/sha256.hh"

#include <algorithm>
#include <cstring>

#include "core/simd/sha256.hh"

namespace trust::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
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

constexpr std::size_t kBlockBytes = 64;

inline std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

} // namespace

Sha256::Sha256()
{
    reset();
}

void
Sha256::reset()
{
    h_[0] = 0x6a09e667;
    h_[1] = 0xbb67ae85;
    h_[2] = 0x3c6ef372;
    h_[3] = 0xa54ff53a;
    h_[4] = 0x510e527f;
    h_[5] = 0x9b05688c;
    h_[6] = 0x1f83d9ab;
    h_[7] = 0x5be0cd19;
    bufLen_ = 0;
    totalLen_ = 0;
}

void
Sha256::processBlock(const std::uint8_t *block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
               static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
               static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
               static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                                 (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                                 (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
    std::uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];

    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
        const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }

    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
    h_[5] += f;
    h_[6] += g;
    h_[7] += h;
}

void
Sha256::compress(const std::uint8_t *blocks, std::size_t count)
{
    if (core::simd::sha256NiActive()) {
        core::simd::sha256CompressNi(h_, blocks, count);
        return;
    }
    for (; count > 0; --count, blocks += kBlockBytes)
        processBlock(blocks);
}

void
Sha256::update(const std::uint8_t *data, std::size_t len)
{
    if (len == 0)
        return; // data may be null (empty Bytes)
    totalLen_ += len;
    if (bufLen_ > 0) {
        const std::size_t take = std::min(len, kBlockBytes - bufLen_);
        std::memcpy(buf_ + bufLen_, data, take);
        bufLen_ += take;
        data += take;
        len -= take;
        if (bufLen_ < kBlockBytes)
            return;
        compress(buf_, 1);
        bufLen_ = 0;
    }
    // Whole blocks straight from the caller's buffer, in one run.
    const std::size_t blocks = len / kBlockBytes;
    if (blocks > 0) {
        compress(data, blocks);
        data += blocks * kBlockBytes;
        len -= blocks * kBlockBytes;
    }
    std::memcpy(buf_, data, len);
    bufLen_ = len;
}

void
Sha256::update(const core::Bytes &data)
{
    update(data.data(), data.size());
}

core::Bytes
Sha256::finish()
{
    const std::uint64_t bit_len = totalLen_ * 8;

    // Padding: 0x80, zeros, then the 64-bit big-endian bit length,
    // spilling into a second block when fewer than 8 bytes remain.
    buf_[bufLen_++] = 0x80;
    if (bufLen_ > 56) {
        std::memset(buf_ + bufLen_, 0, kBlockBytes - bufLen_);
        compress(buf_, 1);
        bufLen_ = 0;
    }
    std::memset(buf_ + bufLen_, 0, 56 - bufLen_);
    for (int i = 0; i < 8; ++i)
        buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    compress(buf_, 1);

    core::Bytes out(digestSize);
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
    }
    reset();
    return out;
}

core::Bytes
Sha256::digest(const core::Bytes &data)
{
    Sha256 ctx;
    ctx.update(data);
    return ctx.finish();
}

core::Bytes
Sha256::digest(const std::string &data)
{
    return digest(core::toBytes(data));
}

} // namespace trust::crypto
