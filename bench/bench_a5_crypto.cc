/**
 * @file
 * Ablation **A5**: crypto primitive microbenchmarks sizing the FLock
 * crypto processor (Fig. 5). Measures the from-scratch RSA (keygen,
 * sign, verify, encrypt, decrypt), AES-128-CTR, SHA-256, MD5 and
 * HMAC implementations on the host, which bound what the protocol
 * costs per operation. The printed section compares the SHA-256
 * compression backends (portable scalar vs x86 SHA extensions) on a
 * display-frame-sized input.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>
#include <thread>

#include "core/simd/sha256.hh"
#include "core/simd/simd.hh"
#include "crypto/aes128.hh"
#include "crypto/cert.hh"
#include "crypto/hmac.hh"
#include "crypto/md5.hh"
#include "crypto/rsa.hh"
#include "crypto/sha256.hh"

namespace crypto = trust::crypto;
using trust::core::Bytes;

namespace {

/** SHA-256 MB/s over a 480x800 RGB565 frame on the active backend. */
double
sha256MegabytesPerSecond()
{
    Bytes frame(480 * 800 * 2, 0x5a);
    constexpr int kFrames = 24;
    const trust::benchutil::Stopwatch sw;
    for (int i = 0; i < kFrames; ++i) {
        const Bytes digest = crypto::Sha256::digest(frame);
        frame[static_cast<std::size_t>(i)] ^= digest[0];
    }
    const double s = sw.seconds();
    return static_cast<double>(frame.size()) * kFrames / s / 1e6;
}

void
printShaBackends()
{
    namespace simd = trust::core::simd;
    std::printf("=== A5: SHA-256 backends (nproc %u, default backend "
                "%s) ===\n",
                std::thread::hardware_concurrency(),
                simd::sha256BackendName());
    const bool prev = simd::scalarForced();
    simd::setForceScalar(true);
    std::printf("  scalar   %8.1f MB/s\n", sha256MegabytesPerSecond());
    simd::setForceScalar(false);
    if (simd::sha256NiActive())
        std::printf("  sha-ni   %8.1f MB/s\n",
                    sha256MegabytesPerSecond());
    else
        std::printf("  sha-ni   unavailable (CPU or build)\n");
    simd::setForceScalar(prev);
}

const crypto::RsaKeyPair &
key512()
{
    static crypto::Csprng rng(std::uint64_t{1});
    static const auto kp = crypto::rsaGenerate(512, rng);
    return kp;
}

const crypto::RsaKeyPair &
key1024()
{
    static crypto::Csprng rng(std::uint64_t{2});
    static const auto kp = crypto::rsaGenerate(1024, rng);
    return kp;
}

void
BM_RsaKeygen(benchmark::State &state)
{
    crypto::Csprng rng(std::uint64_t{3});
    for (auto _ : state) {
        auto kp = crypto::rsaGenerate(
            static_cast<std::size_t>(state.range(0)), rng);
        benchmark::DoNotOptimize(kp);
    }
}
BENCHMARK(BM_RsaKeygen)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void
BM_RsaSign(benchmark::State &state)
{
    const auto &kp = state.range(0) == 512 ? key512() : key1024();
    const Bytes msg(256, 0x42);
    for (auto _ : state) {
        auto sig = crypto::rsaSign(kp.priv, msg);
        benchmark::DoNotOptimize(sig);
    }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void
BM_RsaVerify(benchmark::State &state)
{
    const auto &kp = state.range(0) == 512 ? key512() : key1024();
    const Bytes msg(256, 0x42);
    const Bytes sig = crypto::rsaSign(kp.priv, msg);
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::rsaVerify(kp.pub, msg, sig));
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void
BM_RsaEncryptDecrypt(benchmark::State &state)
{
    const auto &kp = key512();
    crypto::Csprng rng(std::uint64_t{4});
    const Bytes session_key = rng.randomBytes(32);
    for (auto _ : state) {
        const Bytes ct = crypto::rsaEncrypt(kp.pub, session_key, rng);
        benchmark::DoNotOptimize(crypto::rsaDecrypt(kp.priv, ct));
    }
}
BENCHMARK(BM_RsaEncryptDecrypt)->Unit(benchmark::kMicrosecond);

void
BM_Aes128Ctr(benchmark::State &state)
{
    crypto::Csprng rng(std::uint64_t{5});
    crypto::Aes128 aes(rng.randomBytes(16));
    const Bytes iv = rng.randomBytes(16);
    const Bytes data(static_cast<std::size_t>(state.range(0)), 0x17);
    for (auto _ : state)
        benchmark::DoNotOptimize(aes.ctrTransform(iv, data));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_Aes128Ctr)->Arg(1024)->Arg(64 * 1024);

void
BM_Sha256(benchmark::State &state)
{
    const Bytes data(static_cast<std::size_t>(state.range(0)), 0x23);
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::Sha256::digest(data));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(64 * 1024);

void
BM_Md5(benchmark::State &state)
{
    const Bytes data(static_cast<std::size_t>(state.range(0)), 0x23);
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::Md5::digest(data));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_Md5)->Arg(1024)->Arg(64 * 1024);

void
BM_HmacSha256(benchmark::State &state)
{
    const Bytes key(32, 0x31);
    const Bytes msg(512, 0x42);
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::hmacSha256(key, msg));
}
BENCHMARK(BM_HmacSha256);

void
BM_CertificateIssueVerify(benchmark::State &state)
{
    crypto::Csprng rng(std::uint64_t{6});
    crypto::CertificateAuthority ca("CA", 512, rng);
    const auto subject = crypto::rsaGenerate(512, rng);
    for (auto _ : state) {
        const auto cert = ca.issue("www.x.com",
                                   crypto::CertRole::WebServer,
                                   subject.pub);
        benchmark::DoNotOptimize(crypto::verifyCertificate(
            cert, ca.rootKey(), 0, crypto::CertRole::WebServer));
    }
}
BENCHMARK(BM_CertificateIssueVerify)->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printShaBackends);
}
