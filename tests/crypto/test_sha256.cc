/**
 * @file
 * SHA-256 tests against FIPS 180-4 / NIST known vectors, plus the
 * equivalence of the compression backends: the portable scalar block
 * function and, on CPUs with the x86 SHA extensions, the SHA-NI
 * kernel. On a host or build without SHA-NI both runs take the
 * scalar path and the comparisons degenerate to determinism checks;
 * each test records the backend it actually exercised.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/hex.hh"
#include "core/rng.hh"
#include "core/simd/sha256.hh"
#include "core/simd/simd.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"

namespace {

namespace simd = trust::core::simd;
using trust::core::Bytes;
using trust::core::hexEncode;
using trust::core::toBytes;
using trust::crypto::hmacSha256;
using trust::crypto::Sha256;

TEST(Sha256Test, EmptyString)
{
    EXPECT_EQ(
        hexEncode(Sha256::digest(std::string(""))),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc)
{
    EXPECT_EQ(
        hexEncode(Sha256::digest(std::string("abc"))),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage)
{
    EXPECT_EQ(
        hexEncode(Sha256::digest(std::string(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs)
{
    Sha256 ctx;
    const Bytes chunk(1000, static_cast<std::uint8_t>('a'));
    for (int i = 0; i < 1000; ++i)
        ctx.update(chunk);
    EXPECT_EQ(
        hexEncode(ctx.finish()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot)
{
    const std::string msg =
        "The quick brown fox jumps over the lazy dog, repeatedly, to "
        "exercise block boundaries in the streaming interface.";
    for (std::size_t split = 0; split <= msg.size(); split += 7) {
        Sha256 ctx;
        ctx.update(toBytes(msg.substr(0, split)));
        ctx.update(toBytes(msg.substr(split)));
        EXPECT_EQ(ctx.finish(), Sha256::digest(msg));
    }
}

TEST(Sha256Test, FinishResetsContext)
{
    Sha256 ctx;
    ctx.update(toBytes(std::string("abc")));
    (void)ctx.finish();
    // Context must now behave as a fresh one.
    EXPECT_EQ(hexEncode(ctx.finish()),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, LengthJustBelowAndAbovePadBoundary)
{
    // 55 bytes fits padding in one block; 56 forces an extra block.
    const Bytes m55(55, 0x41);
    const Bytes m56(56, 0x41);
    EXPECT_NE(Sha256::digest(m55), Sha256::digest(m56));
    EXPECT_EQ(Sha256::digest(m55).size(), 32u);
    EXPECT_EQ(Sha256::digest(m56).size(), 32u);
}

TEST(Sha256Test, DifferentMessagesDiffer)
{
    EXPECT_NE(Sha256::digest(std::string("frame-1")),
              Sha256::digest(std::string("frame-2")));
}

/** Forces the scalar backend for one scope, restoring on exit. */
class ScopedScalar
{
  public:
    explicit ScopedScalar(bool force) : prev_(simd::scalarForced())
    {
        simd::setForceScalar(force);
    }
    ~ScopedScalar() { simd::setForceScalar(prev_); }

  private:
    bool prev_;
};

/** Digest of @p data fed in pieces cut at random points. */
Bytes
streamedDigest(const Bytes &data, trust::core::Rng &rng)
{
    Sha256 ctx;
    std::size_t pos = 0;
    while (pos < data.size()) {
        const auto take = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(data.size() - pos)));
        ctx.update(data.data() + pos, take);
        pos += take;
    }
    return ctx.finish();
}

Bytes
randomBytes(std::size_t n, trust::core::Rng &rng)
{
    Bytes out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next());
    return out;
}

/** Known-answer vectors under a forced-scalar (true) or active run. */
class Sha256Backend : public ::testing::TestWithParam<bool>
{
  protected:
    void
    SetUp() override
    {
        scoped_.emplace(GetParam());
        RecordProperty("sha256_backend", simd::sha256BackendName());
    }
    void TearDown() override { scoped_.reset(); }

  private:
    std::optional<ScopedScalar> scoped_;
};

TEST_P(Sha256Backend, NistVectors)
{
    EXPECT_EQ(
        hexEncode(Sha256::digest(std::string(""))),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(
        hexEncode(Sha256::digest(std::string("abc"))),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        hexEncode(Sha256::digest(std::string(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(
        hexEncode(Sha256::digest(std::string(
            "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
            "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
    EXPECT_EQ(
        hexEncode(Sha256::digest(Bytes(1000000, 'a'))),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Backend, Rfc4231HmacVectors)
{
    Bytes key4;
    for (std::uint8_t b = 1; b <= 25; ++b)
        key4.push_back(b);
    const struct
    {
        Bytes key;
        Bytes msg;
        const char *tag;
    } cases[] = {
        {Bytes(20, 0x0b), toBytes(std::string("Hi There")),
         "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
        {toBytes(std::string("Jefe")),
         toBytes(std::string("what do ya want for nothing?")),
         "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
        {Bytes(20, 0xaa), Bytes(50, 0xdd),
         "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
        {key4, Bytes(50, 0xcd),
         "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
        {Bytes(131, 0xaa),
         toBytes(std::string(
             "Test Using Larger Than Block-Size Key - Hash Key First")),
         "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
        {Bytes(131, 0xaa),
         toBytes(std::string(
             "This is a test using a larger than block-size key and a "
             "larger than block-size data. The key needs to be hashed "
             "before being used by the HMAC algorithm.")),
         "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
    };
    for (const auto &c : cases)
        EXPECT_EQ(hexEncode(hmacSha256(c.key, c.msg)), c.tag);
}

INSTANTIATE_TEST_SUITE_P(ScalarAndActive, Sha256Backend,
                         ::testing::Values(true, false),
                         [](const auto &param_info) {
                             return param_info.param ? "ForcedScalar"
                                                     : "Active";
                         });

TEST(Sha256Equivalence, ActiveMatchesScalarOnEveryLength)
{
    ScopedScalar scalar(false);
    RecordProperty("sha256_backend", simd::sha256BackendName());
    trust::core::Rng rng(0x5a256);
    for (std::size_t len = 0; len <= 1100; ++len) {
        const Bytes data = randomBytes(len, rng);
        simd::setForceScalar(true);
        const Bytes reference = Sha256::digest(data);
        simd::setForceScalar(false);
        ASSERT_EQ(Sha256::digest(data), reference) << "len " << len;
        ASSERT_EQ(streamedDigest(data, rng), reference) << "len " << len;
    }
}

TEST(Sha256Equivalence, SwitchingMidStreamKeepsTheDigest)
{
    ScopedScalar scalar(false);
    trust::core::Rng rng(7);
    const Bytes data = randomBytes(4096 + 37, rng);
    const Bytes reference = Sha256::digest(data);
    Sha256 ctx;
    for (std::size_t pos = 0; pos < data.size(); pos += 300) {
        simd::setForceScalar(((pos / 300) & 1) != 0);
        ctx.update(data.data() + pos, std::min<std::size_t>(
                                          300, data.size() - pos));
    }
    EXPECT_EQ(ctx.finish(), reference);
}

TEST(Sha256Equivalence, FrameSizedInputAgrees)
{
    ScopedScalar scalar(false);
    RecordProperty("sha256_backend", simd::sha256BackendName());
    trust::core::Rng rng(11);
    const Bytes frame = randomBytes(480 * 800 * 2, rng); // RGB565 WVGA
    simd::setForceScalar(true);
    const Bytes reference = Sha256::digest(frame);
    simd::setForceScalar(false);
    EXPECT_EQ(Sha256::digest(frame), reference);
    EXPECT_EQ(streamedDigest(frame, rng), reference);
}

TEST(Sha256Equivalence, BackendFollowsSwitches)
{
    ScopedScalar scalar(true);
    EXPECT_STREQ(simd::sha256BackendName(), "scalar");
    EXPECT_FALSE(simd::sha256NiActive());
    simd::setForceScalar(false);
    EXPECT_EQ(simd::sha256NiActive(), simd::sha256NiSupported());
    if (simd::kCompiledBackend == simd::Backend::Scalar) {
        EXPECT_FALSE(simd::sha256NiSupported());
    }
}

} // namespace
