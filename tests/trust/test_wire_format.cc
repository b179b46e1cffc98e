/** @file Byte-level pin of every TRUST wire layout and of the
 *  persisted store formats. Round-trip tests cannot catch a
 *  reordered or dropped field (both ends would share the new layout),
 *  so this test compares the hex of one fixed instance of each of the
 *  14 message kinds — serialize() plus its signed/MAC body — and of a
 *  TrustStore WAL segment, snapshot blob and stateDigest() against a
 *  committed golden.
 *
 *  Regenerate the golden after an intentional format change with
 *      TRUST_UPDATE_GOLDEN=1 ctest -R WireFormat
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/hex.hh"
#include "core/wal/segment.hh"
#include "trust/messages.hh"
#include "trust/store.hh"

namespace {

using trust::core::Bytes;
using trust::core::hexEncode;
using namespace trust::trust; // test-local: exercise the whole module

/** One "<label> <hex>" line per pinned byte string. */
struct GoldenLines
{
    std::ostringstream out;

    void add(const std::string &label, const Bytes &bytes)
    {
        out << label << ' ' << hexEncode(bytes) << '\n';
    }
};

void
addMessages(GoldenLines &g)
{
    const RegistrationRequest rr{0x0101, "bank.example", "alice"};
    g.add("RegistrationRequest.wire", rr.serialize());

    RegistrationPage rp;
    rp.requestId = 0x0202;
    rp.domain = "bank.example";
    rp.nonce = Bytes{0x10, 0x11, 0x12, 0x13};
    rp.pageContent = Bytes{0x20, 0x21, 0x22};
    rp.serverCert = Bytes{0x30, 0x31};
    rp.signature = Bytes{0x40, 0x41, 0x42};
    g.add("RegistrationPage.wire", rp.serialize());
    g.add("RegistrationPage.signed", rp.signedBody());

    RegistrationSubmit rs;
    rs.requestId = 0x0303;
    rs.domain = "bank.example";
    rs.account = "alice";
    rs.nonce = Bytes{0x10, 0x11, 0x12, 0x13};
    rs.deviceCert = Bytes{0x50, 0x51};
    rs.userPublicKey = Bytes{0x60, 0x61, 0x62};
    rs.frameHash = Bytes{0x70, 0x71, 0x72, 0x73};
    rs.signature = Bytes{0x80, 0x81};
    g.add("RegistrationSubmit.wire", rs.serialize());
    g.add("RegistrationSubmit.signed", rs.signedBody());

    RegistrationResult res;
    res.requestId = 0x0404;
    res.domain = "bank.example";
    res.account = "alice";
    res.ok = true;
    res.reason = "bound";
    g.add("RegistrationResult.wire", res.serialize());

    const LoginRequest lr{0x0505, "bank.example", "alice"};
    g.add("LoginRequest.wire", lr.serialize());

    LoginPage lp;
    lp.requestId = 0x0606;
    lp.domain = "bank.example";
    lp.nonce = Bytes{0x14, 0x15, 0x16, 0x17};
    lp.pageContent = Bytes{0x23, 0x24};
    lp.signature = Bytes{0x43, 0x44};
    g.add("LoginPage.wire", lp.serialize());
    g.add("LoginPage.signed", lp.signedBody());

    LoginSubmit ls;
    ls.requestId = 0x0707;
    ls.domain = "bank.example";
    ls.account = "alice";
    ls.nonce = Bytes{0x14, 0x15, 0x16, 0x17};
    ls.encSessionKey = Bytes{0x90, 0x91, 0x92};
    ls.frameHash = Bytes{0x74, 0x75};
    ls.riskMatched = 3;
    ls.riskWindow = 8;
    ls.mac = Bytes{0xa0, 0xa1};
    g.add("LoginSubmit.wire", ls.serialize());
    g.add("LoginSubmit.mac", ls.macBody());

    ContentPage cp;
    cp.requestId = 0x0808;
    cp.domain = "bank.example";
    cp.sessionId = 0x1122334455667788ull;
    cp.nonce = Bytes{0x18, 0x19};
    cp.pageContent = Bytes{0x25, 0x26, 0x27};
    cp.mac = Bytes{0xa2, 0xa3};
    g.add("ContentPage.wire", cp.serialize());
    g.add("ContentPage.mac", cp.macBody());

    PageRequest pr;
    pr.requestId = 0x0909;
    pr.domain = "bank.example";
    pr.account = "alice";
    pr.sessionId = 0x1122334455667788ull;
    pr.nonce = Bytes{0x18, 0x19};
    pr.action = "inbox";
    pr.frameHash = Bytes{0x76, 0x77};
    pr.riskMatched = 5;
    pr.riskWindow = 8;
    pr.mac = Bytes{0xa4, 0xa5};
    g.add("PageRequest.wire", pr.serialize());
    g.add("PageRequest.mac", pr.macBody());

    const ErrorReply er{0x0a0a, "bank.example", "stale-nonce"};
    g.add("ErrorReply.wire", er.serialize());

    const ServerBusy sb{0x0b0b, "bank.example",
                        trust::core::milliseconds(250)};
    g.add("ServerBusy.wire", sb.serialize());

    CrlMessage crl;
    crl.requestId = 0x0c0c;
    crl.issuer = "TrustRootCA";
    crl.crlSeq = 42;
    crl.revokedSerials = {7, 0x1000, 0xfedcba9876543210ull};
    crl.signature = Bytes{0xb0, 0xb1};
    g.add("CrlMessage.wire", crl.serialize());
    g.add("CrlMessage.signed", crl.signedBody());

    const CrlAck ack{0x0d0d, "bank.example", 42, 3};
    g.add("CrlAck.wire", ack.serialize());

    ResetRequest reset;
    reset.requestId = 0x0e0e;
    reset.domain = "bank.example";
    reset.account = "alice";
    reset.authSeq = 9;
    reset.signature = Bytes{0xc0, 0xc1};
    g.add("ResetRequest.wire", reset.serialize());
    g.add("ResetRequest.signed", reset.signedBody());
}

void
addStore(GoldenLines &g)
{
    trust::core::wal::SimulatedStorage disk;
    StorePolicy policy;
    policy.shards = 1;
    policy.rotateBytes = 64 * 1024 * 1024;
    TrustStore store(disk, "srv", policy);
    store.recover();

    StoredSession session;
    session.account = "alice";
    session.sessionKey = Bytes{0xd0, 0xd1, 0xd2, 0xd3};
    session.expectedNonce = Bytes{0xe0, 0xe1};
    session.currentTag = "inbox";
    session.lastRequestId = 0x0909;

    // One shard, one segment: the file holds every record kind.
    store.putSession(16, session);
    store.setRevocations({7, 0x1000});
    store.putSession(32, session);
    store.eraseSession(32);
    store.putAccount("alice", Bytes{0xf0, 0xf1});
    g.add("TrustStore.s00.wal",
          disk.readAll(trust::core::wal::segmentFileName("srv.s00", 1)));

    store.checkpoint();
    g.add("TrustStore.s00.snap", disk.readAll("srv.s00.snap"));
    g.out << "TrustStore.stateDigest " << store.stateDigest() << '\n';
}

std::string
goldenPath()
{
    return std::string(TRUST_SOURCE_DIR) +
           "/tests/golden/wire_format.golden";
}

TEST(WireFormat, BytesMatchGolden)
{
    GoldenLines g;
    addMessages(g);
    addStore(g);
    const std::string actual = g.out.str();

    if (std::getenv("TRUST_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out.good()) << goldenPath();
        out << actual;
        GTEST_SKIP() << "golden regenerated at " << goldenPath();
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden; run with TRUST_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(actual, buf.str())
        << "wire or store bytes drifted from the committed golden; if "
           "the change is intentional regenerate with "
           "TRUST_UPDATE_GOLDEN=1";
}

} // namespace
