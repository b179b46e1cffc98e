/** @file Round-trip and robustness tests for TRUST wire messages. */

#include <gtest/gtest.h>

#include "trust/messages.hh"

namespace {

using namespace trust::trust; // test-local: exercise the whole module
using trust::core::Bytes;

TEST(Messages, PeekKind)
{
    RegistrationRequest request{0, "www.x.com", "alice"};
    EXPECT_EQ(peekKind(request.serialize()),
              MsgKind::RegistrationRequest);
    EXPECT_FALSE(peekKind({}).has_value());
    EXPECT_FALSE(peekKind({0}).has_value());
    EXPECT_FALSE(peekKind({99}).has_value());
    const auto last = static_cast<std::uint8_t>(kLastMsgKind);
    EXPECT_EQ(peekKind({last}), kLastMsgKind);
    EXPECT_FALSE(
        peekKind({static_cast<std::uint8_t>(last + 1)}).has_value());
}

TEST(Messages, RegistrationRequestRoundTrip)
{
    RegistrationRequest in{7, "www.x.com", "alice"};
    const auto out = RegistrationRequest::deserialize(in.serialize());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->domain, "www.x.com");
    EXPECT_EQ(out->account, "alice");
}

TEST(Messages, RegistrationPageRoundTrip)
{
    RegistrationPage in;
    in.domain = "www.x.com";
    in.nonce = Bytes(16, 7);
    in.pageContent = Bytes{1, 2, 3};
    in.serverCert = Bytes{4, 5};
    in.signature = Bytes(64, 9);
    const auto out = RegistrationPage::deserialize(in.serialize());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->nonce, in.nonce);
    EXPECT_EQ(out->signedBody(), in.signedBody());
    EXPECT_EQ(out->signature, in.signature);
}

TEST(Messages, SignedBodyExcludesSignature)
{
    RegistrationPage a;
    a.domain = "www.x.com";
    a.nonce = Bytes(16, 7);
    RegistrationPage b = a;
    b.signature = Bytes(64, 1);
    EXPECT_EQ(a.signedBody(), b.signedBody());
    EXPECT_NE(a.serialize(), b.serialize());
}

TEST(Messages, RegistrationSubmitRoundTrip)
{
    RegistrationSubmit in;
    in.domain = "www.x.com";
    in.account = "alice";
    in.nonce = Bytes(16, 1);
    in.deviceCert = Bytes{1};
    in.userPublicKey = Bytes{2, 3};
    in.frameHash = Bytes(32, 4);
    in.signature = Bytes(64, 5);
    const auto out = RegistrationSubmit::deserialize(in.serialize());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->frameHash, in.frameHash);
    EXPECT_EQ(out->signedBody(), in.signedBody());
}

TEST(Messages, LoginFlowRoundTrips)
{
    LoginRequest lr{0, "www.x.com", "alice"};
    EXPECT_TRUE(LoginRequest::deserialize(lr.serialize()).has_value());

    LoginPage lp;
    lp.domain = "www.x.com";
    lp.nonce = Bytes(16, 2);
    lp.pageContent = Bytes(100, 3);
    lp.signature = Bytes(64, 4);
    const auto lp2 = LoginPage::deserialize(lp.serialize());
    ASSERT_TRUE(lp2.has_value());
    EXPECT_EQ(lp2->pageContent, lp.pageContent);

    LoginSubmit ls;
    ls.domain = "www.x.com";
    ls.account = "alice";
    ls.nonce = Bytes(16, 2);
    ls.encSessionKey = Bytes(64, 5);
    ls.frameHash = Bytes(32, 6);
    ls.riskMatched = 3;
    ls.riskWindow = 8;
    ls.mac = Bytes(32, 7);
    const auto ls2 = LoginSubmit::deserialize(ls.serialize());
    ASSERT_TRUE(ls2.has_value());
    EXPECT_EQ(ls2->riskMatched, 3u);
    EXPECT_EQ(ls2->riskWindow, 8u);
    EXPECT_EQ(ls2->macBody(), ls.macBody());
}

TEST(Messages, ContentAndPageRequestRoundTrips)
{
    ContentPage cp;
    cp.domain = "www.x.com";
    cp.sessionId = 42;
    cp.nonce = Bytes(16, 1);
    cp.pageContent = Bytes(200, 2);
    cp.mac = Bytes(32, 3);
    const auto cp2 = ContentPage::deserialize(cp.serialize());
    ASSERT_TRUE(cp2.has_value());
    EXPECT_EQ(cp2->sessionId, 42u);

    PageRequest pr;
    pr.domain = "www.x.com";
    pr.account = "alice";
    pr.sessionId = 42;
    pr.nonce = Bytes(16, 1);
    pr.action = "inbox";
    pr.frameHash = Bytes(32, 4);
    pr.riskMatched = 2;
    pr.riskWindow = 8;
    pr.mac = Bytes(32, 5);
    const auto pr2 = PageRequest::deserialize(pr.serialize());
    ASSERT_TRUE(pr2.has_value());
    EXPECT_EQ(pr2->action, "inbox");
    EXPECT_EQ(pr2->macBody(), pr.macBody());
}

TEST(Messages, ErrorReplyRoundTrip)
{
    ErrorReply in{0, "www.x.com", "stale-nonce"};
    const auto out = ErrorReply::deserialize(in.serialize());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->reason, "stale-nonce");
}

TEST(Messages, ServerBusyRoundTrip)
{
    ServerBusy in{17, "www.x.com", trust::core::milliseconds(250)};
    const Bytes wire = in.serialize();
    EXPECT_EQ(peekKind(wire), MsgKind::ServerBusy);
    const auto out = ServerBusy::deserialize(wire);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->requestId, 17u);
    EXPECT_EQ(out->domain, "www.x.com");
    EXPECT_EQ(out->retryAfter, trust::core::milliseconds(250));
    // Every strict prefix is rejected without a panic.
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        const Bytes truncated(wire.begin(),
                              wire.begin() + static_cast<long>(cut));
        EXPECT_FALSE(ServerBusy::deserialize(truncated).has_value());
    }
}

TEST(Messages, WrongKindRejected)
{
    RegistrationRequest request{0, "www.x.com", "alice"};
    EXPECT_FALSE(
        LoginRequest::deserialize(request.serialize()).has_value());
}

TEST(Messages, TruncationRejected)
{
    PageRequest pr;
    pr.domain = "www.x.com";
    pr.nonce = Bytes(16, 1);
    pr.mac = Bytes(32, 5);
    Bytes wire = pr.serialize();
    for (std::size_t cut :
         {wire.size() - 1, wire.size() / 2, std::size_t{1}}) {
        Bytes truncated(wire.begin(),
                        wire.begin() + static_cast<long>(cut));
        EXPECT_FALSE(PageRequest::deserialize(truncated).has_value())
            << "cut=" << cut;
    }
}

TEST(Messages, TrailingJunkRejected)
{
    ContentPage cp;
    cp.domain = "www.x.com";
    cp.nonce = Bytes(16, 1);
    cp.mac = Bytes(32, 3);
    Bytes wire = cp.serialize();
    wire.push_back(0);
    EXPECT_FALSE(ContentPage::deserialize(wire).has_value());
}

TEST(Messages, MacBodyCoversRiskFields)
{
    PageRequest a, b;
    a.domain = b.domain = "www.x.com";
    a.riskMatched = 0;
    b.riskMatched = 8; // malware inflating its risk claim
    EXPECT_NE(a.macBody(), b.macBody());
}

TEST(Messages, RequestIdRoundTripsAndPeeks)
{
    RegistrationRequest rr{77, "www.x.com", "alice"};
    const Bytes wire = rr.serialize();
    EXPECT_EQ(peekRequestId(wire), 77u);
    const auto out = RegistrationRequest::deserialize(wire);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->requestId, 77u);

    PageRequest pr;
    pr.requestId = 0xDEADBEEFCAFEULL;
    pr.domain = "www.x.com";
    pr.nonce = Bytes(16, 1);
    pr.mac = Bytes(32, 2);
    EXPECT_EQ(peekRequestId(pr.serialize()), 0xDEADBEEFCAFEULL);

    // Truncated before the id completes: no value, no crash.
    EXPECT_FALSE(peekRequestId({}).has_value());
    EXPECT_FALSE(
        peekRequestId({static_cast<std::uint8_t>(1), 1, 2}).has_value());
}

TEST(Messages, RequestIdCoveredByAuthenticatedBodies)
{
    LoginSubmit a, b;
    a.domain = b.domain = "www.x.com";
    a.requestId = 1;
    b.requestId = 2; // an attacker re-labelling a captured submit
    EXPECT_NE(a.macBody(), b.macBody());

    RegistrationPage pa, pb;
    pa.domain = pb.domain = "www.x.com";
    pa.requestId = 1;
    pb.requestId = 2;
    EXPECT_NE(pa.signedBody(), pb.signedBody());
}

/**
 * Build one representative, fully-populated instance of every
 * message type, so sweeps cover each field's decoder.
 */
std::vector<Bytes>
allMessageWires()
{
    std::vector<Bytes> wires;

    RegistrationRequest rr{1, "www.x.com", "alice"};
    wires.push_back(rr.serialize());

    RegistrationPage rp;
    rp.requestId = 2;
    rp.domain = "www.x.com";
    rp.nonce = Bytes(16, 7);
    rp.pageContent = Bytes(64, 1);
    rp.serverCert = Bytes(48, 2);
    rp.signature = Bytes(64, 3);
    wires.push_back(rp.serialize());

    RegistrationSubmit rs;
    rs.requestId = 3;
    rs.domain = "www.x.com";
    rs.account = "alice";
    rs.nonce = Bytes(16, 4);
    rs.deviceCert = Bytes(48, 5);
    rs.userPublicKey = Bytes(32, 6);
    rs.frameHash = Bytes(32, 7);
    rs.signature = Bytes(64, 8);
    wires.push_back(rs.serialize());

    RegistrationResult result;
    result.requestId = 4;
    result.domain = "www.x.com";
    result.account = "alice";
    result.ok = true;
    result.reason = "ok";
    wires.push_back(result.serialize());

    LoginRequest lr{5, "www.x.com", "alice"};
    wires.push_back(lr.serialize());

    LoginPage lp;
    lp.requestId = 6;
    lp.domain = "www.x.com";
    lp.nonce = Bytes(16, 9);
    lp.pageContent = Bytes(64, 10);
    lp.signature = Bytes(64, 11);
    wires.push_back(lp.serialize());

    LoginSubmit ls;
    ls.requestId = 7;
    ls.domain = "www.x.com";
    ls.account = "alice";
    ls.nonce = Bytes(16, 12);
    ls.encSessionKey = Bytes(64, 13);
    ls.frameHash = Bytes(32, 14);
    ls.riskMatched = 2;
    ls.riskWindow = 8;
    ls.mac = Bytes(32, 15);
    wires.push_back(ls.serialize());

    ContentPage cp;
    cp.requestId = 8;
    cp.domain = "www.x.com";
    cp.sessionId = 42;
    cp.nonce = Bytes(16, 16);
    cp.pageContent = Bytes(128, 17);
    cp.mac = Bytes(32, 18);
    wires.push_back(cp.serialize());

    PageRequest pr;
    pr.requestId = 9;
    pr.domain = "www.x.com";
    pr.account = "alice";
    pr.sessionId = 42;
    pr.nonce = Bytes(16, 19);
    pr.action = "inbox";
    pr.frameHash = Bytes(32, 20);
    pr.riskMatched = 2;
    pr.riskWindow = 8;
    pr.mac = Bytes(32, 21);
    wires.push_back(pr.serialize());

    ErrorReply er{10, "www.x.com", "stale-nonce"};
    wires.push_back(er.serialize());

    ServerBusy sb{11, "www.x.com", trust::core::milliseconds(750)};
    wires.push_back(sb.serialize());

    CrlMessage crl;
    crl.requestId = 12;
    crl.issuer = "TrustRootCA";
    crl.crlSeq = 3;
    crl.revokedSerials = {101, 202, 303};
    crl.signature = Bytes(64, 22);
    wires.push_back(crl.serialize());

    CrlAck ack{13, "www.x.com", 3, 3};
    wires.push_back(ack.serialize());

    ResetRequest reset;
    reset.requestId = 14;
    reset.domain = "www.x.com";
    reset.account = "alice";
    reset.authSeq = 5;
    reset.signature = Bytes(64, 23);
    wires.push_back(reset.serialize());

    return wires;
}

/** Decode @p wire with the decoder of @p kind; true if it accepts. */
bool
decodesAs(MsgKind kind, const Bytes &wire)
{
    switch (kind) {
      case MsgKind::RegistrationRequest:
        return RegistrationRequest::deserialize(wire).has_value();
      case MsgKind::RegistrationPage:
        return RegistrationPage::deserialize(wire).has_value();
      case MsgKind::RegistrationSubmit:
        return RegistrationSubmit::deserialize(wire).has_value();
      case MsgKind::RegistrationResult:
        return RegistrationResult::deserialize(wire).has_value();
      case MsgKind::LoginRequest:
        return LoginRequest::deserialize(wire).has_value();
      case MsgKind::LoginPage:
        return LoginPage::deserialize(wire).has_value();
      case MsgKind::LoginSubmit:
        return LoginSubmit::deserialize(wire).has_value();
      case MsgKind::ContentPage:
        return ContentPage::deserialize(wire).has_value();
      case MsgKind::PageRequest:
        return PageRequest::deserialize(wire).has_value();
      case MsgKind::ErrorReply:
        return ErrorReply::deserialize(wire).has_value();
      case MsgKind::ServerBusy:
        return ServerBusy::deserialize(wire).has_value();
      case MsgKind::CrlMessage:
        return CrlMessage::deserialize(wire).has_value();
      case MsgKind::CrlAck:
        return CrlAck::deserialize(wire).has_value();
      case MsgKind::ResetRequest:
        return ResetRequest::deserialize(wire).has_value();
    }
    return false;
}

/** Try every typed decoder; none may crash. */
void
decodeAll(const Bytes &wire)
{
    for (int k = 1; k <= static_cast<int>(kLastMsgKind); ++k)
        (void)decodesAs(static_cast<MsgKind>(k), wire);
}

TEST(MessagesHardening, EveryTypeSurvivesEveryTruncation)
{
    const std::vector<Bytes> wires = allMessageWires();
    ASSERT_EQ(wires.size(), static_cast<std::size_t>(kLastMsgKind));
    for (const Bytes &wire : wires) {
        const auto kind = peekKind(wire);
        ASSERT_TRUE(kind.has_value());
        // Each message round-trips whole...
        decodeAll(wire);
        EXPECT_TRUE(decodesAs(*kind, wire))
            << "kind " << static_cast<int>(*kind);
        // ...and every strict prefix is rejected by its own decoder.
        for (std::size_t cut = 0; cut < wire.size(); ++cut) {
            const Bytes truncated(
                wire.begin(),
                wire.begin() + static_cast<long>(cut));
            decodeAll(truncated);
            EXPECT_FALSE(decodesAs(*kind, truncated))
                << "kind " << static_cast<int>(*kind) << " cut=" << cut;
        }
    }
}

TEST(MessagesHardening, EveryTypeSurvivesSingleBitFlips)
{
    for (const Bytes &wire : allMessageWires()) {
        for (std::size_t byte = 0; byte < wire.size(); ++byte) {
            for (int bit = 0; bit < 8; ++bit) {
                Bytes flipped = wire;
                flipped[byte] ^=
                    static_cast<std::uint8_t>(1u << bit);
                decodeAll(flipped); // must not crash or throw
            }
        }
    }
}

} // namespace
