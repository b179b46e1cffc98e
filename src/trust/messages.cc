#include "trust/messages.hh"

namespace trust::trust {

namespace {

/**
 * The authenticated body of @p m: kind byte, request id (unless
 * @p with_request_id is false), then M::fields() in order. A CRL or
 * reset authorization leaves the request id out so one signed
 * artifact can be redelivered under fresh ids.
 */
template <class M>
core::ByteWriter
writeBody(const M &m, bool with_request_id = true)
{
    core::ByteWriter w;
    w.writeU8(static_cast<std::uint8_t>(M::kKind));
    if (with_request_id)
        w.writeU64(m.requestId);
    w.putFields(m);
    return w;
}

/** The full wire payload: the body, then the auth field if any. */
template <class M>
core::Bytes
encode(const M &m)
{
    core::ByteWriter w = writeBody(m);
    if constexpr (requires { M::kAuth; })
        w.put(m.*M::kAuth);
    return w.take();
}

/** Total inverse of encode(): nullopt on a wrong kind byte, a short
 *  read, or trailing bytes. */
// trustlint: untrusted-input
template <class M>
std::optional<M>
decode(const core::Bytes &payload)
{
    core::ByteReader r(payload);
    if (r.readU8() != static_cast<std::uint8_t>(M::kKind))
        return std::nullopt;
    M m;
    m.requestId = r.readU64();
    r.getFields(m);
    if constexpr (requires { M::kAuth; })
        r.get(m.*M::kAuth);
    if (!r.ok() || !r.atEnd())
        return std::nullopt;
    return m;
}

} // namespace

// trustlint: untrusted-input
std::optional<MsgKind>
peekKind(const core::Bytes &payload)
{
    if (payload.empty())
        return std::nullopt;
    const std::uint8_t k = payload[0];
    if (k < 1 || k > static_cast<std::uint8_t>(kLastMsgKind))
        return std::nullopt;
    return static_cast<MsgKind>(k);
}

// trustlint: untrusted-input
std::optional<std::uint64_t>
peekRequestId(const core::Bytes &payload)
{
    if (!peekKind(payload))
        return std::nullopt;
    core::ByteReader r(payload);
    r.readU8();
    const std::uint64_t id = r.readU64();
    if (!r.ok())
        return std::nullopt;
    return id;
}

// --- RegistrationRequest -------------------------------------------------

core::Bytes
RegistrationRequest::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<RegistrationRequest>
RegistrationRequest::deserialize(const core::Bytes &payload)
{
    return decode<RegistrationRequest>(payload);
}

// --- RegistrationPage ----------------------------------------------------

core::Bytes
RegistrationPage::signedBody() const
{
    return writeBody(*this).take();
}

core::Bytes
RegistrationPage::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<RegistrationPage>
RegistrationPage::deserialize(const core::Bytes &payload)
{
    return decode<RegistrationPage>(payload);
}

// --- RegistrationSubmit --------------------------------------------------

core::Bytes
RegistrationSubmit::signedBody() const
{
    return writeBody(*this).take();
}

core::Bytes
RegistrationSubmit::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<RegistrationSubmit>
RegistrationSubmit::deserialize(const core::Bytes &payload)
{
    return decode<RegistrationSubmit>(payload);
}

// --- RegistrationResult --------------------------------------------------

core::Bytes
RegistrationResult::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<RegistrationResult>
RegistrationResult::deserialize(const core::Bytes &payload)
{
    return decode<RegistrationResult>(payload);
}

// --- LoginRequest ---------------------------------------------------------

core::Bytes
LoginRequest::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<LoginRequest>
LoginRequest::deserialize(const core::Bytes &payload)
{
    return decode<LoginRequest>(payload);
}

// --- LoginPage --------------------------------------------------------------

core::Bytes
LoginPage::signedBody() const
{
    return writeBody(*this).take();
}

core::Bytes
LoginPage::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<LoginPage>
LoginPage::deserialize(const core::Bytes &payload)
{
    return decode<LoginPage>(payload);
}

// --- LoginSubmit ------------------------------------------------------------

core::Bytes
LoginSubmit::macBody() const
{
    return writeBody(*this).take();
}

core::Bytes
LoginSubmit::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<LoginSubmit>
LoginSubmit::deserialize(const core::Bytes &payload)
{
    return decode<LoginSubmit>(payload);
}

// --- ContentPage ------------------------------------------------------------

core::Bytes
ContentPage::macBody() const
{
    return writeBody(*this).take();
}

core::Bytes
ContentPage::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<ContentPage>
ContentPage::deserialize(const core::Bytes &payload)
{
    return decode<ContentPage>(payload);
}

// --- PageRequest ------------------------------------------------------------

core::Bytes
PageRequest::macBody() const
{
    return writeBody(*this).take();
}

core::Bytes
PageRequest::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<PageRequest>
PageRequest::deserialize(const core::Bytes &payload)
{
    return decode<PageRequest>(payload);
}

// --- ErrorReply -------------------------------------------------------------

core::Bytes
ErrorReply::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<ErrorReply>
ErrorReply::deserialize(const core::Bytes &payload)
{
    return decode<ErrorReply>(payload);
}

// --- ServerBusy --------------------------------------------------------------

core::Bytes
ServerBusy::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<ServerBusy>
ServerBusy::deserialize(const core::Bytes &payload)
{
    return decode<ServerBusy>(payload);
}

// --- CrlMessage --------------------------------------------------------------

core::Bytes
CrlMessage::signedBody() const
{
    return writeBody(*this, /*with_request_id=*/false).take();
}

core::Bytes
CrlMessage::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<CrlMessage>
CrlMessage::deserialize(const core::Bytes &payload)
{
    return decode<CrlMessage>(payload);
}

// --- CrlAck ------------------------------------------------------------------

core::Bytes
CrlAck::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<CrlAck>
CrlAck::deserialize(const core::Bytes &payload)
{
    return decode<CrlAck>(payload);
}

// --- ResetRequest ------------------------------------------------------------

core::Bytes
ResetRequest::signedBody() const
{
    return writeBody(*this, /*with_request_id=*/false).take();
}

core::Bytes
ResetRequest::serialize() const
{
    return encode(*this);
}

// trustlint: untrusted-input
std::optional<ResetRequest>
ResetRequest::deserialize(const core::Bytes &payload)
{
    return decode<ResetRequest>(payload);
}

} // namespace trust::trust
