/**
 * @file
 * browse: continuous-auth serving (Fig. 10) with closed-loop clients.
 *
 * Up to four clients (never more than the host's cores), each on its
 * own thread with its own EventQueue, Network and MobileDevice, share
 * one WebServer backed by a TrustStore with the default policy. The
 * benchmark installs the server endpoint handler itself (handleTimed
 * + send) so that server time can be measured. Op: one touch -> page
 * round trip, MobileDevice::onTouch plus queue.run().
 *
 * Page tags are a Zipf draw over a hot catalog that fits the
 * server's page cache, plus a fixed share of never-seen pages that
 * force a render + hash of every standard view. The share is chosen
 * so p50 sits in the cache-hit mode and p99 well inside the miss
 * mode, never on the boundary between them.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <barrier>
#include <memory>
#include <optional>
#include <thread>

#include "core/parallel.hh"
#include "core/rng.hh"
#include "core/wal/storage.hh"
#include "crypto/cert.hh"
#include "crypto/csprng.hh"
#include "crypto/mont_cache.hh"
#include "fingerprint/synthesis.hh"
#include "net/network.hh"
#include "touch/behavior.hh"
#include "touch/session.hh"
#include "touch/ui.hh"
#include "trust/device.hh"
#include "trust/scenario.hh"
#include "trust/server.hh"
#include "trust/store.hh"

#include "workloads.hh"

namespace repobench {

namespace tt = trust::trust;
namespace core = trust::core;

namespace {

constexpr int kMaxClients = 4;
constexpr int kHotPages = 32;
/** Share of requests for never-seen pages (each one a cache miss). */
constexpr double kFreshShare = 0.035;
/** WebServer's FIFO page-cache capacity (server.hh). */
constexpr int kServerPageCache = 256;
/** Nominal round trips per client per second (sizes the op budget). */
constexpr int kOpsPerClientSecond = 75;
/** About 1 s of recoveries, a probe point every kRecoverProbeEvery. */
constexpr int kRecoveries = 256;
constexpr int kRecoverProbeEvery = 32;
const char *const kDomain = "www.bench.com";
const char *const kStoreName = "server";
constexpr std::uint64_t kCohortSeed = 20121201;
/**
 * The timed phase runs in this many blocks. All clients meet at a
 * barrier before, between and after the blocks, and the host-speed
 * probe runs there while no client does.
 */
constexpr std::size_t kBlocks = 10;

struct Client
{
    int index = 0;
    std::string name;
    std::string account;
    core::EventQueue queue;
    trust::net::Network network;
    std::optional<trust::touch::UserBehavior> behavior;
    std::optional<trust::fingerprint::MasterFinger> finger;
    std::unique_ptr<tt::MobileDevice> device;
    core::Rng cohort; ///< Fixed: the user, finger, screen and keys.
    core::Rng rng;    ///< From the seed: the traffic.

    /** Timed-phase inputs, one per op. */
    std::vector<trust::touch::TouchEvent> touches;
    std::vector<char> fresh;

    /** Trace of the op in flight (null when untraced). */
    Trace *active = nullptr;
    Trace trace;
    std::vector<double> serverMs; ///< handleTimed, traced ops.

    Client(int idx, std::uint64_t seed)
        : index(idx), name("bench-phone-" + std::to_string(idx)),
          account("user" + std::to_string(idx)), network(queue),
          cohort(kCohortSeed + static_cast<std::uint64_t>(idx)),
          rng(seed * 0x9E3779B97F4A7C15ull + 0x100000001B3ull * (idx + 1)),
          trace(static_cast<std::uint32_t>(idx))
    {
    }
};

struct State
{
    core::wal::SimulatedStorage storage;
    std::unique_ptr<trust::crypto::Csprng> caRng;
    std::unique_ptr<trust::crypto::CertificateAuthority> ca;
    std::unique_ptr<tt::TrustStore> store;
    std::unique_ptr<tt::WebServer> server;
    std::vector<std::unique_ptr<Client>> clients;
};

/** Run @p fn(i) for every client on its own thread and join. */
template <typename Fn>
void
onClientThreads(std::size_t n, Fn fn)
{
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < n; ++i)
        threads.emplace_back([&fn, i] { fn(i); });
    for (auto &t : threads)
        t.join();
}

/** Zipf(1) rank over the hot catalog. */
int
hotRank(core::Rng &rng)
{
    static const std::vector<double> cdf = [] {
        std::vector<double> c;
        double total = 0.0;
        for (int r = 1; r <= kHotPages; ++r)
            c.push_back(total += 1.0 / r);
        for (double &x : c)
            x /= total;
        return c;
    }();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
    return static_cast<int>(std::min<std::ptrdiff_t>(
        it - cdf.begin(), kHotPages - 1));
}

/**
 * Never-seen pages per client: kFreshShare of the ops, capped so the
 * hot catalog plus every fresh page fits the server's FIFO page cache.
 * A fresh page then never evicts a hot one, and the miss count is the
 * same on every run of a seed, whatever the thread interleaving.
 */
int
freshPages(int clients, int ops_per_client)
{
    const int share = static_cast<int>(
        std::lround(kFreshShare * static_cast<double>(ops_per_client)));
    return std::min(share, (kServerPageCache - kHotPages) / clients);
}

/** How one round trip ended. */
enum class Reply
{
    Page,       ///< Verified content page.
    TypedError, ///< Typed ErrorReply (risk and other rejections).
    Broken,     ///< Anything else: a correctness-gate failure.
};

Reply
roundTrip(Client &c, const trust::touch::TouchEvent &event, Trace *t,
          std::uint64_t op)
{
    const std::uint64_t pages = c.device->pagesReceived();
    const std::uint64_t errors =
        c.device->counters().get("server-error-reply");
    c.active = t;
    {
        Scope rt(t, SpanName::RoundTrip, op);
        {
            Scope s(t, SpanName::DeviceRequest, op);
            c.device->onTouch(event, &*c.finger);
        }
        Scope s(t, SpanName::DeviceReply, op);
        c.queue.run();
    }
    c.active = nullptr;
    if (c.device->pagesReceived() == pages + 1 &&
        c.device->lastError() == tt::OpError::None)
        return Reply::Page;
    if (c.device->counters().get("server-error-reply") == errors + 1 &&
        c.device->lastError() == tt::OpError::ServerError)
        return Reply::TypedError;
    return Reply::Broken;
}

std::unique_ptr<State>
setup(std::uint64_t seed, int clients, int ops_per_client, bool *ok)
{
    trust::crypto::clearMontgomeryCache();
    auto s = std::make_unique<State>();
    // The cohort (CA, server and device keys, users, fingers, sensor
    // placement) is fixed; the seed draws the traffic, so runs on
    // different seeds measure the same deployment.
    s->caRng = std::make_unique<trust::crypto::Csprng>(kCohortSeed);
    s->ca = std::make_unique<trust::crypto::CertificateAuthority>(
        "TrustRootCA", 512, *s->caRng);
    s->store = std::make_unique<tt::TrustStore>(s->storage, kStoreName);
    s->store->recover();
    s->server =
        std::make_unique<tt::WebServer>(kDomain, *s->ca, kCohortSeed + 99);
    s->server->attachStore(s->store.get());

    for (int i = 0; i < clients; ++i)
        s->clients.push_back(std::make_unique<Client>(i, seed));

    // Channel-private provisioning runs one thread per client:
    // behaviour, finger, sensor placement and FLock key generation.
    std::vector<std::optional<trust::hw::BiometricTouchscreen>> screens(
        s->clients.size());
    std::vector<std::optional<tt::FlockModule>> flocks(s->clients.size());
    onClientThreads(s->clients.size(), [&](std::size_t i) {
        Client &c = *s->clients[i];
        const std::uint64_t uid = i + 1;
        c.behavior.emplace(trust::touch::UserBehavior::forUser(
            uid, {trust::touch::homeScreenLayout(),
                  trust::touch::keyboardLayout(),
                  trust::touch::browserLayout()}));
        c.finger.emplace(
            trust::fingerprint::synthesizeFinger(uid, c.cohort));
        screens[i].emplace(tt::makeOptimizedScreen(*c.behavior, 4, 7.0,
                                                   c.cohort.next()));
        flocks[i].emplace(c.name + "-flock", s->ca->rootKey(),
                          c.cohort.next());
    });

    // Certificate issue touches the CA's serial counter: in order.
    for (std::size_t i = 0; i < s->clients.size(); ++i) {
        Client &c = *s->clients[i];
        flocks[i]->installDeviceCertificate(s->ca->issue(
            c.name + "-flock", trust::crypto::CertRole::FlockDevice,
            flocks[i]->devicePublicKey()));
        c.device = std::make_unique<tt::MobileDevice>(
            c.name, std::move(*screens[i]), std::move(*flocks[i]),
            c.rng.next());
        c.device->attachToNetwork(c.network);
        Client *cp = &c;
        tt::WebServer *server = s->server.get();
        c.network.attach(kDomain, [cp, server](
                                      const trust::net::Message &m) {
            Trace *t = cp->active;
            if (t)
                t->begin(SpanName::ServerHandle, 0);
            tt::HandleResult handled =
                server->handleTimed(m.payload, m.from, cp->queue.now());
            if (t)
                cp->serverMs.push_back(static_cast<double>(t->end()) *
                                       1e-6);
            cp->network.send(server->domain(), m.from, handled.reply);
        });
    }

    std::atomic<bool> enrolled{true};
    onClientThreads(s->clients.size(), [&](std::size_t i) {
        Client &c = *s->clients[i];
        if (!c.device->enrollOwner(*c.finger))
            enrolled = false;
    });
    if (!enrolled)
        *ok = false;

    // Registration and login in client order, so session ids and the
    // server's state are the same on every run of a seed.
    for (auto &cp : s->clients) {
        Client &c = *cp;
        const tt::SessionOutcome session = tt::runBrowsingSession(
            c.queue, *c.device, *s->server, *c.behavior, *c.finger, c.rng,
            0, c.account);
        if (!session.loggedIn)
            *ok = false;
    }

    // Inputs: natural touch positions; the page each touch opens is
    // a Zipf draw over the hot catalog, except for exactly freshPages()
    // seeded positions that ask for a page nobody has asked for.
    const int warm_touches = 4 * kHotPages;
    const int fresh_per_client = freshPages(clients, ops_per_client);
    for (auto &cp : s->clients) {
        Client &c = *cp;
        c.touches = trust::touch::generateSession(
            *c.behavior, c.rng, c.queue.now() + core::seconds(1),
            ops_per_client + warm_touches);
        c.fresh.assign(c.touches.size(), 0);
        std::vector<int> order(static_cast<std::size_t>(ops_per_client));
        for (int k = 0; k < ops_per_client; ++k)
            order[static_cast<std::size_t>(k)] = warm_touches + k;
        for (int f = 0; f < fresh_per_client; ++f) {
            const auto pick = static_cast<std::size_t>(
                c.rng.uniformInt(f, ops_per_client - 1));
            std::swap(order[static_cast<std::size_t>(f)], order[pick]);
            c.fresh[static_cast<std::size_t>(
                order[static_cast<std::size_t>(f)])] = 1;
        }
        for (std::size_t k = 0; k < c.touches.size(); ++k)
            c.touches[k].target =
                c.fresh[k] ? "fresh-" + std::to_string(c.index) + "-" +
                                 std::to_string(k)
                           : "hot-" + std::to_string(hotRank(c.rng));
    }

    // Warm the page cache: each client fetches its share of the hot
    // catalog, retrying a page the risk policy refused. A page still
    // refused after the warm-up budget is served cold later.
    std::atomic<bool> warm_ok{true};
    onClientThreads(s->clients.size(), [&](std::size_t i) {
        Client &c = *s->clients[i];
        std::size_t k = 0;
        for (int page = static_cast<int>(i); page < kHotPages;
             page += static_cast<int>(s->clients.size())) {
            Reply r = Reply::TypedError;
            while (r != Reply::Page &&
                   k < static_cast<std::size_t>(warm_touches)) {
                auto event = c.touches[k++];
                event.target = "hot-" + std::to_string(page);
                r = roundTrip(c, event, nullptr, 0);
                if (r == Reply::Broken)
                    warm_ok = false;
            }
        }
        c.touches.erase(c.touches.begin(),
                        c.touches.begin() + warm_touches);
        c.fresh.erase(c.fresh.begin(), c.fresh.begin() + warm_touches);
    });
    if (!warm_ok)
        *ok = false;
    return s;
}

std::uint64_t
pageVerdicts(const tt::WebServer &server)
{
    std::uint64_t n = 0;
    const trust::core::CounterSet counters = server.counters();
    for (const auto &[name, value] : counters.all())
        if (name == "request-accepted" ||
            name.rfind("request-rejected:", 0) == 0)
            n += value;
    return n;
}

} // namespace

Outcome
runBrowse(const Options &options)
{
    Outcome out;
    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    const int clients = std::min(kMaxClients, nproc);
    const int ops_per_client =
        options.smoke ? 96 : options.seconds * kOpsPerClientSecond;
    // Matching and hashing run inline on each client's thread.
    core::setParallelThreads(1);

    bool setup_ok = true;
    std::unique_ptr<State> state;
    const ProbedSeries setup_s = repeatedSetup<std::unique_ptr<State>>(
        options.smoke ? 1 : kSetupRepeats,
        [&] {
            return setup(options.seed, clients, ops_per_client, &setup_ok);
        },
        state);
    if (!setup_ok)
        out.fail("setup: enrollment, login or page warm-up failed");
    tt::WebServer &server = *state->server;
    tt::TrustStore &store = *state->store;

    const std::uint64_t verdicts0 = pageVerdicts(server);
    const std::uint64_t risk0 = server.counters().get("request-rejected:risk");
    const std::size_t audit0 = server.auditLogSize();
    const std::uint64_t wal0 = store.walBytesAppended();
    const std::uint64_t snaps0 = store.snapshotsWritten();
    std::uint64_t bytes0 = 0, msgs0 = 0;
    for (auto &c : state->clients) {
        bytes0 += c->network.bytesSent();
        msgs0 += c->network.messagesSent();
    }

    struct PerClient
    {
        std::vector<double> latencyMs, tracedMs, untracedMs;
        std::uint64_t ok = 0, typed = 0, broken = 0, fresh = 0;
    };
    std::vector<PerClient> per(state->clients.size());
    const std::size_t block = std::max<std::size_t>(
        1, static_cast<std::size_t>(ops_per_client) / kBlocks);

    // Each barrier's completion step runs while every client waits:
    // it moves the block's latencies into the series and probes, which
    // closes the block that just ended and opens the next.
    TimedPhase phase;
    std::vector<std::size_t> collected(per.size(), 0);
    auto between_blocks = [&]() noexcept {
        for (std::size_t i = 0; i < per.size(); ++i) {
            const std::vector<double> &ms = per[i].latencyMs;
            for (std::size_t k = collected[i]; k < ms.size(); ++k)
                phase.latencyMs.add(ms[k]);
            collected[i] = ms.size();
        }
        phase.latencyMs.probe();
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(state->clients.size()),
                      between_blocks);

    onClientThreads(state->clients.size(), [&](std::size_t i) {
        Client &c = *state->clients[i];
        PerClient &p = per[i];
        p.latencyMs.reserve(c.touches.size());
        for (std::size_t k = 0; k < c.touches.size(); ++k) {
            if (k % block == 0)
                sync.arrive_and_wait();
            const bool traced = opIsTraced(options.trace, k);
            const std::int64_t t0 = nowNs();
            const Reply r =
                roundTrip(c, c.touches[k], traced ? &c.trace : nullptr,
                          k * kMaxClients + i);
            const double ms = static_cast<double>(nowNs() - t0) * 1e-6;
            p.latencyMs.push_back(ms);
            (traced ? p.tracedMs : p.untracedMs).push_back(ms);
            p.fresh += c.fresh[k];
            if (r == Reply::Page)
                ++p.ok;
            else if (r == Reply::TypedError)
                ++p.typed;
            else
                ++p.broken;
        }
        sync.arrive_and_wait();
    });

    std::uint64_t typed = 0, fresh = 0;
    std::vector<double> traced_ms, untraced_ms, server_ms;
    Trace trace;
    for (std::size_t i = 0; i < per.size(); ++i) {
        const PerClient &p = per[i];
        traced_ms.insert(traced_ms.end(), p.tracedMs.begin(),
                         p.tracedMs.end());
        untraced_ms.insert(untraced_ms.end(), p.untracedMs.begin(),
                           p.untracedMs.end());
        const Client &c = *state->clients[i];
        server_ms.insert(server_ms.end(), c.serverMs.begin(),
                         c.serverMs.end());
        trace.merge(c.trace);
        phase.ok += p.ok;
        phase.failed += p.broken;
        typed += p.typed;
        fresh += p.fresh;
    }
    phase.attempted = phase.latencyMs.raw().size();

    // Gate: every request got a verified page or a typed ErrorReply,
    // and the server's page verdicts add up to the requests sent.
    if (phase.failed > 0)
        out.fail(std::to_string(phase.failed) +
                 " round trips ended without a verified page or a typed "
                 "error");
    const std::uint64_t verdicts = pageVerdicts(server) - verdicts0;
    if (verdicts != phase.attempted)
        out.fail("server verdicts (" + std::to_string(verdicts) +
                 ") != requests sent (" +
                 std::to_string(phase.attempted) + ")");
    if (phase.ok + typed != phase.attempted)
        out.fail("replies do not add up to requests");

    // Recovery of the server's store from a crashed copy, on one
    // thread: the store is small, and a thread hand-off would dominate
    // it. The digest comparison runs outside the timed region.
    core::setParallelThreads(1);
    const std::string digest = store.stateDigest();
    core::wal::SimulatedStorage image = state->storage;
    image.crashClean();
    ProbedSeries recover_ms(Phase::Recover, 8);
    recover_ms.probe();
    const int recoveries = options.smoke ? 3 : kRecoveries;
    for (int r = 1; r <= recoveries; ++r) {
        core::wal::SimulatedStorage copy = image;
        const std::int64_t t0 = nowNs();
        tt::TrustStore recovered(copy, kStoreName);
        recovered.recover();
        recover_ms.add(static_cast<double>(nowNs() - t0) * 1e-6);
        if (r % kRecoverProbeEvery == 0 || r == recoveries)
            recover_ms.probe();
        if (recovered.stateDigest() != digest) {
            out.fail("recovered store digest differs from pre-crash");
            break;
        }
    }

    out.attempted = phase.attempted;
    out.failed = phase.failed;
    out.details["clients"] = clients;
    out.details["threads"] = clients;
    out.details["recovery_threads"] = 1;
    out.details["fresh_pages"] = static_cast<double>(fresh);
    out.details["typed_rejections"] = static_cast<double>(typed);
    if (!options.trace) {
        addEndToEnd(out, setup_s, phase, recover_ms);
        return out;
    }

    const auto ops = static_cast<double>(phase.attempted);
    std::uint64_t bytes = 0, msgs = 0;
    for (auto &c : state->clients) {
        bytes += c->network.bytesSent();
        msgs += c->network.messagesSent();
    }
    const SpanStats &rt = trace.stats(SpanName::RoundTrip);
    std::map<std::string, double> layer;
    layer["trust.device.request_ms"] =
        spanMeanMs(trace, SpanName::DeviceRequest);
    layer["trust.device.reply_ms"] = ratio(
        static_cast<double>(rt.selfNs +
                            trace.stats(SpanName::DeviceReply).selfNs) *
            1e-6,
        static_cast<double>(rt.count));
    layer["trust.server.handle_ms"] =
        spanMeanMs(trace, SpanName::ServerHandle);
    layer["trust.server.handle_p99_ms"] = percentile(server_ms, 0.99);
    layer["trust.server.fresh_page_frac"] =
        ratio(static_cast<double>(fresh), ops);
    layer["trust.server.audit_entries_per_req"] =
        ratio(static_cast<double>(server.auditLogSize() - audit0), ops);
    layer["trust.server.reject_risk_frac"] = ratio(
        static_cast<double>(server.counters().get("request-rejected:risk") -
                            risk0),
        ops);
    layer["net.wire_bytes_per_op"] =
        ratio(static_cast<double>(bytes - bytes0), ops);
    layer["net.messages_per_op"] =
        ratio(static_cast<double>(msgs - msgs0), ops);
    const double hits =
        static_cast<double>(trust::crypto::montgomeryCacheHits());
    layer["crypto.mont_cache_hit_frac"] = ratio(
        hits,
        hits + static_cast<double>(trust::crypto::montgomeryCacheMisses()));
    layer["trust.store.wal_bytes_per_op"] =
        ratio(static_cast<double>(store.walBytesAppended() - wal0), ops);
    layer["trust.store.snapshots"] =
        static_cast<double>(store.snapshotsWritten() - snaps0);
    layer["trust.store.log_mib"] =
        static_cast<double>(store.logBytes()) / (1024.0 * 1024.0);
    layer["trust.store.segments"] =
        static_cast<double>(store.segmentCount());
    addTraceOverhead(layer, traced_ms, untraced_ms, clients);
    layer["trace.spans"] = static_cast<double>(trace.spans().size());
    layer["host.probe_us"] = probeMedianNs(Phase::Timed) * 1e-3;
    layer["host.nproc"] = nproc;
    addPerLayer(out, layer);
    dumpTrace(options, trace);
    return out;
}

} // namespace repobench
