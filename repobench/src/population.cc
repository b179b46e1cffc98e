/**
 * @file
 * population: the persistent tier at scale.
 *
 * Setup enrolls N accounts (populationAccount/populationSession names)
 * into a fresh TrustStore with the default policy. Op: one churn
 * mutation drawn from a seeded Zipf stream with PopulationConfig's
 * mix (putSession 82%, eraseSession 6%, putAccount 12%, plus the
 * flash-crowd window), timed individually on one writer thread. The
 * run is long enough for compaction to cycle several times per
 * shard. Afterwards the store is crashed and recovered repeatedly on
 * up to four threads, each time from a fresh copy of the image.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "core/parallel.hh"
#include "core/rng.hh"
#include "core/wal/segment.hh"
#include "core/wal/storage.hh"
#include "core/wal/wal.hh"
#include "trust/fleet.hh"
#include "trust/store.hh"

#include "workloads.hh"

namespace repobench {

namespace tt = trust::trust;
namespace core = trust::core;

namespace {

/** Enrolled accounts: peak RSS stays at a few hundred MiB. */
constexpr std::size_t kAccounts = 100000;
constexpr std::size_t kSmokeAccounts = 5000;
/** Nominal mutations per second (sizes the op budget). */
constexpr std::uint64_t kOpsPerSecond = 200000;
constexpr int kRecoveries = 40;
constexpr int kRecoverProbeEvery = 4;
constexpr int kSerialRecoveries = 5;
const char *const kStoreName = "pop";
/** Mutations between host-speed probe points (about 0.8 s; see common.hh). */
constexpr std::uint64_t kProbeEvery = 262144;

enum class Kind : std::uint8_t
{
    PutSession,
    EraseSession,
    PutAccount,
};

struct Mutation
{
    Kind kind;
    std::uint32_t index;
    std::uint32_t generation;
};

struct State
{
    core::wal::SimulatedStorage storage;
    std::unique_ptr<tt::TrustStore> store;
};

/** Zipf(1) CDF over account ranks. */
std::vector<double>
zipfCdf(std::size_t n)
{
    std::vector<double> cdf;
    cdf.reserve(n);
    double total = 0.0;
    for (std::size_t r = 1; r <= n; ++r)
        cdf.push_back(total += 1.0 / static_cast<double>(r));
    for (double &c : cdf)
        c /= total;
    return cdf;
}

/**
 * The churn stream, mirroring PopulationConfig's defaults. A logout
 * drawn for an account with no live session becomes a login, so every
 * op is one real mutation.
 */
std::vector<Mutation>
churnStream(std::uint64_t seed, std::size_t accounts, std::uint64_t ops)
{
    const tt::PopulationConfig mix;
    core::Rng rng(seed ^ 0x5EEDC0DEull);
    const std::vector<double> cdf = zipfCdf(accounts);
    const std::size_t hot = std::max<std::size_t>(
        16, std::min(accounts, accounts / 1000 + 16));
    const auto crowd0 = static_cast<std::uint64_t>(
        mix.flashCrowdStartFraction * static_cast<double>(ops));
    const auto crowd1 = crowd0 + static_cast<std::uint64_t>(
                                     mix.flashCrowdLengthFraction *
                                     static_cast<double>(ops));
    const std::vector<double> weights = {mix.sessionRefreshWeight,
                                         mix.sessionEraseWeight,
                                         mix.accountRotateWeight};
    std::vector<std::uint32_t> generation(accounts, 0);
    std::vector<char> live(accounts, 1);
    std::vector<Mutation> stream;
    stream.reserve(ops);
    for (std::uint64_t e = 0; e < ops; ++e) {
        std::size_t index;
        if (e >= crowd0 && e < crowd1 && rng.chance(mix.flashCrowdBias)) {
            index = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(hot) - 1));
        } else {
            const auto it =
                std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
            index = std::min<std::size_t>(
                static_cast<std::size_t>(it - cdf.begin()), accounts - 1);
        }
        Kind kind = static_cast<Kind>(rng.weightedIndex(weights));
        if (kind == Kind::EraseSession && !live[index])
            kind = Kind::PutSession;
        live[index] = kind == Kind::EraseSession ? 0 : live[index];
        if (kind == Kind::PutSession)
            live[index] = 1;
        stream.push_back({kind, static_cast<std::uint32_t>(index),
                          ++generation[index]});
    }
    return stream;
}

core::Bytes
keyBytes(std::size_t index, std::uint32_t generation, std::size_t n)
{
    core::Bytes key(n);
    for (std::size_t j = 0; j < n; ++j)
        key[j] = static_cast<std::uint8_t>(
            (index * 131 + j * 17 + generation * 101 + 7) & 0xff);
    return key;
}

tt::StoredSession
sessionRow(std::size_t index, std::uint32_t generation)
{
    tt::StoredSession session;
    session.account = tt::populationAccount(index);
    session.sessionKey = keyBytes(index, generation * 2 + 1, 16);
    session.expectedNonce = keyBytes(index, generation * 2 + 2, 12);
    session.currentTag = 't';
    session.currentTag += std::to_string(generation & 0xff);
    session.lastRequestId = generation;
    return session;
}

std::unique_ptr<State>
setup(std::uint64_t seed, std::size_t accounts)
{
    auto s = std::make_unique<State>();
    s->store = std::make_unique<tt::TrustStore>(s->storage, kStoreName);
    s->store->recover();
    tt::PopulationConfig enroll;
    enroll.seed = seed;
    enroll.accounts = accounts;
    enroll.events = 0;
    (void)tt::runPopulation(*s->store, enroll);
    return s;
}

/** One recovery from a fresh copy of @p image; returns its wall ms. */
double
recoverOnce(const core::wal::SimulatedStorage &image,
            const std::string &digest, Outcome &out,
            tt::RecoveryReport *report, Trace *trace)
{
    core::wal::SimulatedStorage copy = image; // not timed
    const std::int64_t t0 = nowNs();
    if (trace)
        trace->begin(SpanName::Recover, 0);
    tt::TrustStore store(copy, kStoreName);
    const tt::RecoveryReport r = store.recover();
    if (trace)
        trace->end();
    const double ms = static_cast<double>(nowNs() - t0) * 1e-6;
    if (store.stateDigest() != digest) // outside the timed region
        out.fail("recovered digest differs from the pre-crash digest");
    if (report)
        *report = r;
    return ms;
}

} // namespace

Outcome
runPopulation(const Options &options)
{
    Outcome out;
    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    const int recovery_threads = std::min(4, nproc);
    const std::size_t accounts = options.smoke ? kSmokeAccounts : kAccounts;
    const std::uint64_t ops =
        options.smoke ? 20000
                      : static_cast<std::uint64_t>(options.seconds) *
                            kOpsPerSecond;
    core::setParallelThreads(1);

    // Input generation, not timed as set-up: the stream depends only
    // on the seed and the op budget.
    std::vector<Mutation> stream = churnStream(options.seed, accounts, ops);
    std::unique_ptr<State> state;
    const ProbedSeries setup_s = repeatedSetup<std::unique_ptr<State>>(
        options.smoke ? 1 : kSetupRepeats,
        [&] { return setup(options.seed, accounts); }, state);
    tt::TrustStore &store = *state->store;

    const std::uint64_t mutations0 = store.mutations();
    const std::uint64_t wal0 = store.walBytesAppended();
    const std::uint64_t snaps0 = store.snapshotsWritten();

    Trace trace;
    TimedPhase phase;
    phase.latencyMs.reserve(ops);
    std::vector<double> traced_ms, untraced_ms, compaction_ms;
    for (std::uint64_t op = 0; op < ops; ++op) {
        if (op % kProbeEvery == 0)
            phase.latencyMs.probe();
        const Mutation &m = stream[op];
        const bool traced = opIsTraced(options.trace, op);
        Trace *t = traced ? &trace : nullptr;
        const std::uint64_t snaps = traced ? store.snapshotsWritten() : 0;
        std::int64_t t0 = 0;
        switch (m.kind) {
          case Kind::PutSession: {
            const tt::StoredSession row = sessionRow(m.index, m.generation);
            t0 = nowNs();
            Scope s(t, SpanName::PutSession, op);
            store.putSession(tt::populationSession(m.index), row);
            break;
          }
          case Kind::EraseSession:
            t0 = nowNs();
            {
                Scope s(t, SpanName::EraseSession, op);
                store.eraseSession(tt::populationSession(m.index));
            }
            break;
          case Kind::PutAccount: {
            const std::string account = tt::populationAccount(m.index);
            const core::Bytes key = keyBytes(m.index, m.generation, 24);
            t0 = nowNs();
            Scope s(t, SpanName::PutAccount, op);
            store.putAccount(account, key);
            break;
          }
        }
        const double ms = static_cast<double>(nowNs() - t0) * 1e-6;
        phase.latencyMs.add(ms);
        (traced ? traced_ms : untraced_ms).push_back(ms);
        if (traced && store.snapshotsWritten() != snaps)
            compaction_ms.push_back(ms);
    }
    phase.latencyMs.probe();
    phase.attempted = ops;

    // Gate part 1: every mutation was applied and logged.
    const std::uint64_t acked = store.mutations() - mutations0;
    phase.ok = std::min(acked, ops);
    phase.failed = ops - phase.ok;
    if (acked != ops)
        out.fail("store applied " + std::to_string(acked) + " of " +
                 std::to_string(ops) + " mutations");

    const std::string digest = store.stateDigest(); // not timed
    const double live = static_cast<double>(store.liveAccounts() +
                                            store.liveSessions());
    const std::uint64_t wal_bytes = store.walBytesAppended();
    const std::uint64_t snapshot_bytes = store.snapshotBytesWritten();
    const std::size_t storage_bytes = store.storageBytes();
    const std::size_t log_bytes = store.logBytes();
    const std::size_t segments = store.segmentCount();
    const std::uint64_t snapshots = store.snapshotsWritten() - snaps0;
    std::vector<std::string> stems;
    for (std::size_t s = 0; s < store.shardCount(); ++s)
        stems.push_back(store.shardStem(s));
    state->store.reset();
    stream = {};
    state->storage.crashClean();
    const core::wal::SimulatedStorage &image = state->storage;

    // Gate part 2: every recovery reproduces the pre-crash digest.
    core::setParallelThreads(recovery_threads);
    ProbedSeries recover_ms(Phase::Recover, 8);
    recover_ms.probe();
    tt::RecoveryReport report;
    const int recoveries = options.smoke ? 3 : kRecoveries;
    for (int r = 1; r <= recoveries; ++r) {
        recover_ms.add(recoverOnce(image, digest, out, &report, nullptr));
        if (r % kRecoverProbeEvery == 0 || r == recoveries)
            recover_ms.probe();
    }

    out.attempted = phase.attempted;
    out.failed = phase.failed;
    out.details["accounts"] = static_cast<double>(accounts);
    out.details["threads"] = 1;
    out.details["recovery_threads"] = recovery_threads;
    out.details["snapshots"] = static_cast<double>(snapshots);
    out.details["shards"] = static_cast<double>(stems.size());
    if (!options.trace) {
        addEndToEnd(out, setup_s, phase, recover_ms);
        return out;
    }

    std::map<std::string, double> layer;
    layer["trust.store.put_session_us"] =
        1e3 * spanMeanMs(trace, SpanName::PutSession);
    layer["trust.store.erase_session_us"] =
        1e3 * spanMeanMs(trace, SpanName::EraseSession);
    layer["trust.store.put_account_us"] =
        1e3 * spanMeanMs(trace, SpanName::PutAccount);
    layer["trust.store.compaction_ms"] = mean(compaction_ms);
    layer["trust.store.snapshots"] = static_cast<double>(snapshots);
    layer["trust.store.wal_bytes_per_op"] =
        ratio(static_cast<double>(wal_bytes - wal0),
              static_cast<double>(ops));
    layer["trust.store.write_amp"] =
        ratio(static_cast<double>(wal_bytes + snapshot_bytes),
              static_cast<double>(storage_bytes));
    layer["trust.store.log_mib"] =
        static_cast<double>(log_bytes) / (1024.0 * 1024.0);
    layer["trust.store.segments"] = static_cast<double>(segments);
    layer["trust.store.replayed_per_live"] =
        ratio(static_cast<double>(report.replayed), live);

    // A serial read + scan pass over every segment of the image.
    std::vector<double> read_ms, scan_ms;
    for (int pass = 0; pass < kSerialRecoveries; ++pass) {
        std::int64_t read_ns = 0, scan_ns = 0;
        for (const auto &stem : stems) {
            for (const auto &seg : core::wal::listSegments(image, stem)) {
                trace.begin(SpanName::WalRead, 0);
                const core::Bytes bytes = image.readAll(seg.file);
                read_ns += trace.end();
                trace.begin(SpanName::WalScan, 0);
                const core::wal::WalScan scan = core::wal::scanWalBytes(bytes);
                scan_ns += trace.end();
                if (scan.tornTail)
                    out.fail("clean-crash segment " + seg.file +
                             " scanned with a torn tail");
            }
        }
        read_ms.push_back(static_cast<double>(read_ns) * 1e-6);
        scan_ms.push_back(static_cast<double>(scan_ns) * 1e-6);
    }
    layer["core.wal.read_ms"] = median(read_ms);
    layer["core.wal.scan_ms"] = median(scan_ms);

    core::setParallelThreads(1);
    std::vector<double> serial_ms;
    for (int r = 0; r < kSerialRecoveries; ++r)
        serial_ms.push_back(
            recoverOnce(image, digest, out, nullptr, &trace));
    layer["trust.store.recover_1t_ms"] = median(serial_ms);

    addTraceOverhead(layer, traced_ms, untraced_ms, 1);
    layer["trace.spans"] = static_cast<double>(trace.spans().size());
    layer["host.probe_us"] = probeMedianNs(Phase::Timed) * 1e-3;
    layer["host.nproc"] = nproc;
    addPerLayer(out, layer);
    dumpTrace(options, trace);
    return out;
}

} // namespace repobench
