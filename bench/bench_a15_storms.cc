/**
 * @file
 * Ablation **A15**: ecosystem-scale reset/transfer/revocation storms.
 *
 * Three experiments over the storm orchestration layer:
 *
 *  1. Full storm sweep at {1, 4, 16} worker threads: baseline fleet
 *     traffic, a device-loss wave (CA revocation + CRL push + reset
 *     + re-registration burst), phone-upgrade-day mass identity
 *     transfer, and the compromised-device close-out. The narrative
 *     counters must be identical at every thread count, and every
 *     legitimate re-registration must complete (or be refused with a
 *     typed reason) — 100% completion is reported as a flag.
 *
 *  2. Mid-storm crash/recover: the same storm with every server
 *     killed and rebuilt from its TrustStore at the phase-2 →
 *     phase-3 barrier. The narrative counters must match the
 *     uncrashed storm exactly; reports replayed records and the
 *     restart's wall-time cost.
 *
 *  3. CRL fan-out cost: signing and installing a CRL of {16, 256,
 *     2048} serials into a bank of servers — the price of waking
 *     the CA during a revocation wave.
 *
 * Writes BENCH_storms.json.
 *
 * Flags: --devices=N (default 8).
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/csv.hh"
#include "core/parallel.hh"
#include "crypto/csprng.hh"
#include "trust/fleet.hh"
#include "trust/messages.hh"
#include "trust/store.hh"

namespace core = trust::core;
namespace proto = trust::trust;
namespace wal = trust::core::wal;

namespace {

struct StormFlags
{
    int devices = 8;
};

// ------------------------------------------------------------------ //
// Experiments 1 + 2: storm sweep and mid-storm crash/recover          //
// ------------------------------------------------------------------ //

/** The narrative a storm produced, for cross-run comparison. */
struct StormDecisions
{
    int resets = 0;
    int thiefRejections = 0;
    int reRegistrations = 0;
    int transfers = 0;
    int lockouts = 0;
    int revokedRejections = 0;
    int postStormOk = 0;
    int postStormTotal = 0;
    std::uint64_t crlAcks = 0;
    std::uint64_t crlSerials = 0;

    bool operator==(const StormDecisions &o) const = default;
};

StormDecisions
decisionsOf(const proto::StormResult &result)
{
    return {result.resetsApplied,    result.thiefRejections,
            result.reRegistrations,  result.transfersCompleted,
            result.lockouts,         result.revokedRejections,
            result.postStormOk,      result.postStormTotal,
            result.crlAcks,          result.crlSerialsFinal};
}

struct StormRunStats
{
    int threads = 0;
    bool restarted = false;
    double totalSec = 0.0;
    std::uint64_t replayed = 0; ///< Restart-recovery replays (exp 2).
    StormDecisions decisions;
};

proto::StormConfig
stormConfig(const StormFlags &flags, wal::SimulatedStorage *disk)
{
    proto::StormConfig config;
    // Seed chosen so every storyline fires (the impostor's finger
    // must not false-accept its way past the k-of-n risk window).
    config.fleet.seed = 9300;
    config.fleet.devices = std::max(flags.devices, 5);
    config.fleet.servers = 2;
    config.fleet.clicks = 2;
    config.lossVictims = 2;
    config.upgraders = 2;
    config.compromised = 1;
    if (disk != nullptr) {
        config.fleet.storage = disk;
        config.restartServersMidStorm = true;
    }
    return config;
}

StormRunStats
runStorm(const StormFlags &flags, int threads, bool restart)
{
    StormRunStats stats;
    stats.threads = threads;
    stats.restarted = restart;
    core::setParallelThreads(threads);

    wal::SimulatedStorage disk;
    proto::Storm storm(stormConfig(flags, restart ? &disk : nullptr));
    const trust::benchutil::Stopwatch sw;
    const proto::StormResult result = storm.run();
    stats.totalSec = sw.seconds();
    stats.decisions = decisionsOf(result);
    for (const auto &report : result.restartRecoveries)
        stats.replayed += report.replayed;

    core::setParallelThreads(0);
    return stats;
}

// ------------------------------------------------------------------ //
// Experiment 3: CRL fan-out cost                                      //
// ------------------------------------------------------------------ //

struct CrlFanoutStats
{
    int serials = 0;
    int servers = 0;
    double signSec = 0.0;
    double installSec = 0.0;
};

CrlFanoutStats
runCrlFanout(int serials, int servers)
{
    CrlFanoutStats stats;
    stats.serials = serials;
    stats.servers = servers;

    trust::crypto::Csprng ca_rng(1551);
    trust::crypto::CertificateAuthority ca("TrustRootCA", 512,
                                           ca_rng);
    for (int i = 0; i < serials; ++i)
        ca.revoke(static_cast<std::uint64_t>(i) * 3 + 2);

    std::vector<std::unique_ptr<proto::WebServer>> bank;
    bank.reserve(static_cast<std::size_t>(servers));
    for (int s = 0; s < servers; ++s)
        bank.push_back(std::make_unique<proto::WebServer>(
            "www.crl" + std::to_string(s) + ".com", ca,
            static_cast<std::uint64_t>(s) + 1));

    proto::CrlMessage crl;
    crl.issuer = ca.name();
    crl.crlSeq = 1;
    crl.revokedSerials = ca.revokedSerials();
    trust::benchutil::Stopwatch sw;
    crl.signature = ca.signWithRootKey(crl.signedBody());
    stats.signSec = sw.seconds();

    const core::Bytes wire = crl.serialize();
    sw.restart();
    for (auto &server : bank) {
        const auto ack =
            proto::CrlAck::deserialize(server->handle(wire));
        if (!ack ||
            ack->revokedCount !=
                static_cast<std::uint32_t>(serials))
            std::printf("CRL install failed at %d serials\n",
                        serials);
    }
    stats.installSec = sw.seconds();
    return stats;
}

// ------------------------------------------------------------------ //
// Reporting                                                           //
// ------------------------------------------------------------------ //

void
runAll(const StormFlags &flags)
{
    std::printf("=== A15: ecosystem reset/transfer/revocation storms "
                "===\n\n");

    // 1. Storm sweep across worker-thread counts.
    std::printf("storm sweep (%d devices, 2 servers):\n",
                std::max(flags.devices, 5));
    std::vector<StormRunStats> storms;
    for (const int threads : {1, 4, 16})
        storms.push_back(runStorm(flags, threads, false));

    bool decisions_identical = true;
    for (const auto &s : storms)
        decisions_identical = decisions_identical &&
                              s.decisions == storms.front().decisions;

    // 2. Mid-storm crash/recover variant (4 threads).
    storms.push_back(runStorm(flags, 4, true));
    const bool restart_identical =
        storms.back().decisions == storms.front().decisions;

    bool legit_completion = true;
    core::Table table({"threads", "restart", "total", "re-reg",
                       "transfers", "lockouts", "post-storm",
                       "replayed"});
    for (const auto &s : storms) {
        legit_completion =
            legit_completion &&
            s.decisions.postStormOk == s.decisions.postStormTotal;
        table.addRow(
            {std::to_string(s.threads), s.restarted ? "yes" : "no",
             core::Table::num(s.totalSec, 2) + " s",
             std::to_string(s.decisions.reRegistrations),
             std::to_string(s.decisions.transfers),
             std::to_string(s.decisions.lockouts),
             std::to_string(s.decisions.postStormOk) + "/" +
                 std::to_string(s.decisions.postStormTotal),
             std::to_string(s.replayed)});
    }
    table.print();
    std::printf("decisions identical across thread counts: %s\n",
                decisions_identical ? "yes"
                                    : "NO (determinism violation)");
    std::printf("crash/recover continuation identical: %s\n",
                restart_identical ? "yes"
                                  : "NO (durability violation)");
    std::printf("legit re-registrations 100%% completed-or-typed: "
                "%s\n",
                legit_completion ? "yes" : "NO");

    // 3. CRL fan-out.
    std::printf("\nCRL fan-out (4 servers):\n");
    std::vector<CrlFanoutStats> fanouts;
    core::Table crl_table({"serials", "sign", "install"});
    for (const int serials : {16, 256, 2048}) {
        fanouts.push_back(runCrlFanout(serials, 4));
        const auto &f = fanouts.back();
        crl_table.addRow(
            {std::to_string(f.serials),
             core::Table::num(f.signSec * 1e3, 2) + " ms",
             core::Table::num(f.installSec * 1e3, 2) + " ms"});
    }
    crl_table.print();

    trust::benchutil::writeBenchJson(
        "BENCH_storms.json", "a15_storms",
        [&](core::obs::JsonWriter &w) {
            w.kv("hardware_threads",
                 static_cast<std::uint64_t>(
                     std::thread::hardware_concurrency()));
            w.kv("devices", flags.devices);
            w.kv("decisions_identical_across_threads",
                 decisions_identical);
            w.kv("restart_decisions_identical", restart_identical);
            w.kv("legit_reregistrations_completed", legit_completion);
            w.key("storms");
            w.beginArray();
            for (const auto &s : storms) {
                w.beginObject();
                w.kv("threads", s.threads);
                w.kv("restarted", s.restarted);
                w.kv("total_s", s.totalSec);
                w.kv("replayed", s.replayed);
                w.kv("resets", s.decisions.resets);
                w.kv("thief_rejections",
                     s.decisions.thiefRejections);
                w.kv("re_registrations",
                     s.decisions.reRegistrations);
                w.kv("transfers", s.decisions.transfers);
                w.kv("lockouts", s.decisions.lockouts);
                w.kv("revoked_rejections",
                     s.decisions.revokedRejections);
                w.kv("post_storm_ok", s.decisions.postStormOk);
                w.kv("post_storm_total",
                     s.decisions.postStormTotal);
                w.kv("crl_acks", s.decisions.crlAcks);
                w.kv("crl_serials", s.decisions.crlSerials);
                w.endObject();
            }
            w.endArray();
            w.key("crl_fanout");
            w.beginArray();
            for (const auto &f : fanouts) {
                w.beginObject();
                w.kv("serials", f.serials);
                w.kv("servers", f.servers);
                w.kv("sign_ms", f.signSec * 1e3);
                w.kv("install_ms", f.installSec * 1e3);
                w.endObject();
            }
            w.endArray();
        });
}

/** Microbenchmark: one CRL merge into a warm revocation cache. */
void
BM_CrlInstall(benchmark::State &state)
{
    trust::crypto::Csprng ca_rng(1552);
    trust::crypto::CertificateAuthority ca("TrustRootCA", 512,
                                           ca_rng);
    for (int i = 0; i < 256; ++i)
        ca.revoke(static_cast<std::uint64_t>(i) * 5 + 3);
    proto::WebServer server("www.bench.com", ca, 15);
    proto::CrlMessage crl;
    crl.issuer = ca.name();
    crl.crlSeq = 1;
    crl.revokedSerials = ca.revokedSerials();
    crl.signature = ca.signWithRootKey(crl.signedBody());
    for (auto _ : state) {
        const auto ack = server.handleCrl(crl);
        benchmark::DoNotOptimize(ack);
    }
}
BENCHMARK(BM_CrlInstall)->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    StormFlags flags;
    return trust::benchutil::run(argc, argv, [&] { runAll(flags); },
                                 {{"devices", flags.devices, 5}});
}
