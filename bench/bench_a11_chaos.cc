/**
 * @file
 * Ablation **A11**: chaos sweep over the TRUST remote protocol.
 *
 * Drives full end-to-end sessions (registration -> login ->
 * continuous-auth browsing) through the fault-injection layer while
 * sweeping message loss {0..30%} and a mid-session partition
 * {0, 2 s, 5 s}. Reports, per configuration:
 *
 *  - session completion rate: sessions that finished registration,
 *    login and the browsing phase with the session still live;
 *  - auth coverage: fraction of browsing touches that yielded an
 *    authenticated content page (continuous-auth samples delivered);
 *  - retransmission overhead: fraction of all network messages that
 *    were timeout-driven retransmissions.
 *
 * Expected shape: completion stays at 1.0 across the whole sweep
 * (the backoff schedule rides out every partition shorter than its
 * ~20 s budget) while retransmission overhead grows with loss and
 * partition length. Results land in BENCH_chaos.json.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/csv.hh"
#include "net/faults.hh"
#include "touch/behavior.hh"
#include "fingerprint/synthesis.hh"
#include "trust/scenario.hh"

namespace core = trust::core;
namespace net = trust::net;
namespace trustns = trust::trust;

namespace {

constexpr double kLossSweep[] = {0.0, 0.05, 0.10, 0.20, 0.30};
constexpr core::Tick kPartitionSweep[] = {0, core::seconds(2),
                                          core::seconds(5)};
constexpr int kSessionsPerConfig = 3;
constexpr int kBrowsingTouches = 12;

/** Aggregated outcome of one fault configuration. */
struct ChaosStats
{
    double lossRate = 0.0;
    core::Tick partition = 0;
    int sessions = 0;
    int completed = 0;
    double authCoverage = 0.0;   ///< Mean over sessions.
    double retransOverhead = 0.0;///< Mean over sessions.
    std::uint64_t retransmits = 0;
    std::uint64_t dedupHits = 0;
    std::uint64_t messagesDropped = 0;
    std::uint64_t resumes = 0;

    double
    completionRate() const
    {
        return sessions > 0
                   ? static_cast<double>(completed) / sessions
                   : 0.0;
    }
};

trust::touch::UserBehavior
userBehavior(std::uint64_t user)
{
    return trust::touch::UserBehavior::forUser(
        user, {trust::touch::homeScreenLayout(),
               trust::touch::keyboardLayout()});
}

/** One end-to-end session under the given fault configuration. */
void
runSession(std::uint64_t seed, double loss, core::Tick partition,
           ChaosStats &stats)
{
    trustns::EcosystemConfig config;
    config.seed = seed;
    trustns::Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = userBehavior(seed * 31 + 5);
    core::Rng finger_rng(seed ^ 0xF1A6E5);
    const auto finger =
        trust::fingerprint::synthesizeFinger(1, finger_rng);
    auto &device = eco.addDevice("phone", behavior, finger);
    const std::string domain = server.domain();

    net::FaultConfig fault_config;
    fault_config.dropRate = loss;
    auto faults = std::make_shared<net::FaultModel>(seed ^ 0xC4A05,
                                                    fault_config);
    if (partition > 0)
        faults->schedulePartition(core::milliseconds(500), partition);
    eco.network().setFaultModel(faults);

    trust::touch::TouchEvent critical;
    critical.position =
        device.screen().sensors()[0].region.center();
    critical.speed = 0.05;
    critical.gesture = trust::touch::GestureType::Tap;

    // Registration (Fig. 9) and login (Fig. 10), with the same
    // press-again retry discipline as runBrowsingSession.
    for (int attempt = 0;
         attempt < 16 && !device.registrationComplete(domain);
         ++attempt) {
        device.startRegistration(domain, "alice");
        eco.settle();
        device.onTouch(critical, &finger);
        eco.settle();
    }
    for (int attempt = 0;
         attempt < 16 && device.registrationComplete(domain) &&
         !device.sessionActive(domain);
         ++attempt) {
        device.startLogin(domain);
        eco.settle();
        device.onTouch(critical, &finger);
        eco.settle();
    }

    // Browsing: deliberate on-tile touches so every touch is an
    // authentication opportunity.
    const std::uint64_t pages_before =
        device.counters().get("content-page-accepted");
    const std::uint64_t resumes_before =
        device.counters().get("session-resume-started");
    if (device.sessionActive(domain)) {
        for (int i = 0; i < kBrowsingTouches; ++i) {
            for (int attempt = 0;
                 attempt < 16 && device.sessionNeedsResume(domain);
                 ++attempt) {
                device.resumeSession(domain);
                eco.settle();
                device.onTouch(critical, &finger);
                eco.settle();
            }
            device.onTouch(critical, &finger);
            eco.settle();
        }
    }

    const std::uint64_t resumes =
        device.counters().get("session-resume-started") -
        resumes_before;
    const std::uint64_t pages =
        device.counters().get("content-page-accepted") - pages_before;
    // Every completed resume re-accepts one login content page;
    // discount those to count genuine browsing coverage.
    const std::uint64_t browsing_pages =
        pages > resumes ? pages - resumes : 0;

    const bool complete = device.registrationComplete(domain) &&
                          device.sessionActive(domain) &&
                          !device.sessionNeedsResume(domain);
    ++stats.sessions;
    if (complete)
        ++stats.completed;
    stats.authCoverage += static_cast<double>(browsing_pages) /
                          kBrowsingTouches / kSessionsPerConfig;
    const std::uint64_t retrans =
        device.counters().get("op-retransmit");
    stats.retransmits += retrans;
    const std::uint64_t sent = eco.network().messagesSent();
    if (sent > 0)
        stats.retransOverhead += static_cast<double>(retrans) /
                                 static_cast<double>(sent) /
                                 kSessionsPerConfig;
    stats.dedupHits += server.counters().get("dedup-hit");
    stats.messagesDropped +=
        faults->messagesDropped() + faults->partitionDrops();
    stats.resumes += resumes;
}

void
runSweep()
{
    std::printf("=== A11: chaos sweep (loss x partition) over "
                "end-to-end TRUST sessions ===\n\n");

    std::vector<ChaosStats> sweep;
    for (const double loss : kLossSweep) {
        for (const core::Tick partition : kPartitionSweep) {
            ChaosStats stats;
            stats.lossRate = loss;
            stats.partition = partition;
            for (int s = 0; s < kSessionsPerConfig; ++s)
                runSession(9000 + 17 * static_cast<std::uint64_t>(
                                           sweep.size() * 31 + s),
                           loss, partition, stats);
            sweep.push_back(stats);
        }
    }

    core::Table table({"loss", "partition", "completion", "coverage",
                       "retrans ovh", "dedup", "dropped"});
    for (const auto &s : sweep) {
        table.addRow(
            {core::Table::num(s.lossRate * 100.0, 0) + "%",
             core::Table::num(core::toMilliseconds(s.partition) /
                                  1000.0,
                              1) +
                 " s",
             core::Table::num(s.completionRate(), 2),
             core::Table::num(s.authCoverage, 2),
             core::Table::num(s.retransOverhead, 3),
             std::to_string(s.dedupHits),
             std::to_string(s.messagesDropped)});
    }
    table.print();

    bool all_complete = true;
    for (const auto &s : sweep)
        all_complete = all_complete && s.completed == s.sessions;
    std::printf("\nall sessions completed under every fault mix: %s\n",
                all_complete ? "yes" : "NO");
    trust::benchutil::writeBenchJson(
        "BENCH_chaos.json", "a11_chaos",
        [&](core::obs::JsonWriter &w) {
            w.kv("sessions_per_config", kSessionsPerConfig);
            w.kv("browsing_touches", kBrowsingTouches);
            w.key("results");
            w.beginArray();
            for (const auto &s : sweep) {
                w.beginObject();
                w.kv("loss", s.lossRate, 2);
                w.kv("partition_s",
                     core::toMilliseconds(s.partition) / 1000.0, 1);
                w.kv("completion_rate", s.completionRate());
                w.kv("auth_coverage", s.authCoverage);
                w.kv("retransmission_overhead", s.retransOverhead, 4);
                w.kv("retransmits", s.retransmits);
                w.kv("dedup_hits", s.dedupHits);
                w.kv("messages_dropped", s.messagesDropped);
                w.kv("resumes", s.resumes);
                w.endObject();
            }
            w.endArray();
        });
}

void
BM_ChaosSession(benchmark::State &state)
{
    const double loss =
        static_cast<double>(state.range(0)) / 100.0;
    std::uint64_t seed = 77000;
    for (auto _ : state) {
        ChaosStats stats;
        runSession(seed++, loss, core::seconds(2), stats);
        benchmark::DoNotOptimize(stats);
    }
}
BENCHMARK(BM_ChaosSession)->Arg(0)->Arg(10)->Arg(30)->Unit(
    benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, runSweep);
}
