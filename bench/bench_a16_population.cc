/**
 * @file
 * Ablation **A16**: million-account persistent tier.
 *
 * Drives the synthetic Zipf population (trust/fleet) into a sharded
 * TrustStore across a sweep of population sizes (10k -> 1M accounts)
 * and reports, per point:
 *
 *  - load wall time (enroll + churn mutations),
 *  - peak and final simulated-storage bytes (the bounded-by-live-
 *    state claim: peak must track live accounts, not history),
 *  - retained log bytes / segment counts / segments GC'd,
 *  - snapshot-compaction write amplification (total bytes ever
 *    written vs final retained bytes),
 *  - crash-recovery wall time at {1, 4, 16} recovery threads, with
 *    the recovered state digest required to be identical at every
 *    thread count (determinism is the load-bearing result on 1-core
 *    CI; the wall-clock ratio is the trajectory metric).
 *
 * Writes BENCH_population.json.
 *
 * Flags: --accounts=N   cap the sweep (default 1000000)
 *        --churn=K      churn events per account (default 2)
 *        --smoke        run only the single --accounts point (CI)
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/csv.hh"
#include "core/parallel.hh"
#include "trust/fleet.hh"
#include "trust/store.hh"

namespace core = trust::core;
namespace proto = trust::trust;
namespace wal = trust::core::wal;

namespace {

struct PopulationFlags
{
    int accounts = 1000 * 1000;
    int churn = 2;
    bool smoke = false;
};

struct RecoveryPoint
{
    int threads = 0;
    double recoverSec = 0.0;
    std::uint64_t replayed = 0;
    std::string digest;
};

struct SweepPoint
{
    std::size_t accounts = 0;
    proto::PopulationStats population;
    double loadSec = 0.0;
    double checkpointSec = 0.0;
    double amplification = 0.0;
    std::vector<RecoveryPoint> recoveries;
    bool digestsIdentical = false;
};

SweepPoint
runSweepPoint(const PopulationFlags &flags, std::size_t accounts)
{
    SweepPoint point;
    point.accounts = accounts;

    proto::PopulationConfig config;
    config.seed = 1600 + accounts;
    config.accounts = accounts;
    config.events =
        accounts * static_cast<std::size_t>(flags.churn);

    wal::SimulatedStorage disk;
    {
        proto::TrustStore store(disk, "pop");
        store.recover();
        trust::benchutil::Stopwatch sw;
        point.population = proto::runPopulation(store, config);
        point.loadSec = sw.seconds();

        sw.restart();
        store.checkpoint();
        point.checkpointSec = sw.seconds();

        // Write amplification: every byte ever pushed at storage
        // (WAL frames + snapshot generations) over the bytes a
        // reader actually needs at the end.
        const double written = static_cast<double>(
            store.walBytesAppended() + store.snapshotBytesWritten());
        const double retained =
            static_cast<double>(std::max<std::size_t>(
                store.storageBytes(), 1));
        point.amplification = written / retained;
    }
    disk.crashClean();

    // Crash-recover the same on-disk image at each thread count;
    // each run gets its own copy because recovery repairs in place.
    for (const int threads : {1, 4, 16}) {
        wal::SimulatedStorage image = disk;
        core::setParallelThreads(threads);
        proto::TrustStore store(image, "pop");
        const trust::benchutil::Stopwatch sw;
        const proto::RecoveryReport report = store.recover();
        RecoveryPoint rp;
        rp.threads = threads;
        rp.recoverSec = sw.seconds();
        rp.replayed = report.replayed;
        rp.digest = store.stateDigest();
        point.recoveries.push_back(std::move(rp));
        core::setParallelThreads(0);
    }
    point.digestsIdentical = true;
    for (const RecoveryPoint &rp : point.recoveries)
        point.digestsIdentical =
            point.digestsIdentical &&
            rp.digest == point.recoveries.front().digest;
    return point;
}

void
runAll(const PopulationFlags &flags)
{
    std::printf("=== A16: million-account persistent tier ===\n\n");

    std::vector<std::size_t> sizes;
    if (flags.smoke) {
        sizes.push_back(static_cast<std::size_t>(flags.accounts));
    } else {
        for (const std::size_t n :
             {std::size_t{10'000}, std::size_t{100'000},
              std::size_t{1'000'000}})
            if (n <= static_cast<std::size_t>(flags.accounts))
                sizes.push_back(n);
        if (sizes.empty())
            sizes.push_back(static_cast<std::size_t>(flags.accounts));
    }

    std::vector<SweepPoint> points;
    bool all_identical = true;
    core::Table table({"accounts", "load", "peak MiB", "final MiB",
                       "segs", "gc'd", "snaps", "ampl",
                       "rec 1t", "rec 4t", "rec 16t", "digest"});
    for (const std::size_t n : sizes) {
        points.push_back(runSweepPoint(flags, n));
        const SweepPoint &p = points.back();
        const proto::PopulationStats &s = p.population;
        all_identical = all_identical && p.digestsIdentical;
        const auto mib = [](std::size_t b) {
            return core::Table::num(
                static_cast<double>(b) / (1024.0 * 1024.0), 1);
        };
        table.addRow(
            {std::to_string(p.accounts),
             core::Table::num(p.loadSec, 2) + " s",
             mib(s.peakStorageBytes), mib(s.finalStorageBytes),
             std::to_string(s.finalSegments),
             std::to_string(s.segmentsGcd),
             std::to_string(s.snapshotsWritten),
             core::Table::num(p.amplification, 2),
             core::Table::num(p.recoveries[0].recoverSec, 2) + " s",
             core::Table::num(p.recoveries[1].recoverSec, 2) + " s",
             core::Table::num(p.recoveries[2].recoverSec, 2) + " s",
             p.digestsIdentical ? "same" : "DIFFERENT"});
    }
    table.print();
    std::printf("\nrecovered digests identical across 1/4/16 "
                "recovery threads: %s\n",
                all_identical ? "yes" : "NO (determinism violation)");

    trust::benchutil::writeBenchJson(
        "BENCH_population.json", "a16_population",
        [&](core::obs::JsonWriter &w) {
            w.kv("churn_per_account", flags.churn);
            w.kv("smoke", flags.smoke);
            w.kv("digests_identical", all_identical);
            w.key("sweep");
            w.beginArray();
            for (const SweepPoint &p : points) {
                const proto::PopulationStats &s = p.population;
                w.beginObject();
                w.kv("accounts",
                     static_cast<std::uint64_t>(p.accounts));
                w.kv("events", s.events);
                w.kv("load_s", p.loadSec);
                w.kv("checkpoint_s", p.checkpointSec);
                w.kv("peak_storage_bytes",
                     static_cast<std::uint64_t>(s.peakStorageBytes));
                w.kv("final_storage_bytes",
                     static_cast<std::uint64_t>(s.finalStorageBytes));
                w.kv("final_log_bytes",
                     static_cast<std::uint64_t>(s.finalLogBytes));
                w.kv("segments",
                     static_cast<std::uint64_t>(s.finalSegments));
                w.kv("segments_gcd", s.segmentsGcd);
                w.kv("snapshots_written", s.snapshotsWritten);
                w.kv("snapshot_bytes", s.snapshotBytesWritten);
                w.kv("wal_bytes_appended", s.walBytesAppended);
                w.kv("write_amplification", p.amplification);
                w.kv("live_accounts",
                     static_cast<std::uint64_t>(s.liveAccounts));
                w.kv("live_sessions",
                     static_cast<std::uint64_t>(s.liveSessions));
                w.kv("digests_identical", p.digestsIdentical);
                w.key("recovery");
                w.beginArray();
                for (const RecoveryPoint &rp : p.recoveries) {
                    w.beginObject();
                    w.kv("threads", rp.threads);
                    w.kv("recover_s", rp.recoverSec);
                    w.kv("replayed", rp.replayed);
                    w.endObject();
                }
                w.endArray();
                w.endObject();
            }
            w.endArray();
        });
}

/** Per-mutation churn cost on a warm 10k-account store. */
void
BM_PopulationChurn(benchmark::State &state)
{
    wal::SimulatedStorage disk;
    proto::TrustStore store(disk, "pop");
    store.recover();
    proto::PopulationConfig config;
    config.accounts = 10 * 1000;
    config.events = 0;
    (void)proto::runPopulation(store, config);

    std::uint64_t refresh = 1;
    std::size_t index = 0;
    for (auto _ : state) {
        store.putSession(
            proto::populationSession(index),
            proto::StoredSession{
                proto::populationAccount(index),
                core::Bytes(16, static_cast<std::uint8_t>(refresh)),
                core::Bytes(12, 0x7), "t0", refresh});
        index = (index + 1) % config.accounts;
        ++refresh;
        benchmark::DoNotOptimize(store.mutations());
    }
}
BENCHMARK(BM_PopulationChurn)->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    PopulationFlags flags;
    return trust::benchutil::run(
        argc, argv, [&] { runAll(flags); },
        {{"accounts", flags.accounts, 1},
         {"churn", flags.churn, 0},
         {"smoke", flags.smoke}});
}
