/**
 * @file
 * Ablations **A10** and **A13**: the capture->match hot path
 * (captureImpression -> extractTemplate -> match against every
 * enrolled view) over one pre-generated workload. Both sweeps check
 * that match decisions and scores stay bitwise identical across
 * their configurations.
 *
 * A10 sweeps the thread-pool size over {1, 2, 4, 8} and writes
 * BENCH_parallel.json. Expected shape: near-linear speedup up to the
 * physical core count (row-band convolution plus per-template batch
 * matching dominate), flat or slightly degraded beyond it. On a
 * single-core host every setting runs the serial path and the
 * determinism check is the load-bearing result.
 *
 * A13 runs single-threaded under backend {scalar, vector}
 * (core::simd::setForceScalar) x matching {per-view, batched}
 * (matchTemplate loop vs matchTemplatesBatch), so vectorization and
 * the shared-query-pair batching show separately, adds a per-stage
 * breakdown under both backends, and writes BENCH_simd.json. The
 * scalar-forced backend still runs the SoA kernels (ScalarPack
 * emulates the 4-lane packs), so the backend axis isolates only the
 * vector-issue width; the SIMD restructure's >=5x is measured
 * against the pre-restructure seed on the A10 trajectory. On a host
 * whose compiled backend is scalar the two backends coincide.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/csv.hh"
#include "core/parallel.hh"
#include "core/rng.hh"
#include "core/simd/simd.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/enhance.hh"
#include "fingerprint/matcher.hh"
#include "fingerprint/minutiae.hh"
#include "fingerprint/pipeline.hh"
#include "fingerprint/quality.hh"
#include "fingerprint/skeleton.hh"
#include "fingerprint/synthesis.hh"

namespace core = trust::core;
namespace fp = trust::fingerprint;
namespace simd = trust::core::simd;
using trust::benchutil::LatencySummary;

namespace {

constexpr int kThreadSweep[] = {1, 2, 4, 8};
constexpr int kOpsPerConfig = 32;
constexpr int kWarmupOps = 3;
constexpr int kEnrollFingers = 4;
constexpr int kViewsPerFinger = 3;
constexpr int kStageReps = 4;

/** One timed operation's observable outcome (for determinism). */
struct OpOutcome
{
    bool extracted = false;
    std::size_t minutiae = 0;
    std::vector<char> accepted;   ///< Per enrolled view.
    std::vector<double> scores;   ///< Per enrolled view.

    bool operator==(const OpOutcome &o) const = default;
};

/** The fixed workload: enrolled views plus pre-captured queries. */
struct Workload
{
    std::vector<fp::FingerprintTemplate> views;
    std::vector<fp::FingerprintImage> queries;
};

Workload
buildWorkload()
{
    Workload w;
    core::Rng rng(20260807);
    std::vector<fp::MasterFinger> fingers;
    for (int f = 0; f < kEnrollFingers; ++f)
        fingers.push_back(fp::synthesizeFinger(100 + f, rng));

    // Enrollment: image-domain extraction per view, indexes prebuilt
    // (as FlockModule::enrollFinger does) so the timed loop measures
    // query-side work only.
    for (const auto &finger : fingers) {
        for (int v = 0; v < kViewsPerFinger; ++v) {
            for (int attempt = 0; attempt < 16; ++attempt) {
                fp::CaptureConditions cc;
                cc.windowRows = 96;
                cc.windowCols = 96;
                cc.pressure = 0.95;
                cc.noiseSigma = 0.02;
                const auto impression =
                    fp::captureImpression(finger, cc, rng);
                auto tpl = fp::extractTemplate(impression);
                if (tpl && tpl->minutiae.size() >= 8) {
                    (void)tpl->pairIndex();
                    w.views.push_back(std::move(*tpl));
                    break;
                }
            }
        }
    }

    // Queries: a genuine/impostor mix under natural tap conditions,
    // captured once so every configuration sees identical inputs.
    const auto stranger = fp::synthesizeFinger(999, rng);
    for (int i = 0; i < kOpsPerConfig; ++i) {
        const auto &finger =
            i % 3 == 2 ? stranger : fingers[i % kEnrollFingers];
        const auto cc = fp::sampleTouchConditions(96, 96, 0.1, rng);
        w.queries.push_back(fp::captureImpression(finger, cc, rng));
    }
    return w;
}

/** Run one op: extract, then score against every enrolled view. */
OpOutcome
runOp(const Workload &w, const fp::FingerprintImage &query, bool batched)
{
    OpOutcome out;
    const auto tpl = fp::extractTemplate(query);
    if (!tpl)
        return out;
    out.extracted = true;
    out.minutiae = tpl->minutiae.size();
    out.accepted.reserve(w.views.size());
    out.scores.reserve(w.views.size());
    if (batched) {
        const auto results =
            fp::matchTemplatesBatch(w.views, tpl->minutiae);
        for (const auto &r : results) {
            out.accepted.push_back(r.accepted ? 1 : 0);
            out.scores.push_back(r.score);
        }
    } else {
        for (const auto &view : w.views) {
            const auto r = fp::matchTemplate(view, tpl->minutiae);
            out.accepted.push_back(r.accepted ? 1 : 0);
            out.scores.push_back(r.score);
        }
    }
    return out;
}

/** One timed pass over the queries, after a few warm-up ops. */
struct TimedRun
{
    std::string label; ///< Table/JSON identity of the configuration.
    LatencySummary latency;
    std::vector<OpOutcome> outcomes;
};

TimedRun
timeQueries(const Workload &w, bool batched)
{
    for (int i = 0; i < kWarmupOps; ++i)
        (void)runOp(w, w.queries[static_cast<std::size_t>(i) %
                                 w.queries.size()],
                    batched);

    TimedRun run;
    std::vector<double> latencies;
    latencies.reserve(w.queries.size());
    const trust::benchutil::Stopwatch total;
    for (const auto &query : w.queries) {
        const trust::benchutil::Stopwatch op;
        run.outcomes.push_back(runOp(w, query, batched));
        latencies.push_back(op.ms());
    }
    run.latency = trust::benchutil::summarizeLatencies(
        std::move(latencies), total.seconds());
    return run;
}

bool
sameOutcomes(const std::vector<TimedRun> &runs)
{
    for (const auto &r : runs)
        if (r.outcomes != runs.front().outcomes)
            return false;
    return true;
}

/** ops/sec, p50, p95, mean and speedup over @p base ops/sec. */
std::vector<std::string>
latencyCells(const LatencySummary &l, double base)
{
    return {core::Table::num(l.opsPerSec, 2),
            core::Table::num(l.p50Ms, 2) + " ms",
            core::Table::num(l.p95Ms, 2) + " ms",
            core::Table::num(l.meanMs, 2) + " ms",
            core::Table::num(l.opsPerSec / base, 2) + "x"};
}

void
writeLatency(core::obs::JsonWriter &w, const LatencySummary &l)
{
    w.kv("ops_per_sec", l.opsPerSec);
    w.kv("p50_ms", l.p50Ms);
    w.kv("p95_ms", l.p95Ms);
    w.kv("mean_ms", l.meanMs);
}

// ------------------------------------------------------------------ //
// A10: thread sweep                                                   //
// ------------------------------------------------------------------ //

void
runThreadSweep(const Workload &w)
{
    std::printf("=== A10: thread sweep over the capture->match "
                "pipeline ===\n");
    std::printf("hardware threads available: %u\n\n",
                std::thread::hardware_concurrency());
    std::printf("workload: %zu enrolled views, %zu pre-captured "
                "queries (96x96)\n",
                w.views.size(), w.queries.size());

    std::vector<TimedRun> sweep;
    for (const int threads : kThreadSweep) {
        core::setParallelThreads(threads);
        sweep.push_back(timeQueries(w, /*batched=*/true));
        sweep.back().label = std::to_string(threads);
    }
    core::setParallelThreads(0); // back to auto

    const bool identical = sameOutcomes(sweep);
    const double base = sweep.front().latency.opsPerSec;
    const double speedup4 =
        base > 0.0 ? sweep[2].latency.opsPerSec / base : 0.0;

    core::Table table(
        {"threads", "ops/sec", "p50", "p95", "mean", "speedup"});
    for (const auto &s : sweep) {
        auto row = latencyCells(s.latency, base);
        row.insert(row.begin(), s.label);
        table.addRow(row);
    }
    table.print();

    std::printf("\nmatch decisions/scores identical across thread "
                "counts: %s\n",
                identical ? "yes" : "NO (determinism violation)");
    std::printf("gabor kernel cache: %zu banks, %zu bytes\n",
                fp::gaborKernelCacheBankCount(),
                fp::gaborKernelCacheSize());
    if (std::thread::hardware_concurrency() >= 4) {
        std::printf("speedup at 4 threads vs 1: %.2fx (target >= 2x)\n",
                    speedup4);
    } else {
        std::printf("speedup at 4 threads vs 1: %.2fx (single-core "
                    "host: serial path at every setting, no wall-clock "
                    "gain is physically possible here)\n",
                    speedup4);
    }

    trust::benchutil::writeBenchJson(
        "BENCH_parallel.json", "a10_parallel_pipeline",
        [&](core::obs::JsonWriter &j) {
            j.kv("hardware_threads",
                 static_cast<std::uint64_t>(
                     std::thread::hardware_concurrency()));
            j.kv("ops_per_config", kOpsPerConfig);
            j.kv("enrolled_views", kEnrollFingers * kViewsPerFinger);
            j.kv("identical_decisions", identical);
            j.kv("speedup_4t_vs_1t", speedup4);
            j.key("results");
            j.beginArray();
            for (std::size_t i = 0; i < sweep.size(); ++i) {
                j.beginObject();
                j.kv("threads", kThreadSweep[i]);
                writeLatency(j, sweep[i].latency);
                j.endObject();
            }
            j.endArray();
        });
}

// ------------------------------------------------------------------ //
// A13: backend x batching sweep and stage breakdown                   //
// ------------------------------------------------------------------ //

/** Per-stage mean latency (ms/op) under one backend. */
struct StageBreakdown
{
    std::string backend;
    std::vector<std::pair<std::string, double>> stages;
    double totalMs = 0.0;
};

const char *
backendName(bool forceScalar)
{
    return forceScalar ? "scalar" : simd::compiledBackendName();
}

/**
 * Per-stage breakdown: the extraction pipeline unrolled into its
 * public stages, each timed as one stopwatch lap.
 */
StageBreakdown
runStages(const Workload &w, bool forceScalar)
{
    StageBreakdown b;
    b.backend = backendName(forceScalar);
    simd::setForceScalar(forceScalar);

    double tQuality = 0, tNorm = 0, tOrient = 0, tPeriod = 0;
    double tGabor = 0, tBin = 0, tThin = 0, tMinutiae = 0;
    double tPairs = 0, tMatch = 0;

    for (int rep = 0; rep < kStageReps; ++rep) {
        for (const auto &cap : w.queries) {
            trust::benchutil::Stopwatch lap;
            const auto q = fp::assessQuality(cap, {});
            tQuality += lap.lapMs();
            if (q.score < 0.45)
                continue;
            fp::FingerprintImage work = cap;
            fp::normalizeImage(work);
            tNorm += lap.lapMs();
            const auto orient = fp::estimateOrientation(work);
            tOrient += lap.lapMs();
            double period = fp::estimateRidgePeriod(work, orient);
            if (period < 3 || period > 25)
                period = 9.0;
            tPeriod += lap.lapMs();
            fp::gaborEnhance(work, orient, 1.0 / period, 6, 3.0);
            tGabor += lap.lapMs();
            const auto bin = fp::binarize(work);
            tBin += lap.lapMs();
            const auto skel = fp::thin(bin);
            tThin += lap.lapMs();
            const auto minu =
                fp::extractMinutiae(skel, work.mask(), orient, {});
            tMinutiae += lap.lapMs();
            const auto qp = fp::buildQueryPairs(minu, {});
            tPairs += lap.lapMs();
            for (const auto &v : w.views)
                (void)fp::matchMinutiae(v.minutiae, *v.pairIndex(),
                                        minu, qp, {});
            tMatch += lap.lapMs();
        }
    }
    simd::setForceScalar(false);

    const double n =
        static_cast<double>(kStageReps) * static_cast<double>(
                                              w.queries.size());
    b.stages = {{"quality", tQuality / n},   {"normalize", tNorm / n},
                {"orientation", tOrient / n}, {"period", tPeriod / n},
                {"gabor", tGabor / n},        {"binarize", tBin / n},
                {"thin", tThin / n},          {"minutiae", tMinutiae / n},
                {"query-pairs", tPairs / n},  {"match", tMatch / n}};
    for (const auto &[name, v] : b.stages)
        b.totalMs += v;
    return b;
}

void
runSimdSweep(const Workload &w)
{
    std::printf("=== A13: SIMD + batched scoring on the fingerprint "
                "hot path ===\n");
    std::printf("compiled backend: %s, active backend: %s\n\n",
                simd::compiledBackendName(), simd::activeBackendName());

    core::setParallelThreads(1); // isolate kernels from the pool
    std::printf("workload: %zu enrolled views, %zu pre-captured "
                "queries (96x96), single-threaded\n\n",
                w.views.size(), w.queries.size());

    // (backend, matching) in table order: scalar-forced first, so
    // the speedup column is relative to scalar per-view.
    struct Mode
    {
        bool forceScalar;
        bool batched;
    };
    constexpr Mode kModes[] = {
        {true, false}, {true, true}, {false, false}, {false, true}};
    std::vector<TimedRun> modes;
    for (const Mode m : kModes) {
        simd::setForceScalar(m.forceScalar);
        modes.push_back(timeQueries(w, m.batched));
        simd::setForceScalar(false);
        modes.back().label = backendName(m.forceScalar);
    }

    const bool identical = sameOutcomes(modes);
    const double base = modes.front().latency.opsPerSec;
    const double speedup =
        base > 0.0 ? modes.back().latency.opsPerSec / base : 0.0;
    const auto matching = [&](std::size_t i) {
        return kModes[i].batched ? "batched" : "per-view";
    };

    core::Table table({"backend", "matching", "ops/sec", "p50", "p95",
                       "mean", "speedup"});
    for (std::size_t i = 0; i < modes.size(); ++i) {
        auto row = latencyCells(modes[i].latency, base);
        row.insert(row.begin(), {modes[i].label, matching(i)});
        table.addRow(row);
    }
    table.print();

    std::printf("\nmatch decisions/scores identical across all four "
                "modes: %s\n",
                identical ? "yes" : "NO (bit-identity violation)");
    std::printf("speedup, SIMD batched vs scalar-forced per-view: "
                "%.2fx (backend + batching only; both backends share "
                "the SoA kernels -- the >=5x PR target is vs the "
                "pre-restructure seed, see bench_a10)\n\n",
                speedup);

    std::vector<StageBreakdown> stages;
    stages.push_back(runStages(w, /*forceScalar=*/true));
    stages.push_back(runStages(w, false));

    core::Table stageTable({"stage", stages[0].backend + " ms",
                            stages[1].backend + " ms", "speedup"});
    const auto stageRow = [&](const std::string &name, double scalarMs,
                              double vecMs) {
        stageTable.addRow(
            {name, core::Table::num(scalarMs, 3),
             core::Table::num(vecMs, 3),
             core::Table::num(vecMs > 0.0 ? scalarMs / vecMs : 0.0, 2) +
                 "x"});
    };
    for (std::size_t i = 0; i < stages[0].stages.size(); ++i)
        stageRow(stages[0].stages[i].first, stages[0].stages[i].second,
                 stages[1].stages[i].second);
    stageRow("total", stages[0].totalMs, stages[1].totalMs);
    stageTable.print();

    core::setParallelThreads(0); // back to auto
    trust::benchutil::writeBenchJson(
        "BENCH_simd.json", "a13_simd", [&](core::obs::JsonWriter &j) {
            j.kv("compiled_backend", simd::compiledBackendName());
            j.kv("active_backend", simd::activeBackendName());
            j.kv("ops_per_config", kOpsPerConfig);
            j.kv("enrolled_views", kEnrollFingers * kViewsPerFinger);
            j.kv("identical_decisions", identical);
            j.kv("speedup_simd_batched_vs_scalar_perview", speedup);
            j.key("modes");
            j.beginArray();
            for (std::size_t i = 0; i < modes.size(); ++i) {
                j.beginObject();
                j.kv("backend", modes[i].label);
                j.kv("matching", matching(i));
                writeLatency(j, modes[i].latency);
                j.endObject();
            }
            j.endArray();
            j.key("stage_breakdown");
            j.beginArray();
            for (const auto &b : stages) {
                j.beginObject();
                j.kv("backend", b.backend);
                j.kv("total_ms", b.totalMs);
                for (const auto &[name, v] : b.stages)
                    j.kv(name.c_str(), v);
                j.endObject();
            }
            j.endArray();
        });
}

const Workload &
sharedWorkload()
{
    static const Workload w = buildWorkload();
    return w;
}

void
BM_PipelineOp(benchmark::State &state)
{
    const Workload &w = sharedWorkload();
    core::setParallelThreads(static_cast<int>(state.range(0)));
    std::size_t i = 0;
    for (auto _ : state) {
        auto out = runOp(w, w.queries[i++ % w.queries.size()],
                         /*batched=*/true);
        benchmark::DoNotOptimize(out);
    }
    core::setParallelThreads(0);
}
BENCHMARK(BM_PipelineOp)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void
BM_SimdOp(benchmark::State &state)
{
    const Workload &w = sharedWorkload();
    simd::setForceScalar(state.range(0) == 0);
    core::setParallelThreads(1);
    std::size_t i = 0;
    for (auto _ : state) {
        auto out =
            runOp(w, w.queries[i++ % w.queries.size()], /*batched=*/true);
        benchmark::DoNotOptimize(out);
    }
    simd::setForceScalar(false);
    core::setParallelThreads(0);
}
BENCHMARK(BM_SimdOp)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, [] {
        fp::clearGaborKernelCache();
        const Workload &w = sharedWorkload();
        runThreadSweep(w);
        std::printf("\n");
        runSimdSweep(w);
    });
}
