/**
 * @file
 * The shared bench harness: every bench main is one call to run().
 *
 * Every bench accepts
 *
 *     --trace-out=FILE     Chrome trace_event JSON (chrome://tracing
 *                          or https://ui.perfetto.dev)
 *     --metrics-out=FILE   metrics registry snapshot as JSON
 *     --audit-out=FILE     decision audit log (canonical line format)
 *
 * plus the study flags its main declares and google-benchmark's own
 * flags. Any other argument, or a malformed value, stops the bench
 * before its study starts.
 *
 * Stopwatch is the one wall clock the studies read, and
 * summarizeLatencies() the one ops/s, mean and quantile summary.
 * writeBenchJson() is the single emission path for the BENCH_*.json
 * result files, with a fixed envelope (schema + bench name). The
 * envelope, the flag parser and the latency summary are pinned by
 * tests/core/test_bench_schema.cc.
 */

#ifndef TRUST_BENCH_BENCH_OBS_UTIL_HH
#define TRUST_BENCH_BENCH_OBS_UTIL_HH

#include <benchmark/benchmark.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/obs/json.hh"
#include "core/obs/obs.hh"

namespace trust::benchutil {

/**
 * One command-line flag: `--name=<int>` (raised to at least @c min
 * after parsing), `--name=<text>`, or the bare switch `--name`.
 */
struct Flag
{
    Flag(std::string_view flagName, int &dest, int minValue)
        : name(flagName), intDest(&dest), min(minValue)
    {
    }
    Flag(std::string_view flagName, std::string &dest)
        : name(flagName), textDest(&dest)
    {
    }
    Flag(std::string_view flagName, bool &dest)
        : name(flagName), boolDest(&dest)
    {
    }

    std::string_view name; ///< Without the leading "--".
    int *intDest = nullptr;
    std::string *textDest = nullptr;
    bool *boolDest = nullptr;
    int min = 0;
};

/**
 * Strip @p flags from argv into their destinations, leaving every
 * other argument in place. Returns false, with a message on stderr,
 * when a valued flag has no `=`, or an integer flag's value is not a
 * whole decimal number in int range.
 */
inline bool
parseFlags(int &argc, char **argv, const std::vector<Flag> &flags)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const std::size_t eq = arg.find('=');
        const bool valued = eq != std::string_view::npos;
        const std::string_view name =
            arg.substr(0, 2) == "--" ? arg.substr(2, eq - 2) : "";
        const auto flag =
            std::find_if(flags.begin(), flags.end(), [&](const Flag &f) {
                return f.name == name && (!f.boolDest || !valued);
            });
        if (flag == flags.end()) {
            argv[out++] = argv[i];
            continue;
        }
        if (flag->boolDest) {
            *flag->boolDest = true;
            continue;
        }
        if (flag->textDest && valued) {
            *flag->textDest = std::string(arg.substr(eq + 1));
            continue;
        }
        const char *end = arg.data() + arg.size();
        const char *begin = valued ? arg.data() + eq + 1 : end;
        if (flag->intDest) {
            const auto [ptr, ec] =
                std::from_chars(begin, end, *flag->intDest);
            if (ec == std::errc() && ptr == end)
                continue;
        }
        std::fprintf(stderr, "%s: %s: expected --%s=<%s>\n", argv[0],
                     argv[i], std::string(name).c_str(),
                     flag->intDest ? "integer" : "value");
        return false;
    }
    argc = out;
    for (const Flag &f : flags)
        if (f.intDest)
            *f.intDest = std::max(*f.intDest, f.min);
    return true;
}

/** Observability output destinations (empty = off). */
struct ObsOptions
{
    std::string traceOut;
    std::string metricsOut;
    std::string auditOut;
};

inline bool
writeTextFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::printf("warning: could not open %s\n", path.c_str());
        return false;
    }
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    return true;
}

/**
 * The one bench entry point. Parses the obs flags (over the default
 * destinations in @p obs, enabling the observability layer when any
 * is set) and the study's @p flags, lets google-benchmark take its
 * own and rejects whatever is left; then runs @p study, the
 * registered microbenchmarks, and writes the obs files. Returns the
 * exit status for main().
 */
inline int
run(int argc, char **argv, const std::function<void()> &study,
    std::vector<Flag> flags = {}, ObsOptions obs = {})
{
    flags.insert(flags.end(), {{"trace-out", obs.traceOut},
                               {"metrics-out", obs.metricsOut},
                               {"audit-out", obs.auditOut}});
    if (!parseFlags(argc, argv, flags))
        return 2;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    namespace o = core::obs;
    if (!obs.traceOut.empty() || !obs.metricsOut.empty() ||
        !obs.auditOut.empty())
        o::setEnabled(true);

    study();
    std::printf("\n");
    benchmark::RunSpecifiedBenchmarks();

    if (!obs.traceOut.empty() &&
        writeTextFile(obs.traceOut, o::tracer().toChromeJson()))
        std::printf("wrote %s (%zu trace events)\n",
                    obs.traceOut.c_str(), o::tracer().eventCount());
    if (!obs.metricsOut.empty() &&
        writeTextFile(obs.metricsOut, o::metrics().toJson()))
        std::printf("wrote %s\n", obs.metricsOut.c_str());
    if (!obs.auditOut.empty() &&
        writeTextFile(obs.auditOut, o::audit().serialize()))
        std::printf("wrote %s (%zu audit records)\n",
                    obs.auditOut.c_str(), o::audit().size());
    return 0;
}

/** Wall-clock stopwatch, started on construction. */
class Stopwatch
{
  public:
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }

    double
    ms() const
    {
        return seconds() * 1e3;
    }

    /** Milliseconds since the start or the previous lap; restarts. */
    double
    lapMs()
    {
        const double elapsed = ms();
        restart();
        return elapsed;
    }

    void
    restart()
    {
        t0_ = Clock::now();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point t0_ = Clock::now();
};

/** Throughput and nearest-rank latency quantiles of one sample. */
struct LatencySummary
{
    double opsPerSec = 0.0;
    double meanMs = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
};

/**
 * Summarise per-op latencies @p ms (milliseconds) taken over
 * @p wallSec seconds of wall time, one op per sample. An empty
 * sample summarises to all zeros.
 */
inline LatencySummary
summarizeLatencies(std::vector<double> ms, double wallSec)
{
    LatencySummary s;
    if (ms.empty())
        return s;
    const auto n = static_cast<double>(ms.size());
    s.opsPerSec = wallSec > 0.0 ? n / wallSec : 0.0;
    for (const double l : ms)
        s.meanMs += l;
    s.meanMs /= n;
    std::sort(ms.begin(), ms.end());
    const auto rank = [&](double q) {
        const auto idx = static_cast<std::size_t>(q * (n - 1.0) + 0.5);
        return ms[std::min(idx, ms.size() - 1)];
    };
    s.p50Ms = rank(0.50);
    s.p95Ms = rank(0.95);
    s.p99Ms = rank(0.99);
    return s;
}

/**
 * The single BENCH_*.json emission path: fixed envelope (schema
 * version + bench name), body filled in by the caller through the
 * streaming writer.
 */
inline void
writeBenchJson(const std::string &path, std::string_view bench,
               const std::function<void(core::obs::JsonWriter &)> &body)
{
    core::obs::JsonWriter w;
    w.beginObject();
    w.kv("schema", 1);
    w.kv("bench", bench);
    body(w);
    w.endObject();
    if (writeTextFile(path, w.take()))
        std::printf("\nwrote %s\n", path.c_str());
}

} // namespace trust::benchutil

#endif // TRUST_BENCH_BENCH_OBS_UTIL_HH
