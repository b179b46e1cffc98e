/**
 * @file
 * Shared observability harness for the bench mains.
 *
 * Every bench accepts
 *
 *     --trace-out=FILE     Chrome trace_event JSON (chrome://tracing
 *                          or https://ui.perfetto.dev)
 *     --metrics-out=FILE   metrics registry snapshot as JSON
 *     --audit-out=FILE     decision audit log (canonical line format)
 *
 * parseObsFlags() strips these from argv (so benchmark::Initialize
 * never sees them) and runtime-enables the observability layer when
 * any is present; writeObsOutputs() dumps the requested files after
 * the workload ran.
 *
 * writeBenchJson() is the single emission path for the BENCH_*.json
 * result files: a streaming JsonWriter with a fixed envelope
 * (schema + bench name), replacing the per-bench hand-rolled
 * fprintf JSON that used to drift apart. The envelope shape is
 * pinned by tests/core/test_bench_schema.cc.
 */

#ifndef TRUST_BENCH_BENCH_OBS_UTIL_HH
#define TRUST_BENCH_BENCH_OBS_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/obs/json.hh"
#include "core/obs/obs.hh"

namespace trust::benchutil {

/** Parsed observability output destinations (empty = off). */
struct ObsOptions
{
    std::string traceOut;
    std::string metricsOut;
    std::string auditOut;

    bool
    any() const
    {
        return !traceOut.empty() || !metricsOut.empty() ||
               !auditOut.empty();
    }
};

/**
 * Strip the --trace-out/--metrics-out/--audit-out flags from argv
 * and enable the observability layer when any was given.
 */
inline ObsOptions
parseObsFlags(int &argc, char **argv)
{
    ObsOptions opts;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto match = [&](std::string_view prefix,
                               std::string &dest) {
            if (arg.substr(0, prefix.size()) != prefix)
                return false;
            dest = std::string(arg.substr(prefix.size()));
            return true;
        };
        if (match("--trace-out=", opts.traceOut) ||
            match("--metrics-out=", opts.metricsOut) ||
            match("--audit-out=", opts.auditOut))
            continue;
        argv[out++] = argv[i];
    }
    argc = out;
    if (opts.any())
        core::obs::setEnabled(true);
    return opts;
}

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
 * Nearest-rank quantile @p q in [0, 1] of an ascending-sorted
 * sample (0 for an empty one).
 */
inline double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** Dump whatever outputs were requested (call after the workload). */
inline void
writeObsOutputs(const ObsOptions &opts)
{
    if (opts.traceOut.empty() && opts.metricsOut.empty() &&
        opts.auditOut.empty())
        return;
    namespace obs = core::obs;
    if (!opts.traceOut.empty() &&
        writeTextFile(opts.traceOut, obs::tracer().toChromeJson()))
        std::printf("wrote %s (%zu trace events)\n",
                    opts.traceOut.c_str(), obs::tracer().eventCount());
    if (!opts.metricsOut.empty() &&
        writeTextFile(opts.metricsOut, obs::metrics().toJson()))
        std::printf("wrote %s\n", opts.metricsOut.c_str());
    if (!opts.auditOut.empty() &&
        writeTextFile(opts.auditOut, obs::audit().serialize()))
        std::printf("wrote %s (%zu audit records)\n",
                    opts.auditOut.c_str(), obs::audit().size());
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
