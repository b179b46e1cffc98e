/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   repobench --workload touch_verify|browse|population --seed N
 *             --seconds S --trace 0|1 [--smoke] [--trace-dir DIR]
 *             [--source DIGEST] [--commit SHA]
 *
 * Prints provenance and sample counts, then, as the last line of
 * standard output, one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
 * set; with --trace 1 they are the per-layer set plus the tracing
 * overhead. Exits non-zero when a correctness gate fails.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hh"
#include "workloads.hh"

namespace {

using repobench::Options;
using repobench::Outcome;

#ifndef REPOBENCH_BUILD_TYPE
#define REPOBENCH_BUILD_TYPE "unknown"
#endif
#ifndef REPOBENCH_COMPILER
#define REPOBENCH_COMPILER "unknown"
#endif

/** CPU brand string from cpuid (no file reads), or "unknown". */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                    &regs[i * 4 + 2], &regs[i * 4 + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
#else
    return "unknown";
#endif
}

bool
optimizedBuild()
{
#if defined(__OPTIMIZE__)
    const std::string type = REPOBENCH_BUILD_TYPE;
    return type == "Release" || type == "RelWithDebInfo";
#else
    return false;
#endif
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "repobench: %s\nusage: repobench --workload "
                 "touch_verify|browse|population --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--trace-dir DIR] [--source D] "
                 "[--commit C]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--smoke") {
            options.smoke = true;
        } else if (!has_value) {
            return usage(("missing value for " + arg).c_str());
        } else if (arg == "--workload") {
            options.workload = argv[++i];
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::atoi(argv[++i]);
        } else if (arg == "--trace") {
            options.trace = std::string(argv[++i]) == "1";
        } else if (arg == "--trace-dir") {
            options.traceDir = argv[++i];
        } else if (arg == "--source") {
            options.source = argv[++i];
        } else if (arg == "--commit") {
            options.commit = argv[++i];
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload)
        return usage("--workload is required");
    if (options.seconds < 1 || options.seconds > 600)
        return usage("--seconds must be in [1, 600]");
    if (!optimizedBuild()) {
        std::fprintf(stderr, "repobench: refusing to measure an "
                             "unoptimized build (%s)\n",
                     REPOBENCH_BUILD_TYPE);
        return 3;
    }

    const repobench::WorkloadFn run =
        repobench::findWorkload(options.workload);
    if (!run)
        return usage(("unknown workload " + options.workload).c_str());

    const unsigned nproc = std::thread::hardware_concurrency();
    std::printf("provenance {\"workload\":%s,\"seed\":%llu,"
                "\"seconds\":%d,\"trace\":%d,\"smoke\":%d,\"nproc\":%u,"
                "\"cpu\":%s,\"compiler\":%s,\"build_type\":%s,"
                "\"commit\":%s,\"source\":%s}\n",
                jsonString(options.workload).c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0,
                options.smoke ? 1 : 0, nproc,
                jsonString(cpuModel()).c_str(),
                jsonString(std::string(REPOBENCH_COMPILER) + " / " +
                           __VERSION__)
                    .c_str(),
                jsonString(REPOBENCH_BUILD_TYPE).c_str(),
                jsonString(options.commit).c_str(),
                jsonString(options.source).c_str());
    std::fflush(stdout);

    Outcome out = run(options);
    for (const auto &m : out.metrics)
        if (!std::isfinite(m.value))
            out.fail("metric " + m.name + " is not finite");
    if (out.attempted == 0)
        out.fail("no op was attempted");

    std::printf("details {");
    bool first = true;
    for (const auto &[name, value] : out.details) {
        std::printf("%s%s:%s", first ? "" : ",", jsonString(name).c_str(),
                    jsonNumber(value).c_str());
        first = false;
    }
    std::printf("}\n");
    for (const auto &why : out.failures)
        std::printf("gate failed: %s\n", why.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    first = true;
    for (const auto &m : out.metrics) {
        std::printf("%s%s: {\"value\": %s, \"unit\": %s}",
                    first ? "" : ", ", jsonString(m.name).c_str(),
                    jsonNumber(m.value).c_str(),
                    jsonString(m.unit).c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return out.correct ? 0 : 1;
}
