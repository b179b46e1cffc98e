#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>

#include <sys/resource.h>

namespace repobench {

std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL +
           ts.tv_nsec;
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

// --- Host speed ------------------------------------------------------------

namespace {

/** Nominal probe pass time; sets the scale of reported times. */
constexpr double kNominalProbeNs = 85000;
constexpr int kProbePasses = 4;

std::mutex probeMutex;
// Pass times per phase; guarded by probeMutex.
std::vector<std::int64_t> probeSamples[static_cast<std::size_t>(Phase::Count_)];

/** One probe pass; returns its nanoseconds. */
std::int64_t
probePass()
{
    // Three kinds of work in one fixed dose, as the workloads mix them:
    // a vectorizable float multiply-add (Gabor filtering), independent
    // integer mixing lanes (hashing, matching), and a 768 KiB copy
    // (one displayed frame).
    constexpr std::size_t kFloats = 4096;
    constexpr std::size_t kFrame = 768 * 1024;
    thread_local std::vector<float> fa(kFloats, 1.0f), fb(kFloats, 0.5f);
    thread_local std::vector<std::uint8_t> src(kFrame, 1), dst(kFrame, 0);
    const std::int64_t t0 = nowNs();
    for (int pass = 0; pass < 24; ++pass)
        for (std::size_t i = 0; i < kFloats; ++i)
            fa[i] = fa[i] * 0.999f + fb[i] * 0.001f;
    std::uint64_t lane[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < 8000; ++i)
        for (auto &x : lane)
            x = (x ^ (x >> 29)) * 0xBF58476D1CE4E5B9ull + 0x9E3779B97F4A7C15ull;
    std::memcpy(dst.data(), src.data(), kFrame);
    const std::int64_t ns = nowNs() - t0;
    // Keep every part observable so none is optimized away.
    src[lane[0] % kFrame] ^= static_cast<std::uint8_t>(
        dst[lane[7] % kFrame] + (fa[lane[3] % kFloats] > 2.0f));
    return ns;
}

} // namespace

double
speedProbe(Phase phase)
{
    probePass(); // warm-up: the program's ops evicted the buffers
    std::int64_t ns[kProbePasses];
    for (auto &n : ns)
        n = probePass();
    {
        std::lock_guard<std::mutex> lock(probeMutex);
        auto &samples = probeSamples[static_cast<std::size_t>(phase)];
        samples.insert(samples.end(), std::begin(ns), std::end(ns));
    }
    return median(std::vector<double>(std::begin(ns), std::end(ns)));
}

double
probeMedianNs(Phase phase)
{
    std::vector<double> ns;
    {
        std::lock_guard<std::mutex> lock(probeMutex);
        const auto &samples = probeSamples[static_cast<std::size_t>(phase)];
        ns.assign(samples.begin(), samples.end());
    }
    return median(ns);
}

void
ProbedSeries::probe()
{
    const std::int64_t wall = nowNs();
    const std::int64_t cpu = cpuNs();
    std::vector<double> passes;
    for (int c = 0; c < calls_; ++c)
        passes.push_back(speedProbe(phase_));
    const double pass = median(passes);
    if (opened_) {
        const double f = kNominalProbeNs / (0.5 * (lastPassNs_ + pass));
        for (std::size_t i = scaled_.size(); i < raw_.size(); ++i)
            scaled_.push_back(raw_[i] * f);
        const double w = static_cast<double>(wall - openWallNs_) * 1e-9;
        const double c = static_cast<double>(cpu - openCpuNs_) * 1e-9;
        wallS_ += w;
        cpuS_ += c;
        scaledWallS_ += w * f;
        scaledCpuS_ += c * f;
    }
    opened_ = true;
    lastPassNs_ = pass;
    openCpuNs_ = cpuNs();
    openWallNs_ = nowNs();
}

// --- Tracing ---------------------------------------------------------------

const char *
spanName(SpanName name)
{
    switch (name) {
      case SpanName::TouchOp: return "touch_verify.op";
      case SpanName::Extract: return "fingerprint.extract";
      case SpanName::ProcessTouch: return "trust.flock.process_touch";
      case SpanName::RoundTrip: return "browse.round_trip";
      case SpanName::DeviceRequest: return "trust.device.request";
      case SpanName::DeviceReply: return "trust.device.reply";
      case SpanName::ServerHandle: return "trust.server.handle";
      case SpanName::PutSession: return "trust.store.put_session";
      case SpanName::EraseSession: return "trust.store.erase_session";
      case SpanName::PutAccount: return "trust.store.put_account";
      case SpanName::Recover: return "trust.store.recover";
      case SpanName::WalRead: return "core.wal.read";
      case SpanName::WalScan: return "core.wal.scan";
      case SpanName::Count_: break;
    }
    return "?";
}

void
Trace::begin(SpanName name, std::uint64_t op)
{
    const std::int64_t t = nowNs();
    std::int32_t stored = -1;
    if (spans_.size() < maxStored_) {
        const std::int32_t parent =
            open_.empty() ? -1 : open_.back().stored;
        stored = static_cast<std::int32_t>(spans_.size());
        spans_.push_back({name, parent, thread_, op, t, t});
    } else {
        ++dropped_;
    }
    open_.push_back({name, t, 0, stored});
}

std::int64_t
Trace::end()
{
    const std::int64_t t = nowNs();
    const Open span = open_.back();
    open_.pop_back();
    const std::int64_t duration = t - span.startNs;
    SpanStats &s = stats_[static_cast<std::size_t>(span.name)];
    ++s.count;
    s.totalNs += duration;
    s.selfNs += duration - span.childNs;
    if (span.stored >= 0)
        spans_[static_cast<std::size_t>(span.stored)].endNs = t;
    if (!open_.empty())
        open_.back().childNs += duration;
    return duration;
}

void
Trace::merge(const Trace &other)
{
    for (std::size_t i = 0; i < std::size(stats_); ++i) {
        stats_[i].count += other.stats_[i].count;
        stats_[i].totalNs += other.stats_[i].totalNs;
        stats_[i].selfNs += other.stats_[i].selfNs;
    }
    const auto offset = static_cast<std::int32_t>(spans_.size());
    for (Span span : other.spans_) {
        if (span.parent >= 0)
            span.parent += offset;
        spans_.push_back(span);
    }
    dropped_ += other.dropped_;
}

double
spanMeanMs(const Trace &trace, SpanName name)
{
    const SpanStats &s = trace.stats(name);
    return ratio(static_cast<double>(s.totalNs) * 1e-6,
                 static_cast<double>(s.count));
}

double
spanSelfMeanMs(const Trace &trace, SpanName name)
{
    const SpanStats &s = trace.stats(name);
    return ratio(static_cast<double>(s.selfNs) * 1e-6,
                 static_cast<double>(s.count));
}

void
dumpTrace(const Options &options, const Trace &trace)
{
    std::fprintf(stderr, "%-28s %10s %12s %12s %12s\n", "span", "count",
                 "total_ms", "self_ms", "self_mean_ms");
    for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::Count_);
         ++i) {
        const auto name = static_cast<SpanName>(i);
        const SpanStats &s = trace.stats(name);
        if (s.count == 0)
            continue;
        std::fprintf(stderr, "%-28s %10llu %12.3f %12.3f %12.6f\n",
                     spanName(name),
                     static_cast<unsigned long long>(s.count),
                     static_cast<double>(s.totalNs) * 1e-6,
                     static_cast<double>(s.selfNs) * 1e-6,
                     spanSelfMeanMs(trace, name));
    }

    std::error_code ec;
    std::filesystem::create_directories(options.traceDir, ec);
    const std::string path = options.traceDir + "/trace-" +
                             options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "repobench: cannot write %s\n", path.c_str());
        return;
    }
    os << "{\"workload\":\"" << options.workload
       << "\",\"seed\":" << options.seed << ",\"self_time\":[";
    bool first = true;
    for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::Count_);
         ++i) {
        const auto name = static_cast<SpanName>(i);
        const SpanStats &s = trace.stats(name);
        if (s.count == 0)
            continue;
        os << (first ? "" : ",") << "{\"span\":\"" << spanName(name)
           << "\",\"count\":" << s.count << ",\"total_ns\":" << s.totalNs
           << ",\"self_ns\":" << s.selfNs << "}";
        first = false;
    }
    os << "],\"dropped\":" << trace.dropped() << ",\"spans\":[";
    first = true;
    for (const Span &span : trace.spans()) {
        os << (first ? "" : ",") << "[\"" << spanName(span.name) << "\","
           << span.startNs << "," << span.endNs << "," << span.parent << ","
           << span.op << "," << span.thread << "]";
        first = false;
    }
    os << "]}\n";
    std::fprintf(stderr, "repobench: %zu spans written to %s\n",
                 trace.spans().size(), path.c_str());
}

// --- Results ---------------------------------------------------------------

void
addEndToEnd(Outcome &out, const ProbedSeries &setupS,
            const TimedPhase &phase, const ProbedSeries &recoverMs)
{
    if (!setupS.closed() || !phase.latencyMs.closed() || !recoverMs.closed())
        out.fail("a measurement was not bracketed by speed probes");
    const ProbedSeries &lat = phase.latencyMs;
    const auto n = static_cast<double>(lat.raw().size());
    out.metrics.push_back({"setup_s", median(setupS.scaled()), "s"});
    out.metrics.push_back({"ops_per_s", ratio(n, lat.scaledWallS()), "1/s"});
    out.metrics.push_back({"p50_ms", percentile(lat.scaled(), 0.50), "ms"});
    out.metrics.push_back({"p99_ms", percentile(lat.scaled(), 0.99), "ms"});
    out.metrics.push_back(
        {"cpu_ms_per_op", ratio(lat.scaledCpuS() * 1e3, n), "ms"});
    out.metrics.push_back(
        {"ok_frac",
         ratio(static_cast<double>(phase.ok),
               static_cast<double>(phase.attempted)),
         "frac"});
    out.metrics.push_back({"peak_rss_mib", peakRssMib(), "MiB"});
    out.metrics.push_back({"recover_ms", median(recoverMs.scaled()), "ms"});
    out.details["latency_samples"] = n;
    out.details["ops_beyond_p99"] = std::floor(n * 0.01);
    out.details["setups"] = static_cast<double>(setupS.raw().size());
    out.details["recoveries"] = static_cast<double>(recoverMs.raw().size());
    out.details["raw_setup_s"] = median(setupS.raw());
    out.details["raw_ops_per_s"] = ratio(n, lat.wallS());
    out.details["raw_p50_ms"] = percentile(lat.raw(), 0.50);
    out.details["raw_p99_ms"] = percentile(lat.raw(), 0.99);
    out.details["raw_cpu_ms_per_op"] = ratio(lat.cpuS() * 1e3, n);
    out.details["raw_recover_ms"] = median(recoverMs.raw());
    out.details["probe_setup_ns"] = probeMedianNs(Phase::Setup);
    out.details["probe_timed_ns"] = probeMedianNs(Phase::Timed);
    out.details["probe_recover_ns"] = probeMedianNs(Phase::Recover);
    // The probe measures the host only if it reads the same in every
    // phase when the host is steady.
    out.details["probe_timed_over_setup"] =
        ratio(probeMedianNs(Phase::Timed), probeMedianNs(Phase::Setup));
    out.details["probe_recover_over_setup"] =
        ratio(probeMedianNs(Phase::Recover), probeMedianNs(Phase::Setup));
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> k = {
        {"fingerprint.extract_ms", "ms"},
        {"fingerprint.gate_reject_frac", "frac"},
        {"fingerprint.minutiae_per_touch", "count"},
        {"trust.flock.views_per_touch", "count"},
        {"trust.flock.touch_ms", "ms"},
        {"trust.device.request_ms", "ms"},
        {"trust.device.reply_ms", "ms"},
        {"trust.server.handle_ms", "ms"},
        {"trust.server.handle_p99_ms", "ms"},
        {"trust.server.fresh_page_frac", "frac"},
        {"trust.server.audit_entries_per_req", "count"},
        {"trust.server.reject_risk_frac", "frac"},
        {"net.wire_bytes_per_op", "B"},
        {"net.messages_per_op", "count"},
        {"crypto.mont_cache_hit_frac", "frac"},
        {"trust.store.wal_bytes_per_op", "B"},
        {"trust.store.put_session_us", "us"},
        {"trust.store.erase_session_us", "us"},
        {"trust.store.put_account_us", "us"},
        {"trust.store.compaction_ms", "ms"},
        {"trust.store.snapshots", "count"},
        {"trust.store.write_amp", "ratio"},
        {"trust.store.log_mib", "MiB"},
        {"trust.store.segments", "count"},
        {"core.wal.read_ms", "ms"},
        {"core.wal.scan_ms", "ms"},
        {"trust.store.recover_1t_ms", "ms"},
        {"trust.store.replayed_per_live", "ratio"},
        {"trace.ops_per_s_traced", "1/s"},
        {"trace.ops_per_s_untraced", "1/s"},
        {"trace.overhead_frac", "frac"},
        {"trace.spans", "count"},
        {"host.nproc", "count"},
        {"host.probe_us", "us"},
    };
    return k;
}

void
addPerLayer(Outcome &out, const std::map<std::string, double> &layer)
{
    int bypassed = 0;
    for (const auto &[name, unit] : layerMetrics()) {
        const auto it = layer.find(name);
        if (it == layer.end())
            ++bypassed;
        out.metrics.push_back(
            {name, it == layer.end() ? 0.0 : it->second, unit});
    }
    for (const auto &[name, value] : layer) {
        const bool known = std::any_of(
            layerMetrics().begin(), layerMetrics().end(),
            [&](const auto &m) { return m.first == name; });
        if (!known)
            out.fail("workload produced unknown layer metric " + name);
        (void)value;
    }
    out.details["layers_bypassed"] = bypassed;
}

void
addTraceOverhead(std::map<std::string, double> &layer,
                 const std::vector<double> &tracedMs,
                 const std::vector<double> &untracedMs, int clients)
{
    const double traced = mean(tracedMs);
    const double untraced = mean(untracedMs);
    layer["trace.ops_per_s_traced"] = ratio(1e3 * clients, traced);
    layer["trace.ops_per_s_untraced"] = ratio(1e3 * clients, untraced);
    layer["trace.overhead_frac"] = ratio(traced, untraced) - 1.0;
}

} // namespace repobench
