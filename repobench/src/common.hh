/**
 * @file
 * Shared machinery of the repository benchmark: options, the result
 * record every workload fills, latency statistics, process CPU and
 * RSS probes, and the outside-in span tracer.
 *
 * The tracer times the benchmark's own calls into each layer's public
 * functions. Spans live in memory (name, start, end, parent, op id,
 * all on steady_clock) and are written once at exit; a layer's self
 * time is its span minus the part its child spans cover.
 */

#ifndef REPOBENCH_COMMON_HH
#define REPOBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace repobench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /** Smoke size: a few seconds, exercising the correctness gate. */
    bool smoke = false;
    /** Directory the span dump is written to (created if missing). */
    std::string traceDir = ".bench_build/traces";
    /** Provenance stamped by the wrapper (source digest, commit). */
    std::string source = "unknown";
    std::string commit = "unknown";
};

/** Monotonic nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process CPU time (user + sys, all threads) in nanoseconds. */
std::int64_t cpuNs();

/** Peak resident set of this process in MiB. */
double peakRssMib();

/** Nearest-rank percentile of @p values (q in [0, 1]); sorts a copy. */
double percentile(std::vector<double> values, double q);

/** Median of @p values. */
double median(std::vector<double> values);

/** Mean of @p values (0 for none). */
double mean(const std::vector<double> &values);

/** Ratio that is 0 when the denominator is 0. */
double ratio(double num, double den);

// --- Host speed ------------------------------------------------------------

/** Phase of a run a speed probe sample belongs to. */
enum class Phase : std::uint8_t
{
    Setup,
    Timed,
    Recover,
    Count_
};

/**
 * Run the host-speed probe at a quiescent point and record its pass
 * times under @p phase; returns the median pass time of this call in
 * ns. The probe is a fixed dose of float, integer and frame-copy work
 * owned by the benchmark. One untimed pass first brings its buffers
 * back into cache, then four back-to-back passes are timed, so a pass
 * time depends neither on what the program's ops left in the caches
 * nor on the program's own footprint. Call it only while no other
 * thread of the benchmark runs. Thread-safe.
 *
 * Why: the benchmark runs on shared virtual machines whose CPU speed
 * drifts by up to ±30%, from one second to the next and over minutes
 * (other tenants on the same cores). Every time metric moves with
 * that drift, and so does the probe. See ProbedSeries.
 */
double speedProbe(Phase phase);

/** Median probe pass recorded under @p phase, in ns (0 for none). */
double probeMedianNs(Phase phase);

/**
 * Measurements taken in segments separated by speed probes: probe(),
 * work, probe(), work, ..., probe(). The values, wall time and CPU
 * time of a segment are scaled by a nominal pass time over the mean
 * pass time of the probes on either side of it, that is, to a nominal
 * host speed. The nominal time is one constant for every phase and
 * workload, so it only sets the scale of the numbers and cancels in
 * any comparison of two runs on one host. Not thread-safe.
 */
class ProbedSeries
{
  public:
    /** @p calls: speedProbe() calls per probe point (median taken). */
    explicit ProbedSeries(Phase phase, int calls)
        : phase_(phase), calls_(calls)
    {
    }

    /** Record a value measured in the open segment. */
    void add(double value) { raw_.push_back(value); }
    void reserve(std::size_t n)
    {
        raw_.reserve(n);
        scaled_.reserve(n);
    }

    /**
     * Probe at a quiescent point: close the open segment (scaling its
     * values, wall and CPU time) and open the next one.
     */
    void probe();

    /** True when a probe opened the series and followed every value. */
    bool closed() const { return opened_ && scaled_.size() == raw_.size(); }
    const std::vector<double> &raw() const { return raw_; }
    const std::vector<double> &scaled() const { return scaled_; }
    /** Wall and CPU time of the segments (probes excluded), in s. */
    double wallS() const { return wallS_; }
    double cpuS() const { return cpuS_; }
    double scaledWallS() const { return scaledWallS_; }
    double scaledCpuS() const { return scaledCpuS_; }

  private:
    Phase phase_;
    int calls_;
    bool opened_ = false;
    std::vector<double> raw_, scaled_;
    double lastPassNs_ = 0.0;
    std::int64_t openWallNs_ = 0, openCpuNs_ = 0;
    double wallS_ = 0.0, cpuS_ = 0.0, scaledWallS_ = 0.0, scaledCpuS_ = 0.0;
};

// --- Tracing ---------------------------------------------------------------

/** Span names: one per layer boundary the benchmark calls across. */
enum class SpanName : std::uint8_t
{
    TouchOp,        ///< touch_verify: extract + processTouch.
    Extract,        ///< fingerprint::extractTemplate.
    ProcessTouch,   ///< FlockModule::processTouch.
    RoundTrip,      ///< browse: one touch -> page round trip.
    DeviceRequest,  ///< MobileDevice::onTouch (capture, match, MAC).
    DeviceReply,    ///< queue.run(): delivery + reply handling.
    ServerHandle,   ///< WebServer::handleTimed.
    PutSession,     ///< TrustStore::putSession.
    EraseSession,   ///< TrustStore::eraseSession.
    PutAccount,     ///< TrustStore::putAccount.
    Recover,        ///< TrustStore construction + recover().
    WalRead,        ///< SimulatedStorage::readAll over segments.
    WalScan,        ///< core::wal::scanWalBytes over segments.
    Count_
};

const char *spanName(SpanName name);

/** One recorded span. parent is an index into the span list or -1. */
struct Span
{
    SpanName name;
    std::int32_t parent;
    std::uint32_t thread;
    std::uint64_t op;
    std::int64_t startNs;
    std::int64_t endNs;
};

/** Per-name aggregate kept online, so a span cap never skews it. */
struct SpanStats
{
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
};

/**
 * One thread's span recorder. Not thread-safe: each client thread
 * owns one and the results are merged after the threads join.
 */
class Trace
{
  public:
    explicit Trace(std::uint32_t thread = 0,
                   std::size_t maxStored = 200000)
        : thread_(thread), maxStored_(maxStored)
    {
    }

    void begin(SpanName name, std::uint64_t op);
    /** Close the innermost span; returns its duration in ns. */
    std::int64_t end();

    const std::vector<Span> &spans() const { return spans_; }
    const SpanStats &stats(SpanName name) const
    {
        return stats_[static_cast<std::size_t>(name)];
    }
    std::uint64_t dropped() const { return dropped_; }

    /** Fold @p other's aggregates and spans into this trace. */
    void merge(const Trace &other);

  private:
    struct Open
    {
        SpanName name;
        std::int64_t startNs;
        std::int64_t childNs;
        std::int32_t stored; ///< Index in spans_, or -1 when dropped.
    };

    std::uint32_t thread_;
    std::size_t maxStored_;
    std::vector<Open> open_;
    std::vector<Span> spans_;
    SpanStats stats_[static_cast<std::size_t>(SpanName::Count_)] = {};
    std::uint64_t dropped_ = 0;
};

/** RAII span; a null trace makes it a no-op (the untraced path). */
class Scope
{
  public:
    Scope(Trace *trace, SpanName name, std::uint64_t op) : trace_(trace)
    {
        if (trace_)
            trace_->begin(name, op);
    }
    ~Scope()
    {
        if (trace_)
            trace_->end();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Trace *trace_;
};

// --- Results ---------------------------------------------------------------

/** A named value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What the timed phase of a workload measured, in the common shape
 * the end-to-end metrics are computed from.
 */
struct TimedPhase
{
    /**
     * One latency per timed op; wall and CPU time of the ops. Probe
     * points come every second or so, each with 8 speedProbe() calls,
     * so that every segment's scale rests on 64 probe passes.
     */
    ProbedSeries latencyMs{Phase::Timed, 8};
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;     ///< Correct/accepted outcome.
    std::uint64_t failed = 0; ///< Violated a correctness gate.
};

/** Everything one run reports. */
struct Outcome
{
    bool correct = true;
    std::vector<std::string> failures; ///< Gate failures, one a line.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Extra lines of context (sample counts, sizes). */
    std::map<std::string, double> details;

    /** Record a gate failure (marks the run incorrect). */
    void fail(const std::string &why)
    {
        correct = false;
        failures.push_back(why);
    }
};

/**
 * Run @p setup @p repeats times, keeping only the last instance, and
 * return the wall time of each in seconds. Each earlier instance is
 * destroyed before the next starts, so peak memory is one instance.
 */
template <typename T>
ProbedSeries
repeatedSetup(int repeats, const std::function<T()> &setup, T &out)
{
    ProbedSeries seconds(Phase::Setup, 4);
    for (int r = 0; r < repeats; ++r) {
        out = T{};
        seconds.probe();
        const std::int64_t t0 = nowNs();
        out = setup();
        seconds.add(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    seconds.probe();
    return seconds;
}

/**
 * The end-to-end metric set every workload reports with tracing off,
 * at the nominal host speed (see ProbedSeries); the raw values go in
 * the details. @p setupS holds the set-up times and @p recoverMs the
 * individual recovery times.
 */
void addEndToEnd(Outcome &out, const ProbedSeries &setupS,
                 const TimedPhase &phase, const ProbedSeries &recoverMs);

/**
 * The per-layer metric set every workload reports with tracing on.
 * Names missing from @p layer are layers the workload bypasses: they
 * are reported as 0 and listed in the run's details.
 */
void addPerLayer(Outcome &out, const std::map<std::string, double> &layer);

/** Names and units of the per-layer metrics, in report order. */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/**
 * Write the merged trace (spans plus the self-time table) as JSON and
 * print the self-time table on stderr.
 */
void dumpTrace(const Options &options, const Trace &trace);

/** Mean duration in ms of the spans named @p name (0 for none). */
double spanMeanMs(const Trace &trace, SpanName name);

/** Mean self time in ms of the spans named @p name (0 for none). */
double spanSelfMeanMs(const Trace &trace, SpanName name);

/**
 * Op-block schedule of a traced run: ops alternate between untraced
 * and traced blocks, so both modes see the same state progression
 * and the tracing overhead is measured under the same drift.
 */
inline bool
opIsTraced(bool traceMode, std::uint64_t op)
{
    constexpr std::uint64_t kBlock = 32;
    return traceMode && (op / kBlock) % 2 == 1;
}

/**
 * Tracing overhead from per-op latencies split by mode: fills
 * trace.ops_per_s_traced, trace.ops_per_s_untraced and
 * trace.overhead_frac (traced time per op over untraced, minus one).
 * @p clients scales per-client op rates to the whole workload.
 */
void addTraceOverhead(std::map<std::string, double> &layer,
                      const std::vector<double> &tracedMs,
                      const std::vector<double> &untracedMs, int clients);

} // namespace repobench

#endif // REPOBENCH_COMMON_HH
