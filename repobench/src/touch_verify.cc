/**
 * @file
 * touch_verify: the device fingerprint path on one thread.
 *
 * Op: fingerprint::extractTemplate on a pre-captured impression, then
 * FlockModule::processTouch (batch match + risk window). No frame
 * hashing, session crypto or storage runs, so this is the workload
 * that moves with the image pipeline and the matcher and the one
 * that must not move with server or storage changes.
 */

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>

#include "core/parallel.hh"
#include "core/rng.hh"
#include "crypto/cert.hh"
#include "crypto/csprng.hh"
#include "crypto/mont_cache.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/enhance.hh"
#include "fingerprint/pipeline.hh"
#include "fingerprint/synthesis.hh"
#include "trust/flock.hh"

#include "workloads.hh"

namespace repobench {

namespace fp = trust::fingerprint;
namespace tt = trust::trust;

namespace {

constexpr int kWindow = 96;
constexpr int kFingers = 3;
constexpr int kViews = 3;
constexpr int kStrangers = 4;
/** Impressions per pool: large enough that per-seed mixes average out. */
constexpr int kPool = 240;
constexpr int kSmokePool = 24;
/** Nominal rate that sizes the op budget from --seconds. */
constexpr int kOpsPerSecond = 330;
/**
 * Template reloads: about 1 s of them, so that recover_ms averages
 * over the host's drift, with a probe point every kRecoverProbeEvery.
 */
constexpr int kRecoveries = 4096;
constexpr int kRecoverProbeEvery = 512;
constexpr std::uint64_t kCohortSeed = 20121201;
/** Ops between host-speed probe points (about 0.7 s; see common.hh). */
constexpr std::uint64_t kProbeEvery = 256;

enum class Truth : std::uint8_t
{
    Owner,    ///< Must be Matched.
    Impostor, ///< Must not be Matched.
    Sloppy,   ///< Fast, light, noisy touch: the gate must reject it.
};

struct Impression
{
    fp::FingerprintImage image;
    Truth truth;
};

struct State
{
    std::unique_ptr<trust::crypto::CertificateAuthority> ca;
    std::optional<tt::FlockModule> flock;
    std::vector<trust::core::Bytes> serializedViews;
    std::vector<Impression> pool;
};

std::optional<fp::FingerprintTemplate>
enrollView(const fp::MasterFinger &finger, trust::core::Rng &rng)
{
    for (int attempt = 0; attempt < 16; ++attempt) {
        fp::CaptureConditions cc;
        cc.windowRows = kWindow;
        cc.windowCols = kWindow;
        cc.pressure = 0.95;
        cc.noiseSigma = 0.02;
        cc.centerOffset = {rng.normal(0.0, 6.0), rng.normal(0.0, 6.0)};
        auto tpl = fp::extractTemplate(fp::captureImpression(finger, cc, rng));
        if (tpl && tpl->minutiae.size() >= 8)
            return tpl;
    }
    return std::nullopt;
}

std::unique_ptr<State>
setup(std::uint64_t seed, int pool_size)
{
    // Cold caches on every repetition, so each setup pays the same
    // Gabor kernel and Montgomery context fills.
    fp::clearGaborKernelCache();
    trust::crypto::clearMontgomeryCache();

    // The cohort (keys, fingers, enrolled views) is fixed; the seed
    // draws the touches, so runs on different seeds measure the same
    // users under different traffic.
    auto s = std::make_unique<State>();
    trust::crypto::Csprng ca_rng(kCohortSeed);
    s->ca = std::make_unique<trust::crypto::CertificateAuthority>(
        "BenchRootCA", 512, ca_rng);
    s->flock.emplace("bench-flock", s->ca->rootKey(), kCohortSeed + 1);

    trust::core::Rng cohort(kCohortSeed);
    std::vector<fp::MasterFinger> owners;
    std::vector<fp::MasterFinger> strangers;
    for (int f = 0; f < kFingers; ++f)
        owners.push_back(fp::synthesizeFinger(100 + f, cohort));
    for (int f = 0; f < kStrangers; ++f)
        strangers.push_back(fp::synthesizeFinger(200 + f, cohort));

    for (const auto &finger : owners) {
        std::vector<std::vector<fp::Minutia>> views;
        for (int v = 0; v < kViews; ++v) {
            if (auto tpl = enrollView(finger, cohort)) {
                s->serializedViews.push_back(tpl->serialize());
                views.push_back(std::move(tpl->minutiae));
            }
        }
        if (!views.empty())
            s->flock->enrollFinger(views);
    }

    trust::core::Rng rng(seed);
    s->pool.reserve(static_cast<std::size_t>(pool_size));
    for (int i = 0; i < pool_size; ++i) {
        // 70% owner taps, 20% impostor taps, 10% sloppy touches.
        const int kind = i % 10;
        if (kind < 7) {
            const auto &finger = owners[static_cast<std::size_t>(
                rng.uniformInt(0, kFingers - 1))];
            auto cc = fp::sampleTouchConditions(kWindow, kWindow, 0.1, rng);
            s->pool.push_back(
                {fp::captureImpression(finger, cc, rng), Truth::Owner});
        } else if (kind < 9) {
            const auto &finger = strangers[static_cast<std::size_t>(
                rng.uniformInt(0, kStrangers - 1))];
            auto cc = fp::sampleTouchConditions(kWindow, kWindow, 0.1, rng);
            s->pool.push_back(
                {fp::captureImpression(finger, cc, rng), Truth::Impostor});
        } else {
            auto cc = fp::sampleTouchConditions(kWindow, kWindow, 1.0, rng);
            cc.pressure = 0.15;
            cc.noiseSigma = 0.35;
            cc.motionBlur = 6.0;
            s->pool.push_back(
                {fp::captureImpression(owners[0], cc, rng), Truth::Sloppy});
        }
    }

    // Warm the lazy caches the timed loop would otherwise fill: the
    // Gabor kernel bank (one extraction) and every enrolled view's
    // pair index (one pure match that leaves the risk window alone).
    for (const auto &imp : s->pool) {
        if (imp.truth != Truth::Owner)
            continue;
        if (auto tpl = fp::extractTemplate(imp.image)) {
            tt::CaptureSample sample{tpl->minutiae, tpl->quality, true};
            (void)s->flock->verifyCapture(sample);
            break;
        }
    }
    return s;
}

bool
isOk(Truth truth, tt::TouchOutcome outcome)
{
    switch (truth) {
      case Truth::Owner: return outcome == tt::TouchOutcome::Matched;
      case Truth::Impostor: return outcome != tt::TouchOutcome::Matched;
      case Truth::Sloppy: return outcome == tt::TouchOutcome::LowQuality;
    }
    return false;
}

/**
 * Restore the enrolled template set from its serialized form to
 * match-ready (deserialize + pair index): the device-side boot-time
 * recovery of the state this workload depends on.
 */
double
restoreTemplatesMs(const std::vector<trust::core::Bytes> &blobs, bool *ok)
{
    const std::int64_t t0 = nowNs();
    std::vector<fp::FingerprintTemplate> restored;
    restored.reserve(blobs.size());
    for (const auto &blob : blobs) {
        auto tpl = fp::FingerprintTemplate::deserialize(blob);
        if (!tpl) {
            *ok = false;
            continue;
        }
        (void)tpl->pairIndex();
        restored.push_back(std::move(*tpl));
    }
    return static_cast<double>(nowNs() - t0) * 1e-6;
}

} // namespace

Outcome
runTouchVerify(const Options &options)
{
    Outcome out;
    trust::core::setParallelThreads(1);
    const std::uint64_t ops =
        options.smoke ? 2 * kSmokePool
                      : static_cast<std::uint64_t>(options.seconds) *
                            kOpsPerSecond;
    // At least two passes over the pool, so the decision gate bites.
    const int pool_size = options.smoke
                              ? kSmokePool
                              : static_cast<int>(std::min<std::uint64_t>(
                                    kPool, ops / 2));

    std::unique_ptr<State> state;
    const ProbedSeries setup_s = repeatedSetup<std::unique_ptr<State>>(
        options.smoke ? 1 : kSetupRepeats,
        [&] { return setup(options.seed, pool_size); }, state);
    tt::FlockModule &flock = *state->flock;
    const auto &pool = state->pool;
    if (static_cast<int>(state->serializedViews.size()) < kFingers)
        out.fail("enrollment produced too few views");

    // Timed closed loop, one op after another on this thread.
    Trace trace;
    TimedPhase phase;
    phase.latencyMs.reserve(ops);
    std::vector<double> traced_ms, untraced_ms;
    std::vector<int> first_decision(pool.size(), -1);
    std::uint64_t gate_rejects = 0, minutiae = 0, matcher_touches = 0;

    for (std::uint64_t op = 0; op < ops; ++op) {
        if (op % kProbeEvery == 0)
            phase.latencyMs.probe();
        const std::size_t idx = op % pool.size();
        const bool traced = opIsTraced(options.trace, op);
        Trace *t = traced ? &trace : nullptr;
        const std::int64_t t0 = nowNs();
        tt::TouchOutcome outcome;
        std::size_t n_minutiae = 0;
        {
            Scope op_span(t, SpanName::TouchOp, op);
            std::optional<fp::FingerprintTemplate> tpl;
            {
                Scope s(t, SpanName::Extract, op);
                tpl = fp::extractTemplate(pool[idx].image);
            }
            tt::CaptureSample sample;
            sample.covered = true;
            if (tpl) {
                n_minutiae = tpl->minutiae.size();
                sample.minutiae = std::move(tpl->minutiae);
                sample.quality = tpl->quality;
            }
            Scope s(t, SpanName::ProcessTouch, op);
            outcome = flock.processTouch(sample);
        }
        const double ms = static_cast<double>(nowNs() - t0) * 1e-6;
        phase.latencyMs.add(ms);
        (traced ? traced_ms : untraced_ms).push_back(ms);

        ++phase.attempted;
        // extractTemplate's gate and processTouch's quality/minutiae
        // floor both end as LowQuality.
        gate_rejects += outcome == tt::TouchOutcome::LowQuality ? 1 : 0;
        minutiae += n_minutiae;
        if (outcome == tt::TouchOutcome::Matched ||
            outcome == tt::TouchOutcome::Rejected)
            ++matcher_touches;
        if (isOk(pool[idx].truth, outcome))
            ++phase.ok;
        // Gate: every pass over the pool decides identically.
        const int decision = static_cast<int>(outcome);
        if (first_decision[idx] < 0)
            first_decision[idx] = decision;
        else if (first_decision[idx] != decision)
            ++phase.failed;
    }
    phase.latencyMs.probe();

    if (ops < 2 * pool.size())
        out.fail("op budget covers fewer than two passes over the pool");
    if (phase.failed > 0)
        out.fail(std::to_string(phase.failed) +
                 " touches decided differently from their first pass");

    ProbedSeries recover_ms(Phase::Recover, 8);
    recover_ms.probe();
    bool restored_ok = true;
    const int recoveries = options.smoke ? 4 : kRecoveries;
    for (int r = 1; r <= recoveries; ++r) {
        recover_ms.add(
            restoreTemplatesMs(state->serializedViews, &restored_ok));
        if (r % kRecoverProbeEvery == 0 || r == recoveries)
            recover_ms.probe();
    }
    if (!restored_ok)
        out.fail("a serialized template failed to deserialize");

    out.attempted = phase.attempted;
    out.failed = phase.failed;
    out.details["threads"] = 1;
    out.details["pool"] = static_cast<double>(pool.size());
    out.details["enrolled_views"] =
        static_cast<double>(state->serializedViews.size());
    if (!options.trace) {
        addEndToEnd(out, setup_s, phase, recover_ms);
        return out;
    }

    const auto touches = static_cast<double>(phase.attempted);
    std::map<std::string, double> layer;
    layer["fingerprint.extract_ms"] = spanMeanMs(trace, SpanName::Extract);
    layer["fingerprint.gate_reject_frac"] =
        ratio(static_cast<double>(gate_rejects), touches);
    layer["fingerprint.minutiae_per_touch"] =
        ratio(static_cast<double>(minutiae), touches);
    layer["trust.flock.views_per_touch"] =
        ratio(static_cast<double>(matcher_touches) *
                  static_cast<double>(state->serializedViews.size()),
              touches);
    layer["trust.flock.touch_ms"] =
        spanMeanMs(trace, SpanName::ProcessTouch);
    const double hits =
        static_cast<double>(trust::crypto::montgomeryCacheHits());
    layer["crypto.mont_cache_hit_frac"] = ratio(
        hits,
        hits + static_cast<double>(trust::crypto::montgomeryCacheMisses()));
    addTraceOverhead(layer, traced_ms, untraced_ms, 1);
    layer["trace.spans"] = static_cast<double>(trace.spans().size());
    layer["host.probe_us"] = probeMedianNs(Phase::Timed) * 1e-3;
    layer["host.nproc"] = std::thread::hardware_concurrency();
    addPerLayer(out, layer);
    dumpTrace(options, trace);
    return out;
}

} // namespace repobench
