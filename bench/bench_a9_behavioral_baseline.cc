/**
 * @file
 * Ablation **A9**: fingerprint vs behavioural continuous auth.
 *
 * The paper claims (Sec. V / conclusions) that fingerprint-based
 * continuous authentication is stronger than the behavioural
 * implicit-auth systems it cites ([8] gestures, [17] keystrokes,
 * [18] behaviour learning). This bench measures both on identical
 * workloads: an impostor takes over mid-session; how many touches
 * until each detector flags, and how often each falsely flags the
 * genuine owner.
 *
 * Expected shape: behavioural auth detects *some* impostors slowly
 * and probabilistically (users overlap in habits, Fig. 7);
 * fingerprint k-of-n detects within about one window of covered
 * touches with near-zero equal-behaviour leakage — the paper's
 * superiority claim, quantified.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "core/rng.hh"
#include "core/stats.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/matcher.hh"
#include "fingerprint/synthesis.hh"
#include "touch/behavioral_auth.hh"
#include "touch/session.hh"
#include "trust/identity_risk.hh"

namespace core = trust::core;
namespace fp = trust::fingerprint;
namespace touch = trust::touch;
namespace proto = trust::trust;

namespace {

touch::UserBehavior
user(std::uint64_t seed)
{
    return touch::UserBehavior::forUser(
        seed, {touch::homeScreenLayout(), touch::keyboardLayout(),
               touch::browserLayout()});
}

void
printComparison()
{
    std::printf("=== A9: fingerprint vs behavioural continuous "
                "authentication ===\n");
    core::Rng rng(9090);

    // Shared fingerprint assets.
    const auto owner_finger = fp::synthesizeFinger(1, rng);
    std::vector<std::vector<fp::Minutia>> views;
    while (views.size() < 6) {
        fp::CaptureConditions cc;
        cc.windowRows = 138;
        cc.windowCols = 138;
        const auto cap =
            fp::captureTemplateFast(owner_finger, cc, rng);
        if (cap.minutiae.size() >= 8)
            views.push_back(cap.minutiae);
    }

    const double capture_rate = 0.19; // A1: optimized 4x7mm tiles

    core::Table table({"detector", "impostor detection (touches)",
                       "impostors missed (200-touch budget)",
                       "genuine false flags / 1000 touches"});

    // --- Behavioural detector over 10 impostor identities. ---
    {
        const auto owner = user(1);
        const auto profile = touch::BehaviorProfile::train(
            touch::generateSession(owner, rng, 0, 600));
        const double threshold =
            touch::BehavioralAuthenticator::calibrate(
                profile,
                touch::generateSession(owner, rng, 0, 600), 8, 0.02);

        core::RunningStat latency;
        int missed = 0;
        for (std::uint64_t imp = 0; imp < 10; ++imp) {
            const auto impostor = user(1000 + imp * 97);
            touch::BehavioralAuthenticator auth(profile, 8,
                                                threshold);
            // Warm the window with the owner.
            for (const auto &e :
                 touch::generateSession(owner, rng, 0, 8))
                auth.record(e);
            int touches = 0;
            bool caught = false;
            for (const auto &e :
                 touch::generateSession(impostor, rng, 0, 200)) {
                auth.record(e);
                ++touches;
                if (auth.flagged()) {
                    caught = true;
                    break;
                }
            }
            if (caught)
                latency.add(touches);
            else
                ++missed;
        }

        int false_flags = 0;
        touch::BehavioralAuthenticator auth(profile, 8, threshold);
        const auto genuine_run =
            touch::generateSession(owner, rng, 0, 5000);
        for (const auto &e : genuine_run) {
            auth.record(e);
            if (auth.flagged()) {
                ++false_flags;
                auth.reset();
            }
        }
        table.addRow(
            {"behavioural (gesture stats, [8]-style)",
             latency.count()
                 ? core::Table::num(latency.mean(), 1) + " (mean)"
                 : "-",
             std::to_string(missed) + "/10",
             core::Table::num(false_flags / 5.0, 2)});
    }

    // --- Fingerprint k-of-n detector over 10 impostor fingers. ---
    {
        core::RunningStat latency;
        int missed = 0;
        for (std::uint64_t imp = 0; imp < 10; ++imp) {
            const auto impostor_finger =
                fp::synthesizeFinger(100 + imp, rng);
            proto::IdentityRisk risk(8, 2);
            // Warm with owner evidence.
            for (int i = 0; i < 8; ++i)
                risk.record(proto::TouchOutcome::Matched);
            int touches = 0;
            bool caught = false;
            while (touches < 200) {
                ++touches;
                if (!rng.chance(capture_rate)) {
                    risk.record(proto::TouchOutcome::NotCovered);
                } else {
                    const auto cc = fp::sampleTouchConditions(
                        79, 79, 0.2, rng);
                    const auto cap = fp::captureTemplateFast(
                        impostor_finger, cc, rng);
                    if (cap.quality < 0.45 ||
                        cap.minutiae.size() < 6) {
                        risk.record(proto::TouchOutcome::LowQuality);
                    } else {
                        risk.record(
                            fp::matchAgainstViews(views,
                                                  cap.minutiae)
                                    .accepted
                                ? proto::TouchOutcome::Matched
                                : proto::TouchOutcome::Rejected);
                    }
                }
                if (risk.violated() || risk.hardFailure()) {
                    caught = true;
                    break;
                }
            }
            if (caught)
                latency.add(touches);
            else
                ++missed;
        }

        // Genuine false flags.
        int false_flags = 0;
        proto::IdentityRisk risk(8, 2);
        for (int i = 0; i < 5000; ++i) {
            if (!rng.chance(capture_rate)) {
                risk.record(proto::TouchOutcome::NotCovered);
            } else {
                const auto cc =
                    fp::sampleTouchConditions(79, 79, 0.2, rng);
                const auto cap = fp::captureTemplateFast(
                    owner_finger, cc, rng);
                if (cap.quality < 0.45 || cap.minutiae.size() < 6) {
                    risk.record(proto::TouchOutcome::LowQuality);
                } else {
                    risk.record(
                        fp::matchAgainstViews(views, cap.minutiae)
                                .accepted
                            ? proto::TouchOutcome::Matched
                            : proto::TouchOutcome::Rejected);
                }
            }
            if (risk.violated() || risk.hardFailure()) {
                ++false_flags;
                risk.reset();
            }
        }
        table.addRow(
            {"fingerprint k-of-n (this work)",
             latency.count()
                 ? core::Table::num(latency.mean(), 1) + " (mean)"
                 : "-",
             std::to_string(missed) + "/10",
             core::Table::num(false_flags / 5.0, 2)});
    }

    table.print();
    std::printf("\nBehavioural auth depends on the impostor behaving "
                "differently (users share hot spots, Fig. 7) and can "
                "miss entirely; fingerprint evidence is identity-"
                "bound: every covered touch is a direct test. The "
                "trade is coverage: fingerprint detection waits for "
                "touches that land on sensor tiles.\n");
}

void
BM_BehavioralScore(benchmark::State &state)
{
    core::Rng rng(1);
    const auto owner = user(1);
    const auto profile = touch::BehaviorProfile::train(
        touch::generateSession(owner, rng, 0, 100));
    const auto events = touch::generateSession(owner, rng, 0, 64);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            profile.logLikelihood(events[i++ % events.size()]));
    }
}
BENCHMARK(BM_BehavioralScore);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printComparison);
}
