/**
 * @file
 * Reproduces the behaviour of the **Fig. 6** continuous/opportunistic
 * local authentication loop: per-touch outcome rates for genuine
 * users and impostors, the FAR/FRR trade-off across the match
 * acceptance threshold, and the end-to-end effect — how fast a thief
 * gets locked out vs how rarely the owner does.
 *
 * Expected shape: a clear genuine/impostor separation, FAR falling
 * (and FRR rising) with the threshold, thief lockout within a few
 * covered touches, owner false lockouts rare.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>
#include <vector>

#include "core/csv.hh"
#include "core/rng.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/matcher.hh"
#include "fingerprint/synthesis.hh"
#include "touch/session.hh"
#include "trust/local_manager.hh"
#include "trust/scenario.hh"

namespace core = trust::core;
namespace fp = trust::fingerprint;
namespace touch = trust::touch;
namespace proto = trust::trust;

namespace {

/** Multi-view enrollment like the device setup flow. */
std::vector<std::vector<fp::Minutia>>
enroll(const fp::MasterFinger &finger, core::Rng &rng)
{
    std::vector<std::vector<fp::Minutia>> views;
    while (views.size() < 6) {
        fp::CaptureConditions cc;
        cc.windowRows = 138;
        cc.windowCols = 138;
        const auto cap = fp::captureTemplateFast(finger, cc, rng);
        if (cap.minutiae.size() >= 8)
            views.push_back(cap.minutiae);
    }
    return views;
}

void
printFarFrrSweep()
{
    std::printf("=== Fig. 6 matcher operating curve: FAR/FRR vs "
                "accept threshold (4 mm opportunistic windows) ===\n");
    core::Rng rng(20260706);
    const int n_fingers = 8;
    std::vector<fp::MasterFinger> fingers;
    std::vector<std::vector<std::vector<fp::Minutia>>> templates;
    for (int i = 0; i < n_fingers; ++i) {
        fingers.push_back(fp::synthesizeFinger(
            static_cast<std::uint64_t>(i), rng));
        templates.push_back(enroll(fingers.back(), rng));
    }

    // Collect raw scores once.
    struct Sample
    {
        double score;
        int paired;
        int votes;
        bool genuine;
    };
    std::vector<Sample> samples;
    fp::MatchParams loose; // tolerances only; gates applied below
    for (int trial = 0; trial < 600; ++trial) {
        const int fi = trial % n_fingers;
        const auto cc = fp::sampleTouchConditions(79, 79, 0.2, rng);
        const auto cap = fp::captureTemplateFast(fingers[
            static_cast<std::size_t>(fi)], cc, rng);
        if (cap.quality < 0.45 || cap.minutiae.size() < 6)
            continue;
        const auto genuine = fp::matchAgainstViews(
            templates[static_cast<std::size_t>(fi)], cap.minutiae,
            loose);
        samples.push_back(
            {genuine.score, genuine.paired, genuine.votes, true});
        const auto impostor = fp::matchAgainstViews(
            templates[static_cast<std::size_t>((fi + 3) % n_fingers)],
            cap.minutiae, loose);
        samples.push_back(
            {impostor.score, impostor.paired, impostor.votes, false});
    }

    core::Table table({"threshold", "min votes", "FRR", "FAR"});
    for (double th : {0.30, 0.40, 0.50, 0.60}) {
        for (int votes : {5, 7, 12, 18}) {
            int ga = 0, gn = 0, ia = 0, in = 0;
            for (const auto &s : samples) {
                const bool accepted =
                    s.score >= th && s.paired >= 5 && s.votes >= votes;
                if (s.genuine) {
                    ++gn;
                    ga += accepted;
                } else {
                    ++in;
                    ia += accepted;
                }
            }
            table.addRow({core::Table::num(th, 2),
                          std::to_string(votes),
                          core::Table::num(
                              100.0 * (1.0 - static_cast<double>(ga) /
                                                 gn),
                              1) +
                              " %",
                          core::Table::num(
                              100.0 * static_cast<double>(ia) / in, 2) +
                              " %"});
        }
    }
    table.print();
}

void
printSessionStudy()
{
    std::printf("\n=== Fig. 6 end-to-end: lockout behaviour ===\n");
    core::Rng rng(99);
    const auto owner = fp::synthesizeFinger(1, rng);
    const auto thief = fp::synthesizeFinger(2, rng);
    const auto behavior = touch::UserBehavior::forUser(
        5, {touch::homeScreenLayout(), touch::keyboardLayout()});

    const int runs = 20;
    core::RunningStat thief_touches_to_lock;
    int owner_lockouts = 0;
    std::uint64_t owner_touches = 0;
    core::CounterSet outcomes;

    for (int run = 0; run < runs; ++run) {
        auto screen = proto::makeOptimizedScreen(
            behavior, 4, 7.0, 300 + static_cast<std::uint64_t>(run));
        trust::crypto::Csprng ca_rng(std::uint64_t{1});
        trust::crypto::CertificateAuthority ca("CA", 512, ca_rng);
        proto::FlockModule flock("bench-flock", ca.rootKey(),
                                 400 + static_cast<std::uint64_t>(run));
        core::Rng enroll_rng(500 + static_cast<std::uint64_t>(run));
        flock.enrollFinger(enroll(owner, enroll_rng));
        proto::LocalIdentityManager manager(screen, flock);

        touch::TouchEvent unlock_touch;
        unlock_touch.position = screen.sensors()[0].region.center();
        unlock_touch.speed = 0.05;
        while (!manager.attemptUnlock(unlock_touch, &owner, rng)) {
        }

        // Owner phase.
        for (const auto &event :
             touch::generateSession(behavior, rng, 0, 150)) {
            const auto outcome =
                manager.processTouch(event, &owner, rng);
            ++owner_touches;
            switch (outcome) {
              case proto::TouchOutcome::Matched:
                outcomes.bump("owner-matched");
                break;
              case proto::TouchOutcome::Rejected:
                outcomes.bump("owner-rejected");
                break;
              case proto::TouchOutcome::LowQuality:
                outcomes.bump("owner-low-quality");
                break;
              case proto::TouchOutcome::NotCovered:
                outcomes.bump("owner-not-covered");
                break;
              case proto::TouchOutcome::SensorDegraded:
                outcomes.bump("owner-sensor-degraded");
                break;
            }
            if (manager.state() == proto::LockState::Locked) {
                ++owner_lockouts;
                while (!manager.attemptUnlock(unlock_touch, &owner,
                                              rng)) {
                }
            }
        }

        // Thief phase.
        int thief_count = 0;
        for (const auto &event :
             touch::generateSession(behavior, rng, 0, 500)) {
            manager.processTouch(event, &thief, rng);
            ++thief_count;
            if (manager.state() == proto::LockState::Locked)
                break;
        }
        thief_touches_to_lock.add(thief_count);
    }

    const double total_owner = static_cast<double>(owner_touches);
    std::printf("Owner per-touch outcomes over %llu touches:\n",
                static_cast<unsigned long long>(owner_touches));
    for (const char *key : {"owner-matched", "owner-rejected",
                            "owner-low-quality", "owner-not-covered"})
        std::printf("  %-18s %5.1f %%\n", key,
                    100.0 * static_cast<double>(outcomes.get(key)) /
                        total_owner);
    std::printf("Owner false lockouts: %d in %llu touches (%.2f per "
                "1000)\n",
                owner_lockouts,
                static_cast<unsigned long long>(owner_touches),
                1000.0 * owner_lockouts / total_owner);
    std::printf("Thief touches until lock: mean %.1f, min %.0f, max "
                "%.0f (over %d runs)\n",
                thief_touches_to_lock.mean(),
                thief_touches_to_lock.min(),
                thief_touches_to_lock.max(), runs);
}

void
BM_ProcessTouch(benchmark::State &state)
{
    core::Rng rng(7);
    const auto owner = fp::synthesizeFinger(1, rng);
    const auto behavior = touch::UserBehavior::forUser(
        5, {touch::homeScreenLayout()});
    auto screen = proto::makeOptimizedScreen(behavior, 4, 7.0, 77);
    trust::crypto::Csprng ca_rng(std::uint64_t{2});
    trust::crypto::CertificateAuthority ca("CA", 512, ca_rng);
    proto::FlockModule flock("bm-flock", ca.rootKey(), 78);
    core::Rng enroll_rng(79);
    flock.enrollFinger(enroll(owner, enroll_rng));
    proto::LocalIdentityManager manager(screen, flock);

    const auto events = touch::generateSession(behavior, rng, 0, 64);
    std::size_t i = 0;
    for (auto _ : state) {
        auto outcome = manager.processTouch(
            events[i++ % events.size()], &owner, rng);
        benchmark::DoNotOptimize(outcome);
    }
}
BENCHMARK(BM_ProcessTouch);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, [] {
        printFarFrrSweep();
        printSessionStudy();
    });
}
