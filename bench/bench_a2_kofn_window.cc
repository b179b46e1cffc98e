/**
 * @file
 * Ablation **A2**: the k-of-n identity-risk window (Sec. IV-A).
 *
 * Sweeps (k, n) and measures the two competing error modes on
 * simulated outcome streams drawn from the measured per-touch rates:
 * how many covered touches a thief survives before the policy fires
 * (detection latency) vs how often a genuine user is falsely locked
 * out per 1000 covered touches.
 *
 * Expected shape: larger k / smaller n detect faster but lock
 * genuine users out more; the paper's implicit sweet spot (a small
 * k over a window of ~8) gives thief detection within ~n touches at
 * negligible false lockouts.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "core/rng.hh"
#include "core/stats.hh"
#include "trust/identity_risk.hh"

namespace core = trust::core;
namespace proto = trust::trust;

namespace {

/** Measured per-touch outcome rates (from bench_fig6). */
struct OutcomeRates
{
    double matched;
    double rejected;
    double lowQuality;
};

constexpr OutcomeRates kGenuine{0.80, 0.13, 0.07};
constexpr OutcomeRates kImpostor{0.03, 0.85, 0.12};

proto::TouchOutcome
drawOutcome(const OutcomeRates &rates, core::Rng &rng)
{
    const double u = rng.uniform();
    if (u < rates.matched)
        return proto::TouchOutcome::Matched;
    if (u < rates.matched + rates.rejected)
        return proto::TouchOutcome::Rejected;
    return proto::TouchOutcome::LowQuality;
}

void
printWindowSweep()
{
    std::printf("=== A2: k-of-n window policy sweep ===\n");
    std::printf("(genuine per-touch: %.0f%% match / %.0f%% reject / "
                "%.0f%% low-quality; impostor: %.0f%% / %.0f%% / "
                "%.0f%%)\n\n",
                kGenuine.matched * 100, kGenuine.rejected * 100,
                kGenuine.lowQuality * 100, kImpostor.matched * 100,
                kImpostor.rejected * 100, kImpostor.lowQuality * 100);

    core::Table table({"n (window)", "k (required)",
                       "thief detection (covered touches)",
                       "genuine lockouts / 1000 touches"});
    core::Rng rng(42);
    for (int n : {4, 8, 12, 16}) {
        for (int k : {1, 2, 3}) {
            if (k > n)
                continue;

            // Thief detection latency.
            core::RunningStat latency;
            for (int run = 0; run < 300; ++run) {
                proto::IdentityRisk risk(n, k);
                // Window starts healthy (the owner was using it).
                for (int i = 0; i < n; ++i)
                    risk.record(drawOutcome(kGenuine, rng));
                int touches = 0;
                while (!risk.violated() && touches < 400) {
                    risk.record(drawOutcome(kImpostor, rng));
                    ++touches;
                }
                latency.add(touches);
            }

            // Genuine false lockouts per 1000 covered touches.
            int lockouts = 0;
            const int genuine_touches = 50000;
            proto::IdentityRisk risk(n, k);
            for (int i = 0; i < genuine_touches; ++i) {
                risk.record(drawOutcome(kGenuine, rng));
                if (risk.violated()) {
                    ++lockouts;
                    risk.reset();
                }
            }

            table.addRow(
                {std::to_string(n), std::to_string(k),
                 core::Table::num(latency.mean(), 1) + " (max " +
                     core::Table::num(latency.max(), 0) + ")",
                 core::Table::num(
                     1000.0 * lockouts / genuine_touches, 2)});
        }
    }
    table.print();
    std::printf("\nDetection latency ~= n - k + 1 touches once the "
                "thief's rejections displace the owner's matches; "
                "false lockouts only appear when k approaches the "
                "genuine match rate times n.\n");
}

void
BM_RiskWindowRecord(benchmark::State &state)
{
    proto::IdentityRisk risk(8, 2);
    core::Rng rng(1);
    for (auto _ : state) {
        risk.record(drawOutcome(kGenuine, rng));
        benchmark::DoNotOptimize(risk.violated());
    }
}
BENCHMARK(BM_RiskWindowRecord);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printWindowSweep);
}
