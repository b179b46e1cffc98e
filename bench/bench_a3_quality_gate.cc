/**
 * @file
 * Ablation **A3**: the quality gate (Fig. 6 step 2) vs the
 * low-quality-evasion attack (Sec. IV-A, challenge 1).
 *
 * Sweeps the gate threshold and measures (a) how many genuine
 * captures are discarded, (b) how the matcher's error rates shift
 * when low-quality captures are let through, and (c) whether an
 * impostor deliberately producing smudged touches can coast: the
 * k-of-n window counts low-quality touches, so evasion converts
 * into a lockout rather than a bypass.
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
#include "trust/identity_risk.hh"

namespace core = trust::core;
namespace fp = trust::fingerprint;
namespace proto = trust::trust;

namespace {

void
printQualityGateSweep()
{
    std::printf("=== A3: quality-gate threshold sweep ===\n");
    core::Rng rng(333);
    const auto owner = fp::synthesizeFinger(1, rng);
    const auto impostor = fp::synthesizeFinger(2, rng);

    std::vector<std::vector<fp::Minutia>> views;
    while (views.size() < 6) {
        fp::CaptureConditions cc;
        cc.windowRows = 138;
        cc.windowCols = 138;
        const auto cap = fp::captureTemplateFast(owner, cc, rng);
        if (cap.minutiae.size() >= 8)
            views.push_back(cap.minutiae);
    }

    struct Capture
    {
        double quality;
        bool genuine;
        bool matches; // matcher verdict if admitted
    };
    std::vector<Capture> captures;
    for (int i = 0; i < 800; ++i) {
        const bool genuine = i % 2 == 0;
        // Mixed speeds produce the full quality spectrum.
        const auto cc = fp::sampleTouchConditions(
            79, 79, rng.uniform(), rng);
        const auto cap = fp::captureTemplateFast(
            genuine ? owner : impostor, cc, rng);
        const bool matches =
            cap.minutiae.size() >= 6 &&
            fp::matchAgainstViews(views, cap.minutiae).accepted;
        captures.push_back({cap.quality, genuine, matches});
    }

    core::Table table({"gate threshold", "genuine discarded",
                       "FRR (admitted)", "FAR (admitted)"});
    for (double gate : {0.0, 0.2, 0.45, 0.6, 0.8}) {
        int g_total = 0, g_discard = 0, g_admit = 0, g_match = 0;
        int i_admit = 0, i_match = 0;
        for (const auto &cap : captures) {
            if (cap.genuine) {
                ++g_total;
                if (cap.quality < gate) {
                    ++g_discard;
                } else {
                    ++g_admit;
                    g_match += cap.matches;
                }
            } else if (cap.quality >= gate) {
                ++i_admit;
                i_match += cap.matches;
            }
        }
        table.addRow(
            {core::Table::num(gate, 2),
             core::Table::num(100.0 * g_discard / g_total, 1) + " %",
             g_admit ? core::Table::num(
                           100.0 * (g_admit - g_match) / g_admit, 1) +
                           " %"
                     : "-",
             i_admit ? core::Table::num(100.0 * i_match / i_admit,
                                        2) +
                           " %"
                     : "-"});
    }
    table.print();
    std::printf("\nRaising the gate discards more genuine touches "
                "but leaves the matcher a cleaner population "
                "(lower FRR among admitted captures).\n");

    // Low-quality evasion: the impostor smudges every touch.
    std::printf("\n=== A3: low-quality evasion vs the k-of-n window "
                "===\n");
    core::Table evasion({"evasion strategy",
                         "touches until policy fires"});
    for (const char *strategy : {"all low-quality", "all high-speed"}) {
        core::RunningStat latency;
        for (int run = 0; run < 200; ++run) {
            proto::IdentityRisk risk(8, 2);
            int touches = 0;
            while (!risk.violated() && touches < 200) {
                fp::CaptureConditions cc;
                if (std::string(strategy) == "all low-quality") {
                    // Deliberately unusable contact.
                    risk.record(proto::TouchOutcome::LowQuality);
                } else {
                    const auto c = fp::sampleTouchConditions(
                        79, 79, 1.0, rng);
                    const auto cap = fp::captureTemplateFast(
                        impostor, c, rng);
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
                ++touches;
            }
            latency.add(touches);
        }
        evasion.addRow({strategy,
                        core::Table::num(latency.mean(), 1) +
                            " (max " +
                            core::Table::num(latency.max(), 0) + ")"});
    }
    evasion.print();
    std::printf("\nEvasion does not pay: low-quality touches count "
                "against the window, so a smudging impostor is "
                "locked out within one window length.\n");
}

void
BM_QualityEstimate(benchmark::State &state)
{
    core::Rng rng(5);
    for (auto _ : state) {
        const auto cc = fp::sampleTouchConditions(79, 79, 0.5, rng);
        benchmark::DoNotOptimize(
            fp::estimateCaptureQuality(cc, 0.8));
    }
}
BENCHMARK(BM_QualityEstimate);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printQualityGateSweep);
}
