/**
 * @file
 * Ablation **A7**: enrollment strategy.
 *
 * The paper assumes fingerprint templates simply exist inside FLock;
 * this ablation asks how they should be built from the same small
 * sensor tiles used at runtime: a single capture, N separate views
 * (match-against-any), or a stitched mosaic (guided enrollment).
 * Reports genuine/impostor accept rates and match cost per strategy.
 *
 * Expected shape: one partial capture is a hopeless template;
 * multi-view and mosaic enrollment recover most of the achievable
 * accuracy, with the mosaic matching faster (one template instead
 * of N).
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "core/rng.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/matcher.hh"
#include "fingerprint/synthesis.hh"

namespace core = trust::core;
namespace fp = trust::fingerprint;

namespace {

std::vector<std::vector<fp::Minutia>>
captureViews(const fp::MasterFinger &finger, int count, int window,
             core::Rng &rng)
{
    std::vector<std::vector<fp::Minutia>> views;
    while (static_cast<int>(views.size()) < count) {
        fp::CaptureConditions cc;
        cc.windowRows = window;
        cc.windowCols = window;
        cc.pressure = 0.95;
        const auto cap = fp::captureTemplateFast(finger, cc, rng);
        if (cap.minutiae.size() >= 8)
            views.push_back(cap.minutiae);
    }
    return views;
}

void
printEnrollmentStudy()
{
    std::printf("=== A7: enrollment strategy vs accuracy ===\n");
    core::Rng rng(808);
    const int n_fingers = 6;
    std::vector<fp::MasterFinger> fingers;
    for (int i = 0; i < n_fingers; ++i)
        fingers.push_back(fp::synthesizeFinger(
            static_cast<std::uint64_t>(i), rng));

    struct Strategy
    {
        std::string name;
        // One template-set per finger.
        std::vector<std::vector<std::vector<fp::Minutia>>> templates;
    };
    std::vector<Strategy> strategies(3);
    strategies[0].name = "single capture (138px)";
    strategies[1].name = "6 separate views";
    strategies[2].name = "mosaic of 6 views";
    for (int f = 0; f < n_fingers; ++f) {
        auto views = captureViews(fingers[static_cast<std::size_t>(f)],
                                  6, 138, rng);
        strategies[0].templates.push_back({views[0]});
        strategies[1].templates.push_back(views);
        strategies[2].templates.push_back({fp::mosaicViews(views)});
    }

    core::Table table({"strategy", "template minutiae", "TAR", "FAR",
                       "match cost"});
    for (const auto &strategy : strategies) {
        int tar_hits = 0, tar_n = 0, far_hits = 0, far_n = 0;
        double template_minutiae = 0.0;
        for (const auto &views : strategy.templates)
            for (const auto &view : views)
                template_minutiae += static_cast<double>(view.size());
        double match_sec = 0.0;

        for (int trial = 0; trial < 360; ++trial) {
            const int fi = trial % n_fingers;
            const auto cc =
                fp::sampleTouchConditions(79, 79, 0.1, rng);
            const auto cap = fp::captureTemplateFast(
                fingers[static_cast<std::size_t>(fi)], cc, rng);
            if (cap.minutiae.size() < 6 || cap.quality < 0.45)
                continue;
            const trust::benchutil::Stopwatch sw;
            const bool genuine_hit =
                fp::matchAgainstViews(
                    strategy.templates[static_cast<std::size_t>(fi)],
                    cap.minutiae)
                    .accepted;
            const bool impostor_hit =
                fp::matchAgainstViews(
                    strategy.templates[static_cast<std::size_t>(
                        (fi + 2) % n_fingers)],
                    cap.minutiae)
                    .accepted;
            match_sec += sw.seconds();
            ++tar_n;
            tar_hits += genuine_hit;
            ++far_n;
            far_hits += impostor_hit;
        }
        table.addRow(
            {strategy.name,
             core::Table::num(template_minutiae / n_fingers, 0),
             core::Table::num(100.0 * tar_hits / tar_n, 1) + " %",
             core::Table::num(100.0 * far_hits / far_n, 2) + " %",
             core::Table::num(
                 match_sec * 1e6 / (2.0 * tar_n), 0) +
                 " us"});
    }
    table.print();
    std::printf("\nMulti-view and mosaic enrollment dominate a single "
                "capture; the mosaic concentrates the same coverage "
                "into one template, trading a little accuracy for "
                "one-template matching.\n");
}

void
BM_MosaicConstruction(benchmark::State &state)
{
    core::Rng rng(809);
    const auto finger = fp::synthesizeFinger(1, rng);
    const auto views = captureViews(finger, 6, 138, rng);
    for (auto _ : state) {
        auto mosaic = fp::mosaicViews(views);
        benchmark::DoNotOptimize(mosaic);
    }
}
BENCHMARK(BM_MosaicConstruction)->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printEnrollmentStudy);
}
