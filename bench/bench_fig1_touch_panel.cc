/**
 * @file
 * Reproduces the behaviour behind **Fig. 1** (capacitive touch panel
 * structure): the ~4 ms panel response of Sec. II-B, the scan-time
 * scaling with electrode count, the localization quantization from
 * electrode pitch, and multi-touch aliasing on the electrode grid.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "core/rng.hh"
#include "hw/touch_panel.hh"

namespace core = trust::core;
namespace hw = trust::hw;

namespace {

void
printPanelStudy()
{
    std::printf("=== Fig. 1: capacitive panel response model ===\n");
    core::Table table({"Electrodes (rows x cols)", "Pitch (mm)",
                       "Scan latency", "Mean localization error"});
    core::Rng rng(5);
    for (int scale : {1, 2, 4}) {
        hw::TouchPanelSpec spec;
        spec.rowElectrodes = 10 * scale;
        spec.colElectrodes = 6 * scale;
        hw::TouchPanel panel(spec);

        // Mean quantization error over random touches.
        double err_sum = 0.0;
        const int trials = 2000;
        for (int i = 0; i < trials; ++i) {
            const core::Vec2 p{
                rng.uniform(0.0, spec.screen.widthMm),
                rng.uniform(0.0, spec.screen.heightMm)};
            err_sum += panel.sense(p).position.dist(p);
        }
        char electrodes[32], pitch[32];
        std::snprintf(electrodes, sizeof(electrodes), "%d x %d",
                      spec.rowElectrodes, spec.colElectrodes);
        std::snprintf(pitch, sizeof(pitch), "%.1f x %.1f",
                      panel.pitchY(), panel.pitchX());
        table.addRow({electrodes, pitch,
                      core::Table::num(
                          core::toMilliseconds(panel.scanLatency()),
                          2) +
                          " ms",
                      core::Table::num(err_sum / trials, 2) + " mm"});
    }
    table.print();

    hw::TouchPanel default_panel;
    std::printf("\nDefault panel responds in %.2f ms (paper quotes "
                "~4 ms typical response, Sec. II-B).\n",
                core::toMilliseconds(default_panel.scanLatency()));

    // Multi-touch aliasing: how close can two fingers get?
    std::printf("\nMulti-touch resolution: two touches separated by\n");
    for (double gap_mm : {1.0, 3.0, 5.0, 8.0}) {
        const auto readings = default_panel.senseMulti(
            {{20.0, 40.0}, {20.0 + gap_mm, 40.0}});
        std::printf("  %.0f mm -> %zu distinct reports\n", gap_mm,
                    readings.size());
    }
}

void
BM_PanelSense(benchmark::State &state)
{
    hw::TouchPanel panel;
    core::Rng rng(6);
    for (auto _ : state) {
        auto r = panel.sense(
            {rng.uniform(0.0, 53.0), rng.uniform(0.0, 94.0)});
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_PanelSense);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printPanelStudy);
}
