/**
 * @file
 * Reproduces **Table II** (performance of several fingerprint
 * sensors) with the calibrated TFT readout timing model, and the
 * optical-vs-capacitive comparison the paper illustrates in
 * **Fig. 3** as modeled package attributes.
 *
 * Expected shape: the modeled response time matches each published
 * response within 10%; MHz-clock row-parallel designs respond in
 * single-digit milliseconds while slow poly-Si clocks take hundreds.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "hw/sensor_spec.hh"
#include "hw/tft_sensor.hh"

namespace core = trust::core;
namespace hw = trust::hw;

namespace {

void
printTableTwo()
{
    std::printf("=== Table II: fingerprint sensor survey "
                "(published vs modeled) ===\n");
    core::Table table({"Reference", "Cell size", "Resolution",
                       "Clock", "Published resp.", "Modeled resp.",
                       "Error"});
    for (const auto &spec : hw::tableTwoSpecs()) {
        hw::TftSensorArray array(spec);
        array.activate();
        const auto timing = array.captureFull();
        const double modeled_ms = core::toMilliseconds(timing.scan);
        const double err_pct =
            (modeled_ms - spec.publishedResponseMs) /
            spec.publishedResponseMs * 100.0;
        char cell[32], res[32], clock[32];
        std::snprintf(cell, sizeof(cell), "%.1f um",
                      spec.cellPitchUm);
        std::snprintf(res, sizeof(res), "%d x %d", spec.rows,
                      spec.cols);
        std::snprintf(clock, sizeof(clock), "%.3g MHz",
                      spec.clockHz / 1e6);
        table.addRow({spec.name, cell, res, clock,
                      core::Table::num(spec.publishedResponseMs, 1) +
                          " ms",
                      core::Table::num(modeled_ms, 1) + " ms",
                      core::Table::num(err_pct, 1) + " %"});
    }
    table.print();

    std::printf("\n=== Fig. 3 context: sensing technology "
                "comparison (modeled attributes) ===\n");
    core::Table fig3({"Technology", "Stack", "Scales to display?",
                      "Transparent?", "Relative cost/area"});
    fig3.addRow({"Optical (lens+camera)",
                 "lens stack, several mm", "no (lens height)", "no",
                 "high"});
    fig3.addRow({"CMOS capacitive", "thin Si die", "no (Si substrate)",
                 "no", "prohibitive at display size"});
    fig3.addRow({"TFT capacitive (this work)", "glass substrate, thin",
                 "yes", "yes (oxide TFTs)", "low"});
    fig3.print();

    const auto tile = hw::specFlockTile(4.0);
    hw::TftSensorArray tile_array(tile);
    tile_array.activate();
    std::printf("\nFLock transparent tile (%.0fx%.0f mm, %.0f dpi): "
                "full scan %.2f ms, %lld bytes transferred\n",
                tile.widthMm(), tile.heightMm(), tile.dpi(),
                core::toMilliseconds(tile_array.captureFull().total()),
                static_cast<long long>(
                    tile_array.captureFull().bytesTransferred));
}

/** Microbenchmark: timing-model evaluation cost per capture. */
void
BM_CaptureTimingModel(benchmark::State &state)
{
    const auto spec = hw::tableTwoSpecs()[static_cast<std::size_t>(
        state.range(0))];
    hw::TftSensorArray array(spec);
    array.activate();
    for (auto _ : state) {
        auto timing = array.captureFull();
        benchmark::DoNotOptimize(timing);
    }
    state.SetLabel(spec.name);
}
BENCHMARK(BM_CaptureTimingModel)->DenseRange(0, 4);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printTableTwo);
}
