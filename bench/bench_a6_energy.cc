/**
 * @file
 * Ablation **A6**: power of opportunistic capture (Sec. III-A).
 *
 * The paper: "the fingerprint sensors are activated after a touch
 * action has been sensed... Such design of opportunistic capture of
 * fingerprint reduces power consumption overhead", and Sec. IV-A
 * rules out covering the whole screen partly on energy grounds.
 * This bench quantifies both claims: average sensing power of
 * (a) a full-screen always-scanning sensor, (b) full-screen but
 * touch-triggered, and (c) the paper's design — small tiles,
 * touch-triggered — under a realistic touch workload.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "core/rng.hh"
#include "hw/sensor_spec.hh"
#include "hw/tft_sensor.hh"
#include "touch/session.hh"
#include "trust/scenario.hh"

namespace core = trust::core;
namespace hw = trust::hw;
namespace touch = trust::touch;

namespace {

/** 2012-era phone battery: 1500 mAh @ 3.7 V. */
constexpr double kBatteryJoules = 1.5 * 3.7 * 3600.0;

void
printEnergyStudy()
{
    std::printf("=== A6: sensing power by capture strategy ===\n");

    const hw::SensorPowerModel power;
    const double touches_per_hour = 300.0; // active use
    const double seconds_per_hour = 3600.0;

    // Full-screen sensor: a 53x94 mm array at 500 dpi.
    hw::SensorSpec full_screen = hw::specFlockTile(4.0);
    full_screen.name = "full-screen array";
    full_screen.rows = static_cast<int>(94.0 * 1000.0 /
                                        full_screen.cellPitchUm);
    full_screen.cols = static_cast<int>(53.0 * 1000.0 /
                                        full_screen.cellPitchUm);

    core::Table table({"strategy", "avg sensing power",
                       "battery share/day (active 4h)",
                       "capture latency"});

    // (a) Always scanning at 10 Hz.
    {
        hw::TftSensorArray array(full_screen);
        array.activate();
        const auto capture = array.captureFull();
        const double scans_per_s = 10.0;
        const double avg_w =
            capture.energyMicroJoule * 1e-6 * scans_per_s;
        const double day_j = avg_w * 4.0 * 3600.0;
        table.addRow({"full screen, always on (10 Hz)",
                      core::Table::num(avg_w * 1000.0, 1) + " mW",
                      core::Table::num(
                          day_j / kBatteryJoules * 100.0, 1) +
                          " %",
                      core::Table::num(
                          core::toMilliseconds(capture.total()), 0) +
                          " ms"});
    }

    // (b) Full screen, woken per touch.
    {
        hw::TftSensorArray array(full_screen);
        array.activate();
        const auto capture = array.captureFull();
        const double per_touch_j = capture.energyMicroJoule * 1e-6;
        const double idle_w = power.idlePowerUw * 1e-6;
        const double avg_w =
            per_touch_j * touches_per_hour / seconds_per_hour +
            idle_w;
        const double day_j = avg_w * 4.0 * 3600.0;
        table.addRow({"full screen, touch-triggered",
                      core::Table::num(avg_w * 1e6, 1) + " uW",
                      core::Table::num(
                          day_j / kBatteryJoules * 100.0, 3) +
                          " %",
                      core::Table::num(
                          core::toMilliseconds(capture.total()), 0) +
                          " ms"});
    }

    // (c) The paper's design: 4 x 7 mm tiles, touch-triggered,
    // windowed capture, ~19% of touches covered (A1 measurement).
    {
        hw::TftSensorArray tile(hw::specFlockTile(7.0));
        tile.activate();
        // 4 mm window around the touch point.
        const auto window = tile.clip(
            {0, static_cast<int>(4.0 * 1000 / 50.8), 0,
             static_cast<int>(4.0 * 1000 / 50.8)});
        const auto capture = tile.capture(window);
        const double capture_rate = 0.19;
        const double per_touch_j =
            capture.energyMicroJoule * 1e-6 * capture_rate;
        const double idle_w = 4.0 * power.idlePowerUw * 1e-6;
        const double avg_w =
            per_touch_j * touches_per_hour / seconds_per_hour +
            idle_w;
        const double day_j = avg_w * 4.0 * 3600.0;
        table.addRow({"4 x 7 mm tiles, opportunistic (this work)",
                      core::Table::num(avg_w * 1e6, 2) + " uW",
                      core::Table::num(
                          day_j / kBatteryJoules * 100.0, 4) +
                          " %",
                      core::Table::num(
                          core::toMilliseconds(capture.total()), 1) +
                          " ms"});
    }
    table.print();

    std::printf("\nOpportunistic small tiles cut average sensing "
                "power by orders of magnitude vs an always-on "
                "full-screen array, and the windowed capture is also "
                "the fastest — the paper's Sec. III-A design point.\n");

    // Per-capture energy vs tile size (cost side of the placement
    // trade-off).
    std::printf("\n=== A6: per-capture energy vs tile size ===\n");
    core::Table tiles({"tile side", "cells", "full-scan energy",
                       "4 mm window energy"});
    for (double side : {4.0, 7.0, 10.0, 14.0}) {
        hw::TftSensorArray tile(hw::specFlockTile(side));
        tile.activate();
        const auto full = tile.captureFull();
        const int window_cells =
            static_cast<int>(4.0 * 1000 / 50.8);
        const auto windowed = tile.capture(
            tile.clip({0, window_cells, 0, window_cells}));
        tiles.addRow(
            {core::Table::num(side, 0) + " mm",
             std::to_string(tile.spec().rows * tile.spec().cols),
             core::Table::num(full.energyMicroJoule, 1) + " uJ",
             core::Table::num(windowed.energyMicroJoule, 1) + " uJ"});
    }
    tiles.print();
    std::printf("\nWindowed capture keeps per-touch energy nearly "
                "independent of tile size (unselected rows are never "
                "enabled), so larger tiles cost area, not energy.\n");
}

void
BM_EnergyModel(benchmark::State &state)
{
    hw::TftSensorArray tile(hw::specFlockTile(7.0));
    tile.activate();
    for (auto _ : state) {
        auto t = tile.captureFull();
        benchmark::DoNotOptimize(t.energyMicroJoule);
    }
}
BENCHMARK(BM_EnergyModel);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printEnergyStudy);
}
