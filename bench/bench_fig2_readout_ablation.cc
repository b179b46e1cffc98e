/**
 * @file
 * Reproduces the readout micro-architecture claims of **Fig. 2** and
 * **Fig. 4**: parallel row addressing vs serial cell addressing, and
 * selective column transfer. "Using parallel addressing and selected
 * data transfer, the fingerprint capture speed can be greatly
 * improved" — this bench quantifies "greatly" on every Table II
 * design and on the FLock tile.
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
printAddressingAblation()
{
    std::printf("=== Fig. 2/4 ablation: parallel row addressing ===\n");
    core::Table table({"Design", "Serial scan", "Parallel scan",
                       "Speedup"});
    auto specs = hw::tableTwoSpecs();
    specs.push_back(hw::specFlockTile(4.0));
    for (auto spec : specs) {
        spec.addressing = hw::Addressing::SerialCell;
        hw::TftSensorArray serial(spec);
        serial.activate();
        spec.addressing = hw::Addressing::ParallelRow;
        hw::TftSensorArray parallel(spec);
        parallel.activate();

        const double serial_ms =
            core::toMilliseconds(serial.captureFull().scan);
        const double parallel_ms =
            core::toMilliseconds(parallel.captureFull().scan);
        table.addRow({spec.name,
                      core::Table::num(serial_ms, 1) + " ms",
                      core::Table::num(parallel_ms, 1) + " ms",
                      core::Table::num(serial_ms / parallel_ms, 1) +
                          "x"});
    }
    table.print();

    std::printf("\n=== Fig. 4 ablation: selective column transfer "
                "(FLock 4 mm tile, partial touch) ===\n");
    core::Table sel({"Window (fraction of columns)", "Bytes moved",
                     "Transfer time", "Capture total"});
    hw::TftSensorArray tile(hw::specFlockTile(4.0));
    tile.activate();
    const auto full = tile.fullWindow();
    for (double frac : {1.0, 0.75, 0.5, 0.25}) {
        hw::CellWindow window = full;
        window.colEnd = full.colBegin +
                        static_cast<int>(full.cols() * frac);
        const auto timing = tile.capture(tile.clip(window));
        char label[32];
        std::snprintf(label, sizeof(label), "%.0f %%", frac * 100.0);
        sel.addRow({label,
                    std::to_string(timing.bytesTransferred),
                    core::Table::num(
                        core::toMicroseconds(timing.transfer), 1) +
                        " us",
                    core::Table::num(
                        core::toMilliseconds(timing.total()), 2) +
                        " ms"});
    }
    sel.print();
    std::printf("\nScan time is row-bound and unchanged; the "
                "transfer stage shrinks linearly with the selected "
                "column window, exactly the Fig. 4 design intent.\n");
}

void
BM_TimingModelParallel(benchmark::State &state)
{
    hw::TftSensorArray tile(hw::specFlockTile(4.0));
    tile.activate();
    for (auto _ : state) {
        auto t = tile.captureFull();
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_TimingModelParallel);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printAddressingAblation);
}
