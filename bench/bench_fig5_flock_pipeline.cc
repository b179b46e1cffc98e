/**
 * @file
 * Reproduces the **Fig. 5** FLock module as an end-to-end latency
 * budget: what each block contributes to one opportunistic
 * authentication (touch localization -> tile capture -> quality ->
 * extraction/match -> MAC) and what the display repeater + frame
 * hash engine cost per displayed frame.
 *
 * Expected shape: the whole pipeline fits in a few milliseconds of
 * modeled hardware time — far below a ~100 ms tap — so continuous
 * authentication is invisible to the user.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "core/rng.hh"
#include "crypto/hmac.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/matcher.hh"
#include "fingerprint/synthesis.hh"
#include "hw/flock_hw.hh"
#include "hw/sensor_spec.hh"
#include "hw/tft_sensor.hh"
#include "hw/touch_panel.hh"

namespace core = trust::core;
namespace hw = trust::hw;
namespace fp = trust::fingerprint;

namespace {

void
printPipelineBudget()
{
    std::printf("=== Fig. 5: FLock pipeline latency budget "
                "(one opportunistic authentication) ===\n");

    hw::TouchPanel panel;
    hw::TftSensorArray tile(hw::specFlockTile(4.0));
    const core::Tick activation = tile.activate();
    const auto capture = tile.captureFull();
    const hw::CryptoProcessorModel crypto_model;
    const hw::FrameHashEngine frame_engine;

    // Modeled hardware stage costs.
    const core::Tick quality_gate = core::microseconds(200);
    const core::Tick extract_match = core::milliseconds(3);
    const core::Tick mac = crypto_model.shaLatency(512);

    core::Table table({"Stage (Fig. 5 block)", "Latency"});
    auto ms = [](core::Tick t) {
        return core::Table::num(core::toMilliseconds(t), 3) + " ms";
    };
    table.addRow({"Touchscreen controller: panel scan",
                  ms(panel.scanLatency())});
    table.addRow({"Fingerprint controller: tile wake", ms(activation)});
    table.addRow({"Sensor: row scan (parallel)", ms(capture.scan)});
    table.addRow({"Sensor: selective transfer", ms(capture.transfer)});
    table.addRow({"Fingerprint processor: quality gate",
                  ms(quality_gate)});
    table.addRow({"Fingerprint processor: extract + match",
                  ms(extract_match)});
    table.addRow({"Crypto processor: request MAC", ms(mac)});
    const core::Tick total = panel.scanLatency() + activation +
                             capture.scan + capture.transfer +
                             quality_gate + extract_match + mac;
    table.addRow({"TOTAL", ms(total)});
    table.print();
    std::printf("\nTotal %.2f ms << ~100 ms tap duration: capture is "
                "transparent to the user.\n",
                core::toMilliseconds(total));

    // Display repeater + frame hash engine budget.
    std::printf("\n=== Display repeater / frame hash engine ===\n");
    hw::DisplaySpec display;
    core::Table frames({"Algorithm", "Frame bytes", "Hash latency",
                        "Max frame rate"});
    for (auto algo : {hw::FrameHashEngine::Algorithm::Sha256,
                      hw::FrameHashEngine::Algorithm::Md5}) {
        hw::FrameHashEngine engine(algo);
        const auto latency = engine.hashLatency(display.frameBytes());
        frames.addRow(
            {algo == hw::FrameHashEngine::Algorithm::Sha256 ? "SHA-256"
                                                            : "MD5",
             std::to_string(display.frameBytes()),
             core::Table::num(core::toMilliseconds(latency), 3) +
                 " ms",
             core::Table::num(1000.0 /
                                  core::toMilliseconds(latency),
                              0) +
                 " fps"});
    }
    frames.print();
}

/** Wall-clock cost of the software match on the host simulator. */
void
BM_ExtractAndMatch(benchmark::State &state)
{
    core::Rng rng(9);
    const auto finger = fp::synthesizeFinger(1, rng);
    fp::CaptureConditions cc;
    cc.windowRows = 79;
    cc.windowCols = 79;
    const auto query = fp::captureTemplateFast(finger, cc, rng);
    for (auto _ : state) {
        auto r = fp::matchMinutiae(finger.minutiae, query.minutiae);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_ExtractAndMatch);

/** Wall-clock cost of hashing one full display frame. */
void
BM_FrameHash(benchmark::State &state)
{
    hw::FrameHashEngine engine;
    hw::DisplaySpec display;
    core::Bytes frame(static_cast<std::size_t>(display.frameBytes()),
                      0x3c);
    for (auto _ : state) {
        auto digest = engine.hashFrame(frame);
        benchmark::DoNotOptimize(digest);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        display.frameBytes());
}
BENCHMARK(BM_FrameHash);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printPipelineBudget);
}
