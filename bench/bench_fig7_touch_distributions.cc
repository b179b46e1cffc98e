/**
 * @file
 * Reproduces **Fig. 7**: distributions of touches from three users.
 *
 * The paper shows heat maps from an HTC study and concludes that
 * "there are overlaps and hot-spot touch regions among the three
 * users". This bench regenerates the three heat maps from the
 * synthetic behaviour model, quantifies the hot-spot concentration
 * and the pairwise overlap, and emits the density grids as CSV
 * series for plotting.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "core/rng.hh"
#include "touch/behavior.hh"

namespace core = trust::core;
namespace touch = trust::touch;

namespace {

void
printDistributions()
{
    std::printf("=== Fig. 7: touch distributions of three users ===\n\n");
    core::Rng rng(2012);
    const std::vector<touch::UiLayout> layouts = {
        touch::homeScreenLayout(), touch::keyboardLayout(),
        touch::browserLayout()};

    std::vector<core::Grid<double>> maps;
    for (std::uint64_t user = 1; user <= 3; ++user) {
        const auto behavior =
            touch::UserBehavior::forUser(user * 37, layouts);
        maps.push_back(behavior.densityMap(24, 14, 6000, rng));
        std::printf("User %llu (2000+ touches):\n%s\n",
                    static_cast<unsigned long long>(user),
                    touch::renderDensityAscii(maps.back()).c_str());
    }

    // Hot-spot concentration: mass captured by the top k% of cells.
    core::Table conc({"User", "top 5% cells", "top 10% cells",
                      "top 20% cells"});
    for (std::size_t u = 0; u < maps.size(); ++u) {
        auto cells = maps[u].data();
        std::sort(cells.begin(), cells.end(), std::greater<>());
        auto top_mass = [&](double frac) {
            double mass = 0.0;
            const std::size_t n =
                static_cast<std::size_t>(cells.size() * frac);
            for (std::size_t i = 0; i < n; ++i)
                mass += cells[i];
            return core::Table::num(mass * 100.0, 1) + " %";
        };
        conc.addRow({"user " + std::to_string(u + 1), top_mass(0.05),
                     top_mass(0.10), top_mass(0.20)});
    }
    std::printf("Hot-spot concentration (density mass in top "
                "cells):\n");
    conc.print();

    core::Table overlap({"pair", "histogram overlap"});
    overlap.addRow({"user1 / user2",
                    core::Table::num(
                        touch::densityOverlap(maps[0], maps[1]), 3)});
    overlap.addRow({"user1 / user3",
                    core::Table::num(
                        touch::densityOverlap(maps[0], maps[2]), 3)});
    overlap.addRow({"user2 / user3",
                    core::Table::num(
                        touch::densityOverlap(maps[1], maps[2]), 3)});
    std::printf("\nPairwise overlap (1.0 = identical):\n");
    overlap.print();
    std::printf("\nShape check vs the paper: strong shared hot spots "
                "(keyboard rows, dock) with per-user variation -- "
                "overlap well above chance but below identity.\n");

    // CSV emission for plotting (first user only, to bound output).
    std::printf("\nCSV (user 1 density, 24 rows x 14 cols):\n");
    core::Table csv({"row", "col", "density"});
    for (int r = 0; r < maps[0].rows(); ++r)
        for (int c = 0; c < maps[0].cols(); ++c)
            if (maps[0](r, c) > 0.004)
                csv.addRow({std::to_string(r), std::to_string(c),
                            core::Table::num(maps[0](r, c), 4)});
    std::fputs(csv.toCsv().c_str(), stdout);
}

void
BM_SampleTouch(benchmark::State &state)
{
    const auto behavior = touch::UserBehavior::forUser(
        7, {touch::homeScreenLayout(), touch::keyboardLayout()});
    core::Rng rng(8);
    for (auto _ : state) {
        auto event = behavior.sampleTouch(rng, 0);
        benchmark::DoNotOptimize(event);
    }
}
BENCHMARK(BM_SampleTouch);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printDistributions);
}
