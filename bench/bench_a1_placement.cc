/**
 * @file
 * Ablation **A1**: sensor placement (Sec. IV-A, challenge 2).
 *
 * Sweeps the sensor budget (count x size) and compares the
 * density-aware optimizers against uniform-grid and random
 * baselines, for a single user and for a shared multi-user
 * placement. Also reports the capture probability the protocol
 * layer actually sees (touches landing on tiles in a simulated
 * session).
 *
 * Expected shape: optimized placement captures a large majority of
 * touches with a few percent of screen area and dominates both
 * baselines at every budget.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "core/rng.hh"
#include "placement/placement.hh"
#include "touch/session.hh"

namespace core = trust::core;
namespace touch = trust::touch;
namespace placement = trust::placement;

namespace {

placement::PlacementProblem
problemForUser(std::uint64_t user, core::Rng &rng, double side_mm,
               int tiles)
{
    const auto behavior = touch::UserBehavior::forUser(
        user, {touch::homeScreenLayout(), touch::keyboardLayout(),
               touch::browserLayout()});
    placement::PlacementProblem problem;
    problem.screen = behavior.screen();
    problem.density = behavior.densityMap(47, 26, 8000, rng);
    problem.sensorSideMm = side_mm;
    problem.sensorCount = tiles;
    return problem;
}

void
printPlacementSweep()
{
    std::printf("=== A1: capture probability vs sensor budget "
                "(user 1) ===\n");
    core::Rng rng(2026);
    core::Table table({"tiles x size", "screen area", "greedy",
                       "annealed", "uniform", "random"});
    for (double side : {4.0, 7.0, 10.0}) {
        for (int tiles : {1, 2, 4, 8}) {
            auto problem = problemForUser(1, rng, side, tiles);
            const double area_pct =
                tiles * side * side /
                problem.screen.bounds().area() * 100.0;
            const auto greedy = placement::placeGreedy(problem);
            const auto annealed =
                placement::placeAnnealing(problem, rng, 6000);
            const auto uniform = placement::placeUniformGrid(problem);
            const auto random =
                placement::placeRandom(problem, rng);
            char label[32];
            std::snprintf(label, sizeof(label), "%d x %.0f mm", tiles,
                          side);
            table.addRow(
                {label, core::Table::num(area_pct, 1) + " %",
                 core::Table::num(
                     placement::evaluateCoverage(greedy, problem), 3),
                 core::Table::num(
                     placement::evaluateCoverage(annealed, problem),
                     3),
                 core::Table::num(
                     placement::evaluateCoverage(uniform, problem),
                     3),
                 core::Table::num(
                     placement::evaluateCoverage(random, problem),
                     3)});
        }
    }
    table.print();

    // Multi-user shared placement: one phone, several users' habits.
    std::printf("\n=== A1: per-user vs shared placement (4 x 7 mm "
                "tiles) ===\n");
    std::vector<core::Grid<double>> maps;
    for (std::uint64_t user = 1; user <= 3; ++user) {
        const auto behavior = touch::UserBehavior::forUser(
            user, {touch::homeScreenLayout(), touch::keyboardLayout(),
                   touch::browserLayout()});
        maps.push_back(behavior.densityMap(47, 26, 8000, rng));
    }
    core::Grid<double> fused(47, 26, 0.0);
    for (const auto &map : maps)
        for (std::size_t i = 0; i < fused.data().size(); ++i)
            fused.data()[i] += map.data()[i] / maps.size();

    placement::PlacementProblem shared_problem;
    shared_problem.screen = touch::ScreenSpec{};
    shared_problem.density = fused;
    shared_problem.sensorSideMm = 7.0;
    shared_problem.sensorCount = 4;
    const auto shared = placement::placeGreedy(shared_problem);

    core::Table multi({"user", "own placement", "shared placement"});
    for (std::uint64_t user = 1; user <= 3; ++user) {
        auto own_problem = problemForUser(user, rng, 7.0, 4);
        const auto own = placement::placeGreedy(own_problem);
        // Evaluate the shared tiles against this user's density.
        auto eval_problem = own_problem;
        multi.addRow(
            {"user " + std::to_string(user),
             core::Table::num(
                 placement::evaluateCoverage(own, own_problem), 3),
             core::Table::num(
                 placement::evaluateCoverage(shared, eval_problem),
                 3)});
    }
    multi.print();
    std::printf("\nShared hot spots (Fig. 7) keep the shared "
                "placement close to each user's own optimum.\n");
}

void
BM_GreedyPlacement(benchmark::State &state)
{
    core::Rng rng(3);
    auto problem = problemForUser(1, rng, 7.0,
                                  static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto p = placement::placeGreedy(problem);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_GreedyPlacement)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_AnnealingPlacement(benchmark::State &state)
{
    core::Rng rng(4);
    auto problem = problemForUser(1, rng, 7.0, 4);
    for (auto _ : state) {
        auto p = placement::placeAnnealing(
            problem, rng, static_cast<int>(state.range(0)));
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_AnnealingPlacement)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printPlacementSweep);
}
