/** @file Property tests for the stats/observability primitives:
 *  histogram merge associativity, RunningStat::merge vs batched
 *  add (including empty accumulators), and span-stack
 *  well-formedness under randomized open/close orders. */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/obs/trace.hh"
#include "core/rng.hh"
#include "core/stats.hh"

namespace {

using trust::core::Histogram;
using trust::core::Rng;
using trust::core::RunningStat;
using trust::core::obs::parseChromeTrace;
using trust::core::obs::SpanTracer;
using trust::core::obs::TracePhase;

void
expectSameHistogram(const Histogram &a, const Histogram &b)
{
    ASSERT_TRUE(a.sameLayout(b));
    EXPECT_EQ(a.total(), b.total());
    EXPECT_EQ(a.underflow(), b.underflow());
    EXPECT_EQ(a.overflow(), b.overflow());
    for (int i = 0; i < a.bins(); ++i)
        EXPECT_EQ(a.count(i), b.count(i)) << "bin " << i;
}

TEST(ObsProperty, HistogramMergeIsAssociativeAndCommutative)
{
    Rng rng(7001);
    for (int trial = 0; trial < 20; ++trial) {
        // Three partials with random (possibly zero) sample counts,
        // values deliberately spilling past both edges.
        Histogram parts[3] = {Histogram(0.0, 10.0, 16),
                              Histogram(0.0, 10.0, 16),
                              Histogram(0.0, 10.0, 16)};
        Histogram all(0.0, 10.0, 16);
        for (auto &part : parts) {
            const int n =
                static_cast<int>(rng.uniformInt(0, 40));
            for (int i = 0; i < n; ++i) {
                const double x = rng.uniform() * 14.0 - 2.0;
                part.add(x);
                all.add(x);
            }
        }

        // (a + b) + c
        Histogram left(0.0, 10.0, 16);
        left.merge(parts[0]);
        left.merge(parts[1]);
        left.merge(parts[2]);
        // a + (b + c)
        Histogram bc(0.0, 10.0, 16);
        bc.merge(parts[1]);
        bc.merge(parts[2]);
        Histogram right(0.0, 10.0, 16);
        right.merge(parts[0]);
        right.merge(bc);
        // c + b + a (commuted)
        Histogram commuted(0.0, 10.0, 16);
        commuted.merge(parts[2]);
        commuted.merge(parts[1]);
        commuted.merge(parts[0]);

        expectSameHistogram(left, right);
        expectSameHistogram(left, commuted);
        expectSameHistogram(left, all);
    }
}

TEST(ObsProperty, RunningStatMergeMatchesBatchedAdd)
{
    Rng rng(7002);
    for (int trial = 0; trial < 40; ++trial) {
        // Random split, explicitly covering empty-left, empty-right
        // and empty-both on the early trials.
        const int total =
            trial == 0 ? 0
                       : static_cast<int>(rng.uniformInt(0, 200));
        int split = static_cast<int>(rng.uniformInt(0, total));
        if (trial == 1)
            split = 0; // empty left accumulator
        if (trial == 2)
            split = total; // empty right accumulator

        RunningStat left, right, batched;
        for (int i = 0; i < total; ++i) {
            const double x = rng.normal(1.0, 3.0);
            (i < split ? left : right).add(x);
            batched.add(x);
        }
        RunningStat merged = left;
        merged.merge(right);

        EXPECT_EQ(merged.count(), batched.count());
        EXPECT_NEAR(merged.mean(), batched.mean(), 1e-9);
        EXPECT_NEAR(merged.variance(), batched.variance(),
                    1e-9 * (1.0 + batched.variance()));
        EXPECT_EQ(merged.min(), batched.min());
        EXPECT_EQ(merged.max(), batched.max());
        EXPECT_NEAR(merged.sum(), batched.sum(),
                    1e-9 * (1.0 + std::abs(batched.sum())));
    }
}

TEST(ObsProperty, SpanStackWellFormedUnderRandomOpenClose)
{
    Rng rng(7003);
    for (int trial = 0; trial < 10; ++trial) {
        SpanTracer tracer;
        std::size_t open = 0;
        std::uint64_t expect_unbalanced = 0;
        std::size_t expect_closed = 0;

        const int ops = 200;
        for (int i = 0; i < ops; ++i) {
            if (rng.uniform() < 0.45) {
                tracer.beginSpan(
                    std::string("s").append(std::to_string(i % 7)));
                ++open;
            } else {
                // Ends fired regardless of stack state: empty-stack
                // ends must be counted, never fatal.
                if (open == 0)
                    ++expect_unbalanced;
                else {
                    --open;
                    ++expect_closed;
                }
                tracer.endSpan();
            }
        }
        EXPECT_EQ(tracer.openDepth(), open);
        // Drain whatever is still open.
        while (open > 0) {
            tracer.endSpan();
            --open;
            ++expect_closed;
        }

        EXPECT_EQ(tracer.openDepth(), 0u);
        EXPECT_EQ(tracer.unbalancedEnds(), expect_unbalanced);
        EXPECT_EQ(tracer.eventCount(), expect_closed);

        // Every recorded event is a closed, non-negative-duration
        // span, and the export stays machine-readable.
        for (const auto &e : tracer.snapshot()) {
            EXPECT_EQ(e.phase, TracePhase::Complete);
            EXPECT_GE(e.dur, 0);
        }
        const auto lite = parseChromeTrace(tracer.toChromeJson());
        ASSERT_TRUE(lite.has_value());
        EXPECT_EQ(lite->size(), expect_closed);
    }
}

} // namespace
