/**
 * @file
 * Unit tests for the fair-shared fluid pipe.
 */

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/units.h"
#include "sim/fluid_pipe.h"
#include "sim/simulator.h"

namespace doppio::sim {
namespace {

TEST(FluidPipe, SingleFlowDuration)
{
    Simulator sim;
    FluidPipe pipe(sim, 100.0, "p"); // 100 B/s
    Tick done_at = 0;
    pipe.startFlow(200, [&] { done_at = sim.now(); });
    sim.run();
    EXPECT_NEAR(ticksToSeconds(done_at), 2.0, 1e-6);
}

TEST(FluidPipe, TwoFlowsShareFairly)
{
    Simulator sim;
    FluidPipe pipe(sim, 100.0, "p");
    Tick a = 0, b = 0;
    pipe.startFlow(100, [&] { a = sim.now(); });
    pipe.startFlow(100, [&] { b = sim.now(); });
    sim.run();
    // Each gets 50 B/s: both finish at t=2.
    EXPECT_NEAR(ticksToSeconds(a), 2.0, 1e-6);
    EXPECT_NEAR(ticksToSeconds(b), 2.0, 1e-6);
}

TEST(FluidPipe, ShortFlowReleasesBandwidth)
{
    Simulator sim;
    FluidPipe pipe(sim, 100.0, "p");
    Tick small = 0, large = 0;
    pipe.startFlow(50, [&] { small = sim.now(); });
    pipe.startFlow(150, [&] { large = sim.now(); });
    sim.run();
    // Phase 1: both at 50 B/s until the small one finishes at t=1.
    // Phase 2: large has 100 B/s for its remaining 100 B -> t=2.
    EXPECT_NEAR(ticksToSeconds(small), 1.0, 1e-6);
    EXPECT_NEAR(ticksToSeconds(large), 2.0, 1e-6);
}

TEST(FluidPipe, LateArrivalSlowsExisting)
{
    Simulator sim;
    FluidPipe pipe(sim, 100.0, "p");
    Tick first = 0;
    pipe.startFlow(150, [&] { first = sim.now(); });
    sim.schedule(secondsToTicks(1.0), [&] {
        pipe.startFlow(1000, [] {});
    });
    sim.run();
    // 100 B in the first second, then 50 B/s: finishes at t=2.
    EXPECT_NEAR(ticksToSeconds(first), 2.0, 1e-6);
}

TEST(FluidPipe, PerFlowRateCapHonored)
{
    Simulator sim;
    FluidPipe pipe(sim, 100.0, "p");
    Tick done = 0;
    pipe.startFlow(100, [&] { done = sim.now(); }, 10.0);
    sim.run();
    EXPECT_NEAR(ticksToSeconds(done), 10.0, 1e-6);
}

TEST(FluidPipe, ProgressiveFillingRedistributes)
{
    Simulator sim;
    FluidPipe pipe(sim, 100.0, "p");
    Tick capped = 0, uncapped = 0;
    // Capped flow takes 20 B/s; the other should get the other 80.
    pipe.startFlow(20, [&] { capped = sim.now(); }, 20.0);
    pipe.startFlow(80, [&] { uncapped = sim.now(); });
    sim.run();
    EXPECT_NEAR(ticksToSeconds(capped), 1.0, 1e-6);
    EXPECT_NEAR(ticksToSeconds(uncapped), 1.0, 1e-6);
}

TEST(FluidPipe, ZeroByteFlowCompletesImmediately)
{
    Simulator sim;
    FluidPipe pipe(sim, 100.0, "p");
    bool done = false;
    pipe.startFlow(0, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.now(), 0ULL);
}

TEST(FluidPipe, CompletionCallbackCanStartNewFlow)
{
    Simulator sim;
    FluidPipe pipe(sim, 100.0, "p");
    Tick done = 0;
    pipe.startFlow(100, [&] {
        pipe.startFlow(100, [&] { done = sim.now(); });
    });
    sim.run();
    EXPECT_NEAR(ticksToSeconds(done), 2.0, 1e-6);
}

TEST(FluidPipe, BytesCompletedAccumulates)
{
    Simulator sim;
    FluidPipe pipe(sim, 100.0, "p");
    pipe.startFlow(100, [] {});
    pipe.startFlow(50, [] {});
    sim.run();
    EXPECT_EQ(pipe.bytesCompleted(), 150ULL);
}

TEST(FluidPipe, BusyTimeTracksActivity)
{
    Simulator sim;
    FluidPipe pipe(sim, 100.0, "p");
    pipe.startFlow(100, [] {});
    sim.run();
    EXPECT_NEAR(ticksToSeconds(pipe.busyTime()), 1.0, 1e-6);
    // Idle gap then another flow.
    sim.schedule(secondsToTicks(5.0), [&] {
        pipe.startFlow(100, [] {});
    });
    sim.run();
    EXPECT_NEAR(ticksToSeconds(pipe.busyTime()), 2.0, 1e-6);
}

TEST(FluidPipe, SetCapacityAffectsInFlight)
{
    Simulator sim;
    FluidPipe pipe(sim, 100.0, "p");
    Tick done = 0;
    pipe.startFlow(200, [&] { done = sim.now(); });
    sim.schedule(secondsToTicks(1.0), [&] { pipe.setCapacity(50.0); });
    sim.run();
    // 100 B in second 1, then 100 B at 50 B/s: t=3.
    EXPECT_NEAR(ticksToSeconds(done), 3.0, 1e-6);
}

TEST(FluidPipe, InvalidConfigIsFatal)
{
    Simulator sim;
    EXPECT_THROW(FluidPipe(sim, 0.0, "bad"), FatalError);
    FluidPipe pipe(sim, 1.0, "p");
    EXPECT_THROW(pipe.startFlow(1, [] {}, 0.0), FatalError);
    EXPECT_THROW(pipe.setCapacity(-1.0), FatalError);
}

TEST(FluidPipe, NanCapacityIsFatal)
{
    Simulator sim;
    EXPECT_THROW(FluidPipe(sim, std::nan(""), "bad"), FatalError);
}

TEST(FluidPipe, InfiniteCapacityIsFatal)
{
    Simulator sim;
    EXPECT_THROW(
        FluidPipe(sim, std::numeric_limits<double>::infinity(), "bad"),
        FatalError);
}

TEST(FluidPipe, NanRateCapIsFatal)
{
    Simulator sim;
    FluidPipe pipe(sim, 1.0, "p");
    EXPECT_THROW(pipe.startFlow(1, [] {}, std::nan("")), FatalError);
    EXPECT_EQ(pipe.activeFlows(), 0u);
}

TEST(FluidPipe, NanSetCapacityIsFatal)
{
    Simulator sim;
    FluidPipe pipe(sim, 1.0, "p");
    EXPECT_THROW(pipe.setCapacity(std::nan("")), FatalError);
    EXPECT_EQ(pipe.capacity(), 1.0);
}

TEST(FluidPipe, ConservationAcrossManyFlows)
{
    // Work conservation: total time to drain k flows of b bytes is
    // k*b/capacity regardless of arrival pattern while backlogged.
    Simulator sim;
    FluidPipe pipe(sim, 1000.0, "p");
    int completed = 0;
    for (int i = 0; i < 20; ++i)
        pipe.startFlow(500, [&] { ++completed; });
    const Tick end = sim.run();
    EXPECT_EQ(completed, 20);
    EXPECT_NEAR(ticksToSeconds(end), 20 * 500 / 1000.0, 1e-3);
}

/** Fair share property over varying flow counts. */
class FluidPipeFairness : public ::testing::TestWithParam<int>
{};

TEST_P(FluidPipeFairness, EqualFlowsFinishTogether)
{
    const int n = GetParam();
    Simulator sim;
    FluidPipe pipe(sim, 1e6, "p");
    std::vector<Tick> done(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        pipe.startFlow(1000, [&, i] {
            done[static_cast<std::size_t>(i)] = sim.now();
        });
    sim.run();
    const double expected = n * 1000 / 1e6;
    for (Tick t : done)
        EXPECT_NEAR(ticksToSeconds(t), expected, expected * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FluidPipeFairness,
                         ::testing::Values(1, 2, 3, 7, 16, 64));

/**
 * Reference progressive-filling solver: the pre-§11 algorithm that
 * copies the flow list into a temporary vector and ERASES each capped
 * entry (O(n^2)). The production rebalance marks entries instead; the
 * two must agree bit-for-bit on every rate, because the round-global
 * fair share, the visit order and the budget subtraction order are
 * identical — only the container bookkeeping differs.
 */
std::vector<double>
referenceFill(double capacity, const std::vector<double> &caps)
{
    struct Entry
    {
        double cap;
        std::size_t index;
    };
    std::vector<double> rates(caps.size(), 0.0);
    std::vector<Entry> pending;
    for (std::size_t i = 0; i < caps.size(); ++i)
        pending.push_back({caps[i], i});
    double budget = capacity;
    bool changed = true;
    while (!pending.empty() && changed) {
        changed = false;
        const double fair =
            budget / static_cast<double>(pending.size());
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->cap <= fair) {
                rates[it->index] = it->cap;
                budget -= it->cap;
                it = pending.erase(it);
                changed = true;
            } else {
                ++it;
            }
        }
    }
    if (!pending.empty()) {
        const double fair =
            budget / static_cast<double>(pending.size());
        for (const Entry &entry : pending)
            rates[entry.index] = fair;
    }
    return rates;
}

/** The production marking algorithm, lifted verbatim over plain data. */
std::vector<double>
markingFill(double capacity, const std::vector<double> &caps)
{
    std::vector<double> rates(caps.size(), 0.0);
    std::vector<const double *> scratch;
    scratch.reserve(caps.size());
    for (const double &cap : caps)
        scratch.push_back(&cap);
    double budget = capacity;
    std::size_t unallocated = scratch.size();
    bool changed = true;
    while (unallocated > 0 && changed) {
        changed = false;
        const double fair =
            budget / static_cast<double>(unallocated);
        for (const double *&entry : scratch) {
            if (entry == nullptr)
                continue;
            if (*entry <= fair) {
                rates[static_cast<std::size_t>(entry - caps.data())] =
                    *entry;
                budget -= *entry;
                entry = nullptr;
                --unallocated;
                changed = true;
            }
        }
    }
    if (unallocated > 0) {
        const double fair =
            budget / static_cast<double>(unallocated);
        for (const double *entry : scratch) {
            if (entry != nullptr)
                rates[static_cast<std::size_t>(entry - caps.data())] =
                    fair;
        }
    }
    return rates;
}

TEST(FluidPipe, MarkingFillMatchesEraseFillBitForBit)
{
    std::mt19937_64 rng(0xF10D5u);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = 1 + rng() % 5000;
        std::vector<double> caps(n);
        for (double &cap : caps) {
            // Mix tight caps, loose caps and uncapped flows.
            const std::uint64_t kind = rng() % 3;
            if (kind == 0)
                cap = std::numeric_limits<double>::infinity();
            else if (kind == 1)
                cap = 1.0 + static_cast<double>(rng() % 1000);
            else
                cap = 1e5 + static_cast<double>(rng() % 100000);
        }
        const double capacity =
            1e5 + static_cast<double>(rng() % 1000000);
        const std::vector<double> expected =
            referenceFill(capacity, caps);
        const std::vector<double> actual = markingFill(capacity, caps);
        ASSERT_EQ(actual.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            // Bit-for-bit, not approximately: memcmp via ==.
            ASSERT_EQ(actual[i], expected[i])
                << "round " << round << " flow " << i;
        }
    }
}

/**
 * Determinism stress (DESIGN.md §11): 5000 concurrent flows with
 * random sizes and caps, churned through completions. Two identical
 * pipes driven by identical schedules must produce identical
 * completion tick sequences, and conservation must hold.
 */
TEST(FluidPipe, FiveThousandFlowStressIsDeterministic)
{
    auto run = [](std::vector<std::pair<Tick, Bytes>> *out) {
        Simulator sim;
        FluidPipe pipe(sim, 1e9, "stress");
        std::mt19937_64 rng(0x5EEDu);
        std::uint64_t started = 0;
        std::function<void()> completion;
        Bytes total_bytes = 0;
        auto launch = [&] {
            const Bytes bytes = 100 * 1000 + rng() % 2000000;
            const double cap =
                (rng() % 4 == 0)
                    ? 1e6 + static_cast<double>(rng() % 1000000)
                    : std::numeric_limits<double>::infinity();
            total_bytes += bytes;
            ++started;
            pipe.startFlow(bytes, completion, cap);
        };
        completion = [&] {
            out->emplace_back(sim.now(), pipe.bytesCompleted());
            if (started < 7000)
                launch();
        };
        for (int i = 0; i < 5000; ++i)
            launch();
        sim.run();
        return total_bytes;
    };
    std::vector<std::pair<Tick, Bytes>> first, second;
    const Bytes bytes_a = run(&first);
    const Bytes bytes_b = run(&second);
    EXPECT_EQ(bytes_a, bytes_b);
    EXPECT_EQ(first.size(), 7000u);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(first[i].first, second[i].first) << "completion " << i;
        ASSERT_EQ(first[i].second, second[i].second)
            << "completion " << i;
    }
}

} // namespace
} // namespace doppio::sim
