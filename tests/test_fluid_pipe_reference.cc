/**
 * @file
 * Differential tests: sim::FluidPipe (virtual-time solver) against
 * ReferenceFluidPipe (the O(n)-per-event progressive-filling solver it
 * replaced). Both are driven by identical seeded open-loop schedules —
 * flow arrivals and capacity changes fixed up front, never dependent on
 * completions — and must complete the same flows, each within 1 us of
 * the reference, with equal byte totals. On deep pipes completion
 * ticks may differ by a tick or so, because lazy virtual time sums
 * shared-flow progress in a different order; small pipes must match
 * to the tick.
 */

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "reference_fluid_pipe.h"
#include "sim/fluid_pipe.h"
#include "sim/simulator.h"

namespace doppio::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct FlowSpec
{
    Tick start;
    Bytes bytes;
    BytesPerSec cap;
};

struct CapacityChange
{
    Tick at;
    BytesPerSec capacity;
};

struct Schedule
{
    BytesPerSec capacity = 0.0;
    std::vector<FlowSpec> flows;
    std::vector<CapacityChange> changes;
};

struct Outcome
{
    std::vector<Tick> done; //!< per flow; kTickNever if it never ended
    Bytes bytesCompleted = 0;
};

/**
 * One seeded schedule of @p maxFlows flows at most: sizes from zero to
 * 8 MB, caps mixing infinite, tight (below the fair share at full
 * depth) and loose (near or above capacity), arrivals all at once, in
 * a short burst, or spread over the time the pipe needs to drain them,
 * and up to three capacity changes inside that window.
 */
Schedule
makeSchedule(std::uint64_t seed, std::uint64_t maxFlows)
{
    std::mt19937_64 rng(seed);
    auto uniform = [&rng](double lo, double hi) {
        return lo + (hi - lo) * static_cast<double>(rng() >> 11) /
                        9007199254740992.0;
    };
    Schedule schedule;
    schedule.capacity = uniform(1e6, 1e9);
    const std::uint64_t n = 1 + rng() % maxFlows;
    const double fair = schedule.capacity / static_cast<double>(n);
    double total_bytes = 0.0;
    std::vector<Bytes> sizes(n);
    for (Bytes &bytes : sizes) {
        bytes = (rng() % 20 == 0) ? 0 : 1 + rng() % (8 * 1000 * 1000);
        total_bytes += static_cast<double>(bytes);
    }
    const double drain_s = total_bytes / schedule.capacity;
    const std::uint64_t arrival = rng() % 3;
    const double window_s =
        arrival == 0 ? 0.0 : (arrival == 1 ? 1e-3 : drain_s);
    for (std::uint64_t i = 0; i < n; ++i) {
        BytesPerSec cap = kInf;
        switch (rng() % 3) {
        case 0:
            break;
        case 1:
            cap = fair * uniform(0.05, 0.95);
            break;
        default:
            cap = schedule.capacity * uniform(0.3, 2.0);
            break;
        }
        schedule.flows.push_back(
            {secondsToTicks(uniform(0.0, window_s)), sizes[i], cap});
    }
    const std::uint64_t changes = rng() % 4;
    for (std::uint64_t i = 0; i < changes; ++i) {
        schedule.changes.push_back(
            {secondsToTicks(uniform(0.0, drain_s + window_s)),
             schedule.capacity * uniform(0.25, 4.0)});
    }
    return schedule;
}

template <typename Pipe>
Outcome
drive(const Schedule &schedule)
{
    Simulator sim;
    Pipe pipe(sim, schedule.capacity, "diff");
    Outcome outcome;
    outcome.done.assign(schedule.flows.size(), kTickNever);
    for (std::size_t i = 0; i < schedule.flows.size(); ++i) {
        const FlowSpec flow = schedule.flows[i];
        sim.scheduleAt(flow.start, [&sim, &pipe, &outcome, flow, i] {
            pipe.startFlow(
                flow.bytes,
                [&sim, &outcome, i] { outcome.done[i] = sim.now(); },
                flow.cap);
        });
    }
    for (const CapacityChange &change : schedule.changes) {
        sim.scheduleAt(change.at, [&pipe, change] {
            pipe.setCapacity(change.capacity);
        });
    }
    sim.run();
    outcome.bytesCompleted = pipe.bytesCompleted();
    return outcome;
}

void
expectMatchesReference(const Schedule &schedule, const std::string &label)
{
    const Outcome expected = drive<ReferenceFluidPipe>(schedule);
    const Outcome actual = drive<FluidPipe>(schedule);
    ASSERT_EQ(actual.done.size(), expected.done.size()) << label;
    for (std::size_t i = 0; i < expected.done.size(); ++i) {
        ASSERT_NE(expected.done[i], kTickNever) << label << " flow " << i;
        ASSERT_NE(actual.done[i], kTickNever) << label << " flow " << i;
        const Tick gap = actual.done[i] > expected.done[i]
                             ? actual.done[i] - expected.done[i]
                             : expected.done[i] - actual.done[i];
        ASSERT_LE(gap, kTicksPerUs)
            << label << " flow " << i << ": " << actual.done[i]
            << " vs reference " << expected.done[i];
    }
    EXPECT_EQ(actual.bytesCompleted, expected.bytesCompleted) << label;
}

TEST(FluidPipeReference, ShallowSchedulesMatch)
{
    for (std::uint64_t seed = 1; seed <= 192; ++seed)
        expectMatchesReference(makeSchedule(seed, 300),
                               "seed " + std::to_string(seed));
}

TEST(FluidPipeReference, DeepSchedulesMatch)
{
    for (std::uint64_t seed = 1001; seed <= 1008; ++seed)
        expectMatchesReference(makeSchedule(seed, 5000),
                               "seed " + std::to_string(seed));
}

TEST(FluidPipeReference, SmallPipesKeepReferenceArithmetic)
{
    // Device-like pipes: round capacities, page-multiple sizes and
    // microsecond-aligned starts put many exact completions on tick
    // boundaries, where any reassociation of the progress sums flips
    // a ceil. With at most 16 flows shared, and either no caps (disks)
    // or every cap at the capacity (NICs: at most one flow pinned, so
    // no order of subtracting caps to differ in), the solver folds
    // each step into each flow exactly as the reference does, and
    // completion ticks agree to the tick.
    const double capacities[] = {1.25e9, 5e8, 2.5e8, 1e8};
    for (std::uint64_t seed = 2001; seed <= 2200; ++seed) {
        std::mt19937_64 rng(seed);
        Schedule schedule;
        schedule.capacity = capacities[rng() % 4];
        const BytesPerSec cap = rng() % 2 ? schedule.capacity : kInf;
        const std::uint64_t n = 2 + rng() % 15;
        for (std::uint64_t i = 0; i < n; ++i) {
            schedule.flows.push_back({(rng() % 2000) * kTicksPerUs,
                                      4096 * (1 + rng() % 256), cap});
        }
        const Outcome expected = drive<ReferenceFluidPipe>(schedule);
        const Outcome actual = drive<FluidPipe>(schedule);
        ASSERT_EQ(actual.done, expected.done) << "seed " << seed;
        EXPECT_EQ(actual.bytesCompleted, expected.bytesCompleted);
    }
}

TEST(FluidPipeReference, LongSharedRunRebasesVirtualTime)
{
    // 24 shared 10 GB flows on a 1 GB/s pipe (too deep for the eager
    // per-advance rebase) push the virtual clock past its 2^32-byte
    // rebase point twice while short flows keep joining and leaving;
    // completions must still track the reference.
    Schedule schedule;
    schedule.capacity = 1e9;
    for (int i = 0; i < 24; ++i)
        schedule.flows.push_back({0, 10'000'000'000ULL, kInf});
    for (int i = 0; i < 200; ++i) {
        schedule.flows.push_back(
            {secondsToTicks(1.0 * i), 1'000'000ULL + 7919ULL * i,
             (i % 3 == 0) ? 1e6 : kInf});
    }
    schedule.changes.push_back({secondsToTicks(117.5), 5e8});
    expectMatchesReference(schedule, "long shared run");
}

TEST(FluidPipeReference, SameTickCompletionsFireInStartOrder)
{
    Simulator sim;
    FluidPipe pipe(sim, 100.0, "p");
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        pipe.startFlow(100, [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

} // namespace
} // namespace doppio::sim
