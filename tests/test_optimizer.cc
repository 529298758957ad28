/**
 * @file
 * Unit tests for the cloud cost optimizer.
 */

#include <gtest/gtest.h>

#include "cloud/optimizer.h"
#include "common/logging.h"
#include "common/random.h"

namespace doppio::cloud {
namespace {

constexpr Bytes kGB = 1000ULL * 1000 * 1000;

/**
 * A hand-built app model resembling GATK4's profile: a GC-ish compute
 * stage with a large shuffle write, and a shuffle-read-dominated
 * stage — enough structure that disk size matters up to a knee.
 */
model::AppModel
syntheticApp()
{
    model::AppModel app;
    app.name = "synthetic";

    model::StageModel map;
    map.name = "map";
    map.tasks = 976;
    map.tAvg = 30.0;
    model::IoComponent write;
    write.op = storage::IoOp::ShuffleWrite;
    write.bytes = static_cast<Bytes>(334) * kGB;
    write.requestSize = 350e6;
    map.io.push_back(write);
    app.stages.push_back(map);

    model::StageModel reduce;
    reduce.name = "reduce";
    reduce.tasks = 12000;
    reduce.tAvg = 9.0;
    model::IoComponent read;
    read.op = storage::IoOp::ShuffleRead;
    read.bytes = static_cast<Bytes>(334) * kGB;
    read.requestSize = 30000.0;
    reduce.io.push_back(read);
    app.stages.push_back(reduce);
    return app;
}

CostOptimizer
makeOptimizer()
{
    return CostOptimizer(syntheticApp(), GcpPricing{},
                         CostOptimizer::Options{});
}

TEST(Optimizer, EvaluateComputesCostFromModelTime)
{
    const CostOptimizer opt = makeOptimizer();
    CloudConfig config;
    config.workers = 10;
    config.vcpus = 16;
    config.hdfsSize = 1000 * kGB;
    config.localSize = 2000 * kGB;
    const Evaluation eval = opt.evaluate(config);
    EXPECT_GT(eval.seconds, 0.0);
    EXPECT_NEAR(eval.cost,
                jobCost(config, GcpPricing{}, eval.seconds), 1e-9);
}

TEST(Optimizer, EvaluateIsDeterministic)
{
    const CostOptimizer opt = makeOptimizer();
    CloudConfig config;
    config.hdfsSize = 500 * kGB;
    config.localSize = 500 * kGB;
    const Evaluation a = opt.evaluate(config);
    const Evaluation b = opt.evaluate(config);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(Optimizer, BiggerLocalDiskNeverSlower)
{
    const CostOptimizer opt = makeOptimizer();
    CloudConfig base;
    base.hdfsSize = 1000 * kGB;
    std::vector<Bytes> sizes;
    for (Bytes gb = 200; gb <= 3200; gb *= 2)
        sizes.push_back(gb * kGB);
    const auto sweep = opt.sweepLocalSize(base, sizes);
    for (std::size_t i = 1; i < sweep.size(); ++i)
        EXPECT_LE(sweep[i].seconds, sweep[i - 1].seconds * 1.001);
}

TEST(Optimizer, RuntimeFlattensBeyondIopsKnee)
{
    // Fig. 14: past ~2 TB the pd-standard IOPS cap is reached.
    const CostOptimizer opt = makeOptimizer();
    CloudConfig base;
    base.hdfsSize = 1000 * kGB;
    const auto sweep = opt.sweepLocalSize(
        base, {2000 * kGB, 4000 * kGB, 8000 * kGB});
    EXPECT_NEAR(sweep[1].seconds, sweep[0].seconds,
                sweep[0].seconds * 0.02);
    EXPECT_NEAR(sweep[2].seconds, sweep[0].seconds,
                sweep[0].seconds * 0.02);
}

TEST(Optimizer, CostRisesOnceRuntimeIsFlat)
{
    const CostOptimizer opt = makeOptimizer();
    CloudConfig base;
    base.hdfsSize = 1000 * kGB;
    const auto sweep = opt.sweepLocalSize(
        base, {2000 * kGB, 4000 * kGB, 8000 * kGB});
    EXPECT_LT(sweep[0].cost, sweep[1].cost);
    EXPECT_LT(sweep[1].cost, sweep[2].cost);
}

TEST(Optimizer, OptimizeBeatsReferenceConfigs)
{
    const CostOptimizer opt = makeOptimizer();
    const Evaluation best = opt.optimize();
    const Evaluation r1 = opt.evaluate(referenceR1());
    const Evaluation r2 = opt.evaluate(referenceR2());
    EXPECT_LT(best.cost, r1.cost);
    EXPECT_LT(best.cost, r2.cost);
}

TEST(Optimizer, OptimizeReturnsGridMinimum)
{
    CostOptimizer::Options options;
    options.sizeGrid = {500 * kGB, 1000 * kGB, 2000 * kGB};
    options.localTypes = {CloudDiskType::Standard};
    const CostOptimizer opt(syntheticApp(), GcpPricing{}, options);
    const Evaluation best = opt.optimize();
    for (Bytes hdfs : options.sizeGrid) {
        for (Bytes local : options.sizeGrid) {
            CloudConfig config;
            config.workers = options.workers;
            config.vcpus = 16;
            config.hdfsSize = hdfs;
            config.localSize = local;
            EXPECT_GE(opt.evaluate(config).cost, best.cost - 1e-9);
        }
    }
}

TEST(Optimizer, SweepHdfsSizeVariesOnlyHdfs)
{
    const CostOptimizer opt = makeOptimizer();
    CloudConfig base;
    base.localSize = 2000 * kGB;
    const auto sweep =
        opt.sweepHdfsSize(base, {500 * kGB, 1000 * kGB});
    ASSERT_EQ(sweep.size(), 2u);
    EXPECT_EQ(sweep[0].config.hdfsSize, 500 * kGB);
    EXPECT_EQ(sweep[1].config.hdfsSize, 1000 * kGB);
    EXPECT_EQ(sweep[0].config.localSize, 2000 * kGB);
}

TEST(Optimizer, DefaultGridIsGeometric)
{
    const auto grid = CostOptimizer::defaultSizeGrid();
    ASSERT_GE(grid.size(), 8u);
    // Strictly increasing, with at most half-octave steps.
    for (std::size_t i = 1; i < grid.size(); ++i) {
        const double ratio = static_cast<double>(grid[i]) /
                             static_cast<double>(grid[i - 1]);
        EXPECT_GT(ratio, 1.0);
        EXPECT_LE(ratio, 1.51);
    }
    EXPECT_EQ(grid.front(), 100 * kGB);
    EXPECT_GE(grid.back(), 6400 * kGB);
}

TEST(Optimizer, InvalidOptionsFatal)
{
    CostOptimizer::Options bad;
    bad.workers = 0;
    EXPECT_THROW(CostOptimizer(syntheticApp(), GcpPricing{}, bad),
                 FatalError);
}

TEST(Optimizer, ParallelJobsAreByteIdenticalToSerial)
{
    // The whole search space on a reduced grid, serial vs threaded:
    // every evaluation and the winner must agree exactly (the sweep
    // commits results in input order, DESIGN.md §11).
    auto search = [](int jobs) {
        CostOptimizer::Options options;
        options.sizeGrid = {250 * kGB, 1000 * kGB, 4000 * kGB};
        options.jobs = jobs;
        return CostOptimizer(syntheticApp(), GcpPricing{}, options);
    };
    const CostOptimizer serial = search(1);
    const Evaluation best_serial = serial.optimize();

    CloudConfig base;
    base.workers = 10;
    base.vcpus = 16;
    base.hdfsSize = 1000 * kGB;
    base.localSize = 2000 * kGB;
    const std::vector<Bytes> sizes = {200 * kGB, 800 * kGB,
                                      3200 * kGB};
    const auto sweep_serial = serial.sweepLocalSize(base, sizes);

    for (int jobs : {2, 4, 8}) {
        const CostOptimizer threaded = search(jobs);
        const Evaluation best = threaded.optimize();
        EXPECT_EQ(best.config.describe(),
                  best_serial.config.describe());
        EXPECT_EQ(best.seconds, best_serial.seconds);
        EXPECT_EQ(best.cost, best_serial.cost);

        const auto sweep = threaded.sweepLocalSize(base, sizes);
        ASSERT_EQ(sweep.size(), sweep_serial.size());
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            EXPECT_EQ(sweep[i].seconds, sweep_serial[i].seconds);
            EXPECT_EQ(sweep[i].cost, sweep_serial[i].cost);
        }
    }
}

/** Assert the two constrained searches return identical answers. */
void
expectIdentical(const ConstrainedResult &pruned,
                const ConstrainedResult &exhaustive)
{
    ASSERT_EQ(pruned.feasible, exhaustive.feasible);
    if (!pruned.feasible)
        return;
    // Byte-identical, not approximately equal: both searches must pick
    // the same grid cell and report the same doubles bit for bit.
    EXPECT_EQ(pruned.best.config.describe(),
              exhaustive.best.config.describe());
    EXPECT_EQ(pruned.best.config.hdfsSize,
              exhaustive.best.config.hdfsSize);
    EXPECT_EQ(pruned.best.config.localSize,
              exhaustive.best.config.localSize);
    EXPECT_EQ(pruned.best.seconds, exhaustive.best.seconds);
    EXPECT_EQ(pruned.best.cost, exhaustive.best.cost);
}

TEST(Constrained, MatchesExhaustiveOnDefaultGrid)
{
    // The acceptance sweep: several deadlines and budgets spanning
    // infeasible -> tight -> loose, answered on the full default grid.
    // Aggregate cell touches must show >= 3x pruning.
    const CostOptimizer opt = makeOptimizer();
    const double minRuntime = opt.optimizeExhaustive(
        Constraint::fastestUnderBudget(1e9)).best.seconds;
    const double minCost =
        opt.optimizeExhaustive(Constraint::minCost()).best.cost;

    std::vector<Constraint> constraints;
    for (const double f : {0.9, 1.0, 1.2, 2.0, 10.0})
        constraints.push_back(
            Constraint::cheapestUnderDeadline(minRuntime * f));
    for (const double f : {0.9, 1.0, 1.5, 3.0})
        constraints.push_back(Constraint::fastestUnderBudget(minCost * f));

    std::uint64_t totalCells = 0;
    std::uint64_t touchedCells = 0;
    for (const Constraint &constraint : constraints) {
        const ConstrainedResult pruned =
            opt.optimizeConstrained(constraint);
        const ConstrainedResult exhaustive =
            opt.optimizeExhaustive(constraint);
        expectIdentical(pruned, exhaustive);
        EXPECT_EQ(pruned.stats.exhaustiveFallbacks, 0u);
        totalCells += pruned.stats.cellsTotal;
        touchedCells += pruned.stats.cellsTotal -
                        pruned.stats.cellsPruned;
    }
    // Branch-and-bound must touch at most a third of the grid across
    // the whole constraint set (the ISSUE acceptance bar).
    EXPECT_GE(totalCells, touchedCells * 3)
        << "touched " << touchedCells << " of " << totalCells;
}

TEST(Constrained, PropertyRandomShapesMatchExhaustive)
{
    // Property-style equivalence: random workload shapes (stage
    // counts, task counts, IO mixes) and random constraints; the
    // pruned argmin/cost/runtime must always equal the exhaustive
    // reference. Any monotonicity violation the guard detects turns
    // into a (counted) exhaustive fallback, never a wrong answer.
    Rng rng(20260809);
    const auto randomBetween = [&rng](double lo, double hi) {
        return lo + (hi - lo) * rng.uniform();
    };
    for (int trial = 0; trial < 12; ++trial) {
        model::AppModel app;
        app.name = "random-" + std::to_string(trial);
        const int stages = 1 + static_cast<int>(rng.uniform() * 3.0);
        for (int s = 0; s < stages; ++s) {
            model::StageModel stage;
            stage.name = "s" + std::to_string(s);
            stage.tasks = 100 + static_cast<int>(rng.uniform() * 8000.0);
            stage.tAvg = randomBetween(2.0, 60.0);
            const int ios = static_cast<int>(rng.uniform() * 3.0);
            for (int k = 0; k < ios; ++k) {
                model::IoComponent io;
                io.op = rng.uniform() < 0.5
                            ? storage::IoOp::ShuffleWrite
                            : storage::IoOp::ShuffleRead;
                io.bytes = static_cast<Bytes>(
                    randomBetween(20.0, 400.0) * kGB);
                io.requestSize = randomBetween(2e4, 4e8);
                stage.io.push_back(io);
            }
            app.stages.push_back(stage);
        }
        CostOptimizer::Options options;
        options.sizeGrid = {250 * kGB, 500 * kGB, 1000 * kGB,
                            2000 * kGB, 4000 * kGB};
        const CostOptimizer opt(app, GcpPricing{}, options);

        const double minRuntime = opt.optimizeExhaustive(
            Constraint::fastestUnderBudget(1e9)).best.seconds;
        const double minCost =
            opt.optimizeExhaustive(Constraint::minCost()).best.cost;
        const Constraint cases[] = {
            Constraint::cheapestUnderDeadline(
                minRuntime * randomBetween(0.8, 3.0)),
            Constraint::fastestUnderBudget(
                minCost * randomBetween(0.8, 3.0)),
            Constraint::minCost(),
        };
        for (const Constraint &constraint : cases) {
            expectIdentical(opt.optimizeConstrained(constraint),
                            opt.optimizeExhaustive(constraint));
        }
    }
}

TEST(Constrained, MonotonicityViolationFallsBackToExhaustive)
{
    // Manufacture a non-monotone surface: the largest local disk gets
    // an artificial slowdown, so a sub-grid's "fast" corner is slower
    // than its "slow" corner. The guard must detect it, abandon
    // pruning, count the fallback — and still match the exhaustive
    // answer on the same poisoned surface.
    CostOptimizer::Options options;
    options.sizeGrid = {250 * kGB, 1000 * kGB, 4000 * kGB};
    const Bytes poisoned = options.sizeGrid.back();
    options.secondsHook = [poisoned](const CloudConfig &config,
                                     double seconds) {
        return config.localSize == poisoned ? seconds * 4.0 : seconds;
    };
    const CostOptimizer opt(syntheticApp(), GcpPricing{}, options);

    const Constraint constraint = Constraint::cheapestUnderDeadline(
        opt.optimizeExhaustive(Constraint::fastestUnderBudget(1e9))
            .best.seconds *
        1.5);
    const ConstrainedResult pruned = opt.optimizeConstrained(constraint);
    const ConstrainedResult exhaustive =
        opt.optimizeExhaustive(constraint);
    expectIdentical(pruned, exhaustive);
    EXPECT_GE(pruned.stats.exhaustiveFallbacks, 1u);
    EXPECT_EQ(pruned.stats.cellsPruned, 0u);
}

TEST(Constrained, UnsortedSizeGridFallsBackToExhaustive)
{
    CostOptimizer::Options options;
    options.sizeGrid = {1000 * kGB, 250 * kGB, 4000 * kGB};
    const CostOptimizer opt(syntheticApp(), GcpPricing{}, options);
    const Constraint constraint =
        Constraint::cheapestUnderDeadline(1e9);
    const ConstrainedResult pruned = opt.optimizeConstrained(constraint);
    expectIdentical(pruned, opt.optimizeExhaustive(constraint));
    EXPECT_GE(pruned.stats.exhaustiveFallbacks, 1u);
}

TEST(Constrained, InfeasibleConstraintsAgree)
{
    const CostOptimizer opt = makeOptimizer();
    for (const Constraint &constraint :
         {Constraint::cheapestUnderDeadline(1e-6),
          Constraint::fastestUnderBudget(1e-6)}) {
        EXPECT_FALSE(opt.optimizeConstrained(constraint).feasible);
        EXPECT_FALSE(opt.optimizeExhaustive(constraint).feasible);
    }
}

TEST(Constrained, InvalidConstraintsFatal)
{
    const CostOptimizer opt = makeOptimizer();
    EXPECT_THROW(
        opt.optimizeConstrained(Constraint::cheapestUnderDeadline(0.0)),
        FatalError);
    EXPECT_THROW(
        opt.optimizeConstrained(Constraint::fastestUnderBudget(-1.0)),
        FatalError);
    EXPECT_THROW(
        opt.optimizeExhaustive(Constraint::cheapestUnderDeadline(0.0)),
        FatalError);
}

TEST(Memo, RepeatedCellsAreServedFromTheMemo)
{
    const CostOptimizer opt = makeOptimizer();
    CloudConfig config;
    config.workers = 10;
    config.vcpus = 16;
    config.hdfsSize = 1000 * kGB;
    config.localSize = 2000 * kGB;
    const Evaluation first = opt.evaluate(config);
    const SearchStats afterFirst = opt.searchStats();
    EXPECT_EQ(afterFirst.cellsEvaluated, 1u);
    EXPECT_EQ(afterFirst.memoHits, 0u);
    const Evaluation second = opt.evaluate(config);
    const SearchStats afterSecond = opt.searchStats();
    EXPECT_EQ(afterSecond.cellsEvaluated, 1u);
    EXPECT_EQ(afterSecond.memoHits, 1u);
    EXPECT_EQ(first.seconds, second.seconds);
    EXPECT_EQ(first.cost, second.cost);

    // A whole repeated sweep is free: optimize() twice evaluates the
    // grid once.
    const Evaluation a = opt.optimize();
    const std::uint64_t evaluatedAfterSweep =
        opt.searchStats().cellsEvaluated;
    const Evaluation b = opt.optimize();
    EXPECT_EQ(opt.searchStats().cellsEvaluated, evaluatedAfterSweep);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.cost, b.cost);
}

TEST(Memo, DisabledMemoStillGivesIdenticalAnswers)
{
    CostOptimizer::Options plain;
    CostOptimizer::Options noMemo;
    noMemo.memoCapacity = 0;
    const CostOptimizer with(syntheticApp(), GcpPricing{}, plain);
    const CostOptimizer without(syntheticApp(), GcpPricing{}, noMemo);
    const Constraint constraint = Constraint::cheapestUnderDeadline(
        with.optimizeExhaustive(Constraint::fastestUnderBudget(1e9))
            .best.seconds *
        1.2);
    expectIdentical(with.optimizeConstrained(constraint),
                    without.optimizeConstrained(constraint));
    EXPECT_EQ(without.searchStats().memoHits, 0u);
}

TEST(Memo, CopiedOptimizerStartsCold)
{
    const CostOptimizer original = makeOptimizer();
    original.optimize(); // warm the memo and the stats
    const CostOptimizer copy = original;
    // Stats carry over (they are history), the memo does not (it is a
    // cache whose index would alias the source list if copied).
    EXPECT_EQ(copy.searchStats().cellsEvaluated,
              original.searchStats().cellsEvaluated);
    const std::uint64_t hitsBefore = copy.searchStats().memoHits;
    CloudConfig config;
    config.workers = 10;
    config.vcpus = 16;
    config.hdfsSize = 1000 * kGB;
    config.localSize = 2000 * kGB;
    copy.evaluate(config);
    // First touch on the copy is a miss — its memo started empty.
    EXPECT_EQ(copy.searchStats().memoHits, hitsBefore);
}

TEST(Optimizer, DeterministicAcrossJobCounts)
{
    // One optimizer instance per job count, each sweeping its full
    // grid with a cold evaluation memo. The fio tables come from
    // FioProfiler's process-wide memo: whichever sweep first touches a
    // disk fills its entry, threads racing on a cold entry each build
    // it and the first insert wins (FioMemo.RacingFills* in test_fio
    // pins that). Every evaluation must be byte-identical to the
    // serial sweep — a discarded racer was an identical copy, never a
    // different table.
    CostOptimizer::Options options;
    options.sizeGrid = {250 * kGB, 500 * kGB, 1000 * kGB, 2000 * kGB};
    options.jobs = 1;
    const CostOptimizer serial(syntheticApp(), GcpPricing{}, options);
    const std::vector<CloudConfig> grid = serial.candidateGrid();
    const std::vector<Evaluation> reference = serial.evaluateAll(grid);
    for (const int jobs : {2, 4, 8}) {
        options.jobs = jobs;
        const CostOptimizer threaded(syntheticApp(), GcpPricing{},
                                     options);
        const std::vector<Evaluation> got = threaded.evaluateAll(grid);
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].seconds, reference[i].seconds)
                << "jobs=" << jobs << " cell " << i;
            EXPECT_EQ(got[i].cost, reference[i].cost)
                << "jobs=" << jobs << " cell " << i;
        }
    }
}

TEST(Optimizer, CopiesAreIndependent)
{
    // The fio tables live in FioProfiler's process-wide memo, which
    // a copy shares; the copy must still evaluate standalone and
    // agree with the original.
    const CostOptimizer original = makeOptimizer();
    CloudConfig config;
    config.workers = 10;
    config.vcpus = 16;
    config.hdfsSize = 1000 * kGB;
    config.localSize = 2000 * kGB;
    const Evaluation before = original.evaluate(config);
    const CostOptimizer copy = original; // after the cache is warm
    const Evaluation after = copy.evaluate(config);
    EXPECT_EQ(before.seconds, after.seconds);
    EXPECT_EQ(before.cost, after.cost);
}

} // namespace
} // namespace doppio::cloud
