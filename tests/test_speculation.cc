/**
 * @file
 * Tests for straggler injection and speculative execution, each run
 * through both stage drivers: the classic engine (TaskEngine::runStage)
 * and a one-FIFO-tenant sched::JobScheduler, where speculative copies
 * launch through the core arbiter.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "dfs/hdfs.h"
#include "sched/job_scheduler.h"
#include "sim/simulator.h"
#include "spark/task_engine.h"

namespace doppio::spark {
namespace {

enum class Driver { Classic, Tenant };

constexpr Driver kDrivers[] = {Driver::Classic, Driver::Tenant};

const char *
driverName(Driver driver)
{
    return driver == Driver::Classic ? "classic engine"
                                     : "one-tenant scheduler";
}

/** Run @p stage to completion through @p driver. */
StageMetrics
runOn(Driver driver, cluster::Cluster &cluster, dfs::Hdfs &hdfs,
      const SparkConf &conf, const StageSpec &stage)
{
    if (driver == Driver::Classic) {
        TaskEngine engine(cluster, hdfs, conf);
        return engine.runStage(stage);
    }
    sched::JobScheduler scheduler(cluster, hdfs, conf);
    StageMetrics metrics;
    bool done = false;
    scheduler.addTenant("t").runStage(stage, [&](StageMetrics result) {
        metrics = std::move(result);
        done = true;
    });
    scheduler.run();
    EXPECT_TRUE(done);
    return metrics;
}

/** Run a compute-only stage and return its makespan in seconds. */
double
runStage(Driver driver, double stragglerProbability, bool speculation,
         int tasks = 144, double taskSeconds = 10.0)
{
    sim::Simulator sim;
    cluster::ClusterConfig config =
        cluster::ClusterConfig::motivationCluster();
    config.taskJitterSigma = 0.02;
    config.stragglerProbability = stragglerProbability;
    config.stragglerSlowdown = 8.0;
    cluster::Cluster cluster(sim, config);
    dfs::Hdfs hdfs(cluster);
    SparkConf conf;
    conf.executorCores = 12;
    conf.speculation = speculation;
    StageSpec stage;
    stage.name = "compute";
    stage.groups.push_back(TaskGroupSpec{
        "g", tasks, {ComputePhaseSpec{taskSeconds}}, 0});
    return runOn(driver, cluster, hdfs, conf, stage).seconds();
}

TEST(Speculation, NoStragglersBaseline)
{
    for (const Driver driver : kDrivers) {
        SCOPED_TRACE(driverName(driver));
        // 144 tasks / 36 cores = 4 waves of ~10 s.
        const double seconds = runStage(driver, 0.0, false);
        EXPECT_NEAR(seconds, 40.0, 3.0);
    }
}

TEST(Speculation, StragglersInflateMakespan)
{
    for (const Driver driver : kDrivers) {
        SCOPED_TRACE(driverName(driver));
        // An 8x straggler in the last wave stretches the stage toward
        // 30 + 80 seconds.
        const double without = runStage(driver, 0.05, false);
        EXPECT_GT(without, 55.0);
    }
}

TEST(Speculation, SpeculationRecoversMostOfTheLoss)
{
    for (const Driver driver : kDrivers) {
        SCOPED_TRACE(driverName(driver));
        const double baseline = runStage(driver, 0.0, false);
        const double with_stragglers = runStage(driver, 0.05, false);
        const double with_speculation = runStage(driver, 0.05, true);
        EXPECT_LT(with_speculation, with_stragglers);
        // Recovers at least half of the straggler-induced inflation.
        EXPECT_LT(with_speculation - baseline,
                  0.5 * (with_stragglers - baseline));
    }
}

TEST(Speculation, OffByDefault)
{
    const SparkConf conf;
    EXPECT_FALSE(conf.speculation);
}

TEST(Speculation, NoEffectWithoutStragglers)
{
    for (const Driver driver : kDrivers) {
        SCOPED_TRACE(driverName(driver));
        // With uniform tasks nothing exceeds the multiplier;
        // speculation must not distort a healthy stage.
        const double off = runStage(driver, 0.0, false);
        const double on = runStage(driver, 0.0, true);
        EXPECT_NEAR(on, off, off * 0.05);
    }
}

TEST(Speculation, TaskCountIsExactDespiteExtraAttempts)
{
    for (const Driver driver : kDrivers) {
        SCOPED_TRACE(driverName(driver));
        sim::Simulator sim;
        cluster::ClusterConfig config =
            cluster::ClusterConfig::motivationCluster();
        config.stragglerProbability = 0.1;
        config.stragglerSlowdown = 10.0;
        cluster::Cluster cluster(sim, config);
        dfs::Hdfs hdfs(cluster);
        SparkConf conf;
        conf.executorCores = 12;
        conf.speculation = true;
        StageSpec stage;
        stage.name = "compute";
        stage.groups.push_back(TaskGroupSpec{
            "g", 100, {ComputePhaseSpec{5.0}}, 0});
        const StageMetrics metrics =
            runOn(driver, cluster, hdfs, conf, stage);
        // Each logical task counted exactly once, although copies ran.
        EXPECT_EQ(metrics.taskDuration.count(), 100ULL);
        EXPECT_GT(metrics.faults.taskAttempts, 100ULL);
    }
}

/** Sweep straggler probabilities: speculation never hurts. */
class SpeculationSweep : public ::testing::TestWithParam<double>
{};

TEST_P(SpeculationSweep, NeverWorseThanNoSpeculation)
{
    const double p = GetParam();
    for (const Driver driver : kDrivers) {
        SCOPED_TRACE(driverName(driver));
        const double off = runStage(driver, p, false);
        const double on = runStage(driver, p, true);
        EXPECT_LE(on, off * 1.05);
    }
}

INSTANTIATE_TEST_SUITE_P(Probabilities, SpeculationSweep,
                         ::testing::Values(0.0, 0.02, 0.05, 0.10));

} // namespace
} // namespace doppio::spark
