/**
 * @file
 * Tests for the fault-injection subsystem and end-to-end recovery:
 * spec parsing, cluster liveness, task retries with maxFailures,
 * fetch-failure stage reattempts, node loss mid-shuffle with HDFS
 * failover, and the determinism / no-fault pass-through invariants.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "dfs/hdfs.h"
#include "faults/fault_injector.h"
#include "faults/fault_spec.h"
#include "sim/simulator.h"
#include "spark/metrics_json.h"
#include "spark/spark_context.h"
#include "spark/task_engine.h"
#include "storage/disk_device.h"
#include "workloads/registry.h"

namespace doppio {
namespace {

using faults::FaultInjector;
using faults::FaultSpec;
using faults::NodeEvent;

// ---------------------------------------------------------------- spec

TEST(FaultSpec, ParsesRatesAndSchedule)
{
    const FaultSpec spec = FaultSpec::parse(
        "task-fail-rate 0.02\n"
        "disk-error-rate 0.001   # transient local errors\n"
        "fetch-fail-rate 0.0005; kill 2@120\n"
        "rejoin 2@600\n"
        "degrade 1@60 4.0\n");
    EXPECT_DOUBLE_EQ(spec.taskFailureRate, 0.02);
    EXPECT_DOUBLE_EQ(spec.diskReadErrorRate, 0.001);
    EXPECT_DOUBLE_EQ(spec.shuffleFetchFailureRate, 0.0005);
    ASSERT_EQ(spec.schedule.size(), 3u);
    const auto &events = spec.schedule.events();
    EXPECT_EQ(events[0].kind, NodeEvent::Kind::Degrade);
    EXPECT_EQ(events[0].node, 1);
    EXPECT_DOUBLE_EQ(events[0].atSeconds, 60.0);
    EXPECT_DOUBLE_EQ(events[0].factor, 4.0);
    EXPECT_EQ(events[1].kind, NodeEvent::Kind::Kill);
    EXPECT_EQ(events[1].node, 2);
    EXPECT_DOUBLE_EQ(events[1].atSeconds, 120.0);
    EXPECT_EQ(events[2].kind, NodeEvent::Kind::Rejoin);
    EXPECT_TRUE(spec.any());
}

TEST(FaultSpec, EmptySpecIsInactive)
{
    EXPECT_FALSE(FaultSpec{}.any());
    EXPECT_FALSE(FaultSpec::parse("  # only a comment\n").any());
}

TEST(FaultSpec, RejectsMalformedInput)
{
    EXPECT_THROW(FaultSpec::parse("bogus 1"), FatalError);
    EXPECT_THROW(FaultSpec::parse("task-fail-rate"), FatalError);
    EXPECT_THROW(FaultSpec::parse("kill 2"), FatalError);
    EXPECT_THROW(FaultSpec::parse("kill x@10"), FatalError);
    EXPECT_THROW(FaultSpec::parse("task-fail-rate 1.5").validate(),
                 FatalError);
    EXPECT_THROW(FaultSpec::parse("degrade 0@10 0.5").validate(),
                 FatalError);
}

TEST(FaultSpec, ParsesDegradeMem)
{
    const FaultSpec spec =
        FaultSpec::parse("degrade-mem 1@60 0.5\n");
    ASSERT_EQ(spec.schedule.size(), 1u);
    const NodeEvent &event = spec.schedule.events()[0];
    EXPECT_EQ(event.kind, NodeEvent::Kind::DegradeMem);
    EXPECT_EQ(event.node, 1);
    EXPECT_DOUBLE_EQ(event.atSeconds, 60.0);
    EXPECT_DOUBLE_EQ(event.factor, 0.5);
    EXPECT_STREQ(faults::nodeEventKindName(event.kind), "degrade-mem");
}

TEST(FaultSpec, EveryMalformedDirectiveFormIsRejected)
{
    // One case per syntactic failure mode of the DSL.
    EXPECT_THROW(FaultSpec::parse("kill 2@"), FatalError);        // empty time
    EXPECT_THROW(FaultSpec::parse("kill 2@abc"), FatalError);     // bad time
    EXPECT_THROW(FaultSpec::parse("rejoin 3"), FatalError);       // missing @
    EXPECT_THROW(FaultSpec::parse("degrade 1@60"), FatalError);   // no factor
    EXPECT_THROW(FaultSpec::parse("degrade-mem 1@60"), FatalError);
    EXPECT_THROW(FaultSpec::parse("degrade-mem 1@60 x"), FatalError);
    EXPECT_THROW(FaultSpec::parse("kill 2@120 junk"), FatalError); // trailing
    EXPECT_THROW(FaultSpec::parse("kill -1@120"), FatalError);     // bad node
    EXPECT_THROW(FaultSpec::parse("kill 2@-5"), FatalError);       // bad time
    EXPECT_THROW(FaultSpec::parse("disk-error-rate -0.1"), FatalError);
    EXPECT_THROW(FaultSpec::parse("fetch-fail-rate 1.0"), FatalError);
}

TEST(FaultSpec, RejectsOutOfRangeDegradeMemFraction)
{
    EXPECT_THROW(FaultSpec::parse("degrade-mem 1@60 0"), FatalError);
    EXPECT_THROW(FaultSpec::parse("degrade-mem 1@60 1.5"), FatalError);
    EXPECT_THROW(FaultSpec::parse("degrade-mem 1@60 -0.5"), FatalError);
    EXPECT_NO_THROW(FaultSpec::parse("degrade-mem 1@60 1"));
}

// strtod accepts "nan" and "inf"; comparison-based range checks would
// let both through, so the number parser itself rejects them.
TEST(FaultSpec, RejectsNanDegradeFactor)
{
    EXPECT_THROW(FaultSpec::parse("degrade 1@10 nan"), FatalError);
}

TEST(FaultSpec, RejectsInfiniteDegradeFactor)
{
    EXPECT_THROW(FaultSpec::parse("degrade 1@10 inf"), FatalError);
}

TEST(FaultSpec, RejectsNanKillTime)
{
    EXPECT_THROW(FaultSpec::parse("kill 1@nan"), FatalError);
}

TEST(FaultSpec, RejectsNanTaskFailRate)
{
    try {
        FaultSpec::parse("kill 1@10\ntask-fail-rate nan\n", "myspec");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("myspec:2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultSpec, DiskRejectsNanDegradedFactor)
{
    sim::Simulator sim;
    storage::DiskDevice disk(sim, storage::makeSsdParams(), "ssd");
    EXPECT_THROW(disk.setDegradedFactor(std::nan("")), FatalError);
    EXPECT_THROW(disk.setDegradedFactor(
                     std::numeric_limits<double>::infinity()),
                 FatalError);
    EXPECT_DOUBLE_EQ(disk.degradedFactor(), 1.0);
}

TEST(FaultSpec, RejectsDuplicateKillOfOneNodeAtOneTime)
{
    EXPECT_THROW(FaultSpec::parse("kill 2@120; kill 2@120"),
                 FatalError);
    // Different node or different time is legitimate.
    EXPECT_NO_THROW(FaultSpec::parse("kill 2@120; kill 1@120"));
    EXPECT_NO_THROW(
        FaultSpec::parse("kill 2@120; rejoin 2@300; kill 2@400"));
}

TEST(FaultInjectorTest, DegradeMemEventClampsTheNodePool)
{
    sim::Simulator sim;
    cluster::ClusterConfig config =
        cluster::ClusterConfig::motivationCluster();
    config.numSlaves = 2;
    cluster::Cluster cluster(sim, config);
    FaultInjector injector(
        FaultSpec::parse("degrade-mem 1@10 0.25"), 7);
    injector.arm(cluster);
    sim.run();
    EXPECT_DOUBLE_EQ(cluster.memoryFraction(0), 1.0);
    EXPECT_DOUBLE_EQ(cluster.memoryFraction(1), 0.25);
}

TEST(FaultInjectorTest, RatesGateRandomness)
{
    FaultSpec zero;
    FaultInjector injector(zero, 42);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(injector.drawTaskFailure());

    FaultSpec high;
    high.taskFailureRate = 0.99;
    FaultInjector often(high, 42);
    int crashed = 0;
    for (int i = 0; i < 100; ++i)
        crashed += often.drawTaskFailure() ? 1 : 0;
    EXPECT_GE(crashed, 90);
}

// ------------------------------------------------------------- cluster

TEST(ClusterLiveness, KillAndRejoinUpdateAliveSet)
{
    sim::Simulator sim;
    cluster::ClusterConfig config =
        cluster::ClusterConfig::motivationCluster();
    config.numSlaves = 4;
    cluster::Cluster cluster(sim, config);
    ASSERT_EQ(cluster.aliveCount(), 4);

    std::vector<std::pair<int, bool>> seen;
    cluster.addLivenessObserver(
        [&seen](int node, bool alive) { seen.emplace_back(node, alive); });

    cluster.setNodeAlive(2, false);
    EXPECT_EQ(cluster.aliveCount(), 3);
    EXPECT_FALSE(cluster.nodeAlive(2));
    EXPECT_EQ(cluster.aliveNodes(), (std::vector<int>{0, 1, 3}));

    cluster.setNodeAlive(2, false); // no-op, no second notification
    cluster.setNodeAlive(2, true);
    EXPECT_EQ(cluster.aliveCount(), 4);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], (std::pair<int, bool>{2, false}));
    EXPECT_EQ(seen[1], (std::pair<int, bool>{2, true}));
}

TEST(ClusterLiveness, RefusesToKillLastAliveNode)
{
    sim::Simulator sim;
    cluster::ClusterConfig config =
        cluster::ClusterConfig::motivationCluster();
    config.numSlaves = 2;
    cluster::Cluster cluster(sim, config);
    cluster.setNodeAlive(0, false);
    EXPECT_THROW(cluster.setNodeAlive(1, false), FatalError);
}

// --------------------------------------------------------- task engine

namespace engine_helpers {

struct EngineRig
{
    sim::Simulator sim;
    spark::SparkConf conf; // outlives the engine (held by reference)
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<dfs::Hdfs> hdfs;
    std::unique_ptr<spark::TaskEngine> engine;

    explicit EngineRig(bool speculation = false)
    {
        cluster::ClusterConfig config =
            cluster::ClusterConfig::motivationCluster();
        config.taskJitterSigma = 0.0;
        cluster = std::make_unique<cluster::Cluster>(sim, config);
        hdfs = std::make_unique<dfs::Hdfs>(*cluster);
        conf.executorCores = 12;
        conf.speculation = speculation;
        engine = std::make_unique<spark::TaskEngine>(*cluster, *hdfs,
                                                     conf);
    }
};

spark::StageSpec
computeStage(int tasks, double taskSeconds)
{
    spark::StageSpec stage;
    stage.name = "compute";
    stage.groups.push_back(spark::TaskGroupSpec{
        "g", tasks, {spark::ComputePhaseSpec{taskSeconds}}, 0});
    return stage;
}

} // namespace engine_helpers

using engine_helpers::computeStage;
using engine_helpers::EngineRig;

/**
 * Satellite regression: a stage whose groups are all empty returns
 * valid empty metrics immediately, without arming the speculation
 * timer (which used to tick once and advance the clock).
 */
TEST(TaskEngineFaults, ZeroTaskStageLeavesNoPendingEvents)
{
    EngineRig rig(/*speculation=*/true);
    spark::StageSpec stage = computeStage(0, 1.0);
    const spark::StageMetrics metrics = rig.engine->runStage(stage);
    EXPECT_EQ(metrics.numTasks, 0);
    EXPECT_EQ(metrics.taskDuration.count(), 0u);
    EXPECT_DOUBLE_EQ(metrics.seconds(), 0.0);
    EXPECT_EQ(rig.sim.now(), 0u);
    EXPECT_EQ(rig.sim.pendingEvents(), 0u);
}

TEST(TaskEngineFaults, CrashedTasksRetryUntilTheStageCompletes)
{
    const double clean =
        [] {
            EngineRig rig;
            return rig.engine->runStage(computeStage(144, 10.0))
                .seconds();
        }();

    EngineRig rig;
    FaultSpec spec;
    spec.taskFailureRate = 0.2;
    FaultInjector injector(spec, 7);
    rig.engine->setFaultInjector(&injector);
    const spark::StageMetrics metrics =
        rig.engine->runStage(computeStage(144, 10.0));
    EXPECT_EQ(metrics.taskDuration.count(), 144u);
    EXPECT_GT(metrics.faults.taskFailures, 0u);
    EXPECT_GT(metrics.faults.taskRetries, 0u);
    EXPECT_GT(metrics.faults.wastedTaskSeconds, 0.0);
    EXPECT_GT(metrics.seconds(), clean);
}

TEST(TaskEngineFaults, RuntimeGrowsWithTheFailureRate)
{
    double previous = -1.0;
    for (const double rate : {0.0, 0.15, 0.45}) {
        EngineRig rig;
        // High rates make rate^4 per-task application aborts likely;
        // this test measures the runtime trend, not the abort path.
        rig.conf.taskMaxFailures = 1000;
        FaultSpec spec;
        spec.taskFailureRate = rate;
        FaultInjector injector(spec, 7);
        rig.engine->setFaultInjector(&injector);
        const double seconds =
            rig.engine->runStage(computeStage(144, 10.0)).seconds();
        EXPECT_GT(seconds, previous);
        previous = seconds;
    }
}

TEST(TaskEngineFaults, TaskExceedingMaxFailuresAbortsTheApplication)
{
    EngineRig rig;
    FaultSpec spec;
    spec.taskFailureRate = 0.99; // nearly every attempt crashes
    FaultInjector injector(spec, 7);
    rig.engine->setFaultInjector(&injector);
    EXPECT_THROW(rig.engine->runStage(computeStage(16, 1.0)),
                 FatalError);
}

// -------------------------------------------------------- spark context

namespace context_helpers {

struct ContextRig
{
    sim::Simulator sim;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<dfs::Hdfs> hdfs;
    std::unique_ptr<spark::SparkContext> context;

    explicit ContextRig(spark::SparkConf conf = spark::SparkConf{})
    {
        cluster::ClusterConfig config =
            cluster::ClusterConfig::motivationCluster();
        config.taskJitterSigma = 0.0;
        cluster = std::make_unique<cluster::Cluster>(sim, config);
        hdfs = std::make_unique<dfs::Hdfs>(*cluster);
        hdfs->addFile("input", gib(1));
        context = std::make_unique<spark::SparkContext>(*cluster,
                                                        *hdfs, conf);
    }

    std::string
    runShuffleJob()
    {
        spark::RddRef input = context->hadoopFile("input");
        spark::ShuffleSpec shuffle;
        shuffle.bytes = gib(2);
        spark::RddRef grouped = spark::Rdd::shuffled(
            "grouped", input, 16, gib(2), shuffle);
        context->runJob("job", grouped, spark::ActionSpec::count());
        return spark::metricsJson(context->metrics());
    }
};

} // namespace context_helpers

using context_helpers::ContextRig;

/**
 * Attaching an injector whose rates are all zero must not perturb the
 * simulation at all: same events, same clock, same JSON.
 */
TEST(SparkContextFaults, ZeroRateInjectorIsPassThrough)
{
    ContextRig plain;
    const std::string without = plain.runShuffleJob();

    ContextRig rig;
    FaultSpec zero;
    FaultInjector injector(zero, 99);
    rig.context->setFaultInjector(&injector);
    const std::string with = rig.runShuffleJob();

    EXPECT_EQ(without, with);
}

TEST(SparkContextFaults, FetchFailureTriggersStageReattempt)
{
    // A spontaneous fetch failure re-fails reattempts with the same
    // probability (the sources stay alive), so give the stage plenty
    // of attempts and keep the per-batch rate low.
    spark::SparkConf conf;
    conf.stageMaxAttempts = 50;
    ContextRig rig(conf);
    FaultSpec spec;
    spec.shuffleFetchFailureRate = 0.05;
    FaultInjector injector(spec, 3);
    rig.context->setFaultInjector(&injector);
    rig.runShuffleJob();

    const spark::AppMetrics &metrics = rig.context->metrics();
    ASSERT_EQ(metrics.jobs.size(), 1u);
    ASSERT_EQ(metrics.jobs[0].stages.size(), 2u);
    const spark::StageMetrics &reduce = metrics.jobs[0].stages[1];
    EXPECT_GT(reduce.faults.fetchFailures, 0u);
    EXPECT_GE(reduce.faults.stageReattempts, 1u);
    EXPECT_GT(reduce.faults.recoverySeconds, 0.0);
    // The merged entry covers the reattempts: every partition finished.
    EXPECT_GE(reduce.taskDuration.count(),
              static_cast<std::uint64_t>(reduce.numTasks));
    EXPECT_EQ(reduce.fetchFailedSource, -1);
}

// ------------------------------------------------------- end to end

namespace {

spark::AppMetrics
runTerasort(const FaultSpec *spec)
{
    const auto workload = workloads::makeWorkload("terasort");
    cluster::ClusterConfig config =
        cluster::ClusterConfig::evaluationCluster();
    config.numSlaves = 3;
    spark::SparkConf conf;
    conf.executorCores = 8;
    return workload->run(config, conf, nullptr, spec);
}

} // namespace

/**
 * Kill a node in the middle of the shuffle-read stage: in-flight
 * attempts are lost, the next fetch against the dead node aborts the
 * stage, the lost map outputs are recomputed from lineage, HDFS reads
 * fail over to surviving replicas, and the run still completes.
 */
TEST(EndToEndFaults, NodeLossMidShuffleRecovers)
{
    const spark::AppMetrics clean = runTerasort(nullptr);
    EXPECT_FALSE(clean.faultsPresent);
    const auto stages = clean.allStages();
    ASSERT_EQ(stages.size(), 2u);
    // Early in the reduce stage's window, while tasks are still
    // launching and fetching (the tail of the window is the async
    // HDFS output-write backlog draining, with no fetches left).
    const double killAt =
        ticksToSeconds(stages[1]->startTick) +
        0.1 * ticksToSeconds(stages[1]->endTick -
                             stages[1]->startTick);

    FaultSpec spec;
    NodeEvent kill;
    kill.kind = NodeEvent::Kind::Kill;
    kill.node = 1;
    kill.atSeconds = killAt;
    spec.schedule.add(kill);

    const spark::AppMetrics faulty = runTerasort(&spec);
    ASSERT_TRUE(faulty.faultsPresent);
    EXPECT_GT(faulty.faults.lostAttempts, 0u);
    EXPECT_GT(faulty.faults.fetchFailures, 0u);
    EXPECT_GE(faulty.faults.stageReattempts, 1u);
    EXPECT_GT(faulty.faults.hdfsFailovers, 0u);
    EXPECT_GT(faulty.faults.reReplicatedBytes, 0u);
    EXPECT_GT(faulty.faults.recoverySeconds, 0.0);
    // Losing a third of the cluster mid-shuffle must cost time.
    EXPECT_GT(faulty.seconds(), clean.seconds());
    // All partitions of both stages completed despite the loss.
    for (const spark::StageMetrics *stage : faulty.allStages())
        EXPECT_GE(stage->taskDuration.count(),
                  static_cast<std::uint64_t>(stage->numTasks));
}

/** Same seed + same schedule => byte-identical metrics JSON. */
TEST(EndToEndFaults, FaultRunsAreDeterministic)
{
    FaultSpec spec;
    spec.taskFailureRate = 0.02;
    NodeEvent kill;
    kill.kind = NodeEvent::Kind::Kill;
    kill.node = 2;
    kill.atSeconds = 120.0;
    spec.schedule.add(kill);

    const std::string first =
        spark::metricsJson(runTerasort(&spec));
    const std::string second =
        spark::metricsJson(runTerasort(&spec));
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"faults\""), std::string::npos);
}

// --------------------------------------- gray-failure DSL directives

TEST(FaultSpecGray, ParsesPartitionAndHeal)
{
    const FaultSpec spec = FaultSpec::parse(
        "partition 0,1|2,3@120\n"
        "heal@180\n");
    ASSERT_EQ(spec.schedule.size(), 2u);
    const NodeEvent &split = spec.schedule.events()[0];
    EXPECT_EQ(split.kind, NodeEvent::Kind::Partition);
    EXPECT_DOUBLE_EQ(split.atSeconds, 120.0);
    EXPECT_EQ(split.groupA, (std::vector<int>{0, 1}));
    EXPECT_EQ(split.groupB, (std::vector<int>{2, 3}));
    const NodeEvent &heal = spec.schedule.events()[1];
    EXPECT_EQ(heal.kind, NodeEvent::Kind::Heal);
    EXPECT_DOUBLE_EQ(heal.atSeconds, 180.0);
}

TEST(FaultSpecGray, ParsesCorruptRateAndSlowNode)
{
    const FaultSpec spec = FaultSpec::parse(
        "corrupt-rate 0.001; slow-node 1@60 3.0");
    EXPECT_DOUBLE_EQ(spec.hdfsCorruptRate, 0.001);
    ASSERT_EQ(spec.schedule.size(), 1u);
    const NodeEvent &gray = spec.schedule.events()[0];
    EXPECT_EQ(gray.kind, NodeEvent::Kind::SlowNode);
    EXPECT_EQ(gray.node, 1);
    EXPECT_DOUBLE_EQ(gray.factor, 3.0);
    EXPECT_STREQ(faults::nodeEventKindName(gray.kind), "slow-node");
}

TEST(FaultSpecGray, RejectsMalformedPartitions)
{
    EXPECT_THROW(FaultSpec::parse("partition 0,1@120"), FatalError);
    EXPECT_THROW(FaultSpec::parse("partition |2,3@120"), FatalError);
    EXPECT_THROW(FaultSpec::parse("partition 0,1|@120"), FatalError);
    EXPECT_THROW(FaultSpec::parse("partition 0,1|1,2@120"),
                 FatalError);
    EXPECT_THROW(FaultSpec::parse("slow-node 1@60 0.5"), FatalError);
    EXPECT_THROW(FaultSpec::parse("corrupt-rate 1.0"), FatalError);
}

/** A rejoin of a never-killed node is a spec typo, not a no-op. */
TEST(FaultSpecGray, RejectsRejoinWithoutPriorKill)
{
    EXPECT_THROW(FaultSpec::parse("rejoin 2@600"), FatalError);
    // Wrong order in time also counts: the rejoin fires first.
    EXPECT_THROW(FaultSpec::parse("kill 2@600; rejoin 2@120"),
                 FatalError);
    EXPECT_NO_THROW(FaultSpec::parse("kill 2@120; rejoin 2@600"));
}

TEST(FaultSpecGray, RejectsHealWithoutPriorPartition)
{
    EXPECT_THROW(FaultSpec::parse("heal@180"), FatalError);
    EXPECT_NO_THROW(
        FaultSpec::parse("partition 0|1,2@120; heal@180"));
}

/** Parse errors name the input and line of the offending statement. */
TEST(FaultSpecGray, ErrorsCarrySourceAndLineNumber)
{
    try {
        FaultSpec::parse("task-fail-rate 0.01\nkill x@10\n",
                         "myspec");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("myspec:2"),
                  std::string::npos)
            << e.what();
    }
    try {
        FaultSpec::parse("kill 2@120\nrejoin 3@600\n", "myspec");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("myspec:2"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace doppio
