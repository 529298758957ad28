/**
 * @file
 * Unified memory manager tests: pool arithmetic, LRU eviction,
 * borrowing, spill, recompute-from-lineage, OOM retry, degrade-mem,
 * and legacy-mode invariance (DESIGN.md §9).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "dfs/hdfs.h"
#include "sim/simulator.h"
#include "spark/memory_manager.h"
#include "spark/metrics_json.h"
#include "spark/spark_context.h"
#include "workloads/terasort.h"

namespace doppio::spark {
namespace {

// ---------------------------------------------------------------------
// MemoryManager unit tests (pure pool arithmetic, no cluster).

TEST(MemoryManager, StorageMayFillTheWholePool)
{
    MemoryManager mm(mib(100), 0.5);
    std::vector<MemoryManager::BlockId> evicted;
    for (MemoryManager::BlockId id = 1; id <= 10; ++id)
        EXPECT_TRUE(mm.putBlock(id, mib(10), &evicted));
    EXPECT_TRUE(evicted.empty());
    EXPECT_EQ(mm.storageUsed(), mib(100));
    EXPECT_EQ(mm.blockCount(), 10u);
}

TEST(MemoryManager, CachingEvictsColdestFirst)
{
    MemoryManager mm(mib(30), 0.5);
    std::vector<MemoryManager::BlockId> evicted;
    mm.putBlock(1, mib(10), &evicted);
    mm.putBlock(2, mib(10), &evicted);
    mm.putBlock(3, mib(10), &evicted);
    mm.touchBlock(1); // 2 is now the coldest
    mm.putBlock(4, mib(10), &evicted);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 2u);
    EXPECT_TRUE(mm.hasBlock(1));
    EXPECT_TRUE(mm.hasBlock(4));
}

TEST(MemoryManager, BlockLargerThanPoolIsRejectedWithoutEviction)
{
    MemoryManager mm(mib(30), 0.5);
    std::vector<MemoryManager::BlockId> evicted;
    mm.putBlock(1, mib(10), &evicted);
    EXPECT_FALSE(mm.putBlock(2, mib(40), &evicted));
    EXPECT_TRUE(evicted.empty());
    EXPECT_TRUE(mm.hasBlock(1));
}

TEST(MemoryManager, ExecutionBorrowsByEvictingDownToTheFloor)
{
    MemoryManager mm(mib(100), 0.5);
    std::vector<MemoryManager::BlockId> evicted;
    for (MemoryManager::BlockId id = 1; id <= 8; ++id)
        mm.putBlock(id, mib(10), &evicted);
    // 80 MiB cached, 20 MiB free; a 40 MiB reservation must evict two
    // blocks (coldest first), stopping as soon as it fits.
    const Bytes grant = mm.acquireExecution(mib(40), 1, &evicted);
    EXPECT_EQ(grant, mib(40));
    EXPECT_EQ(evicted, (std::vector<MemoryManager::BlockId>{1, 2}));
    EXPECT_EQ(mm.storageUsed(), mib(60));

    // The next reservation can only push storage down to the floor
    // (50 MiB): one more eviction, then the grant is cut to what is
    // free.
    evicted.clear();
    const Bytes second = mm.acquireExecution(mib(100), 1, &evicted);
    EXPECT_EQ(second, mib(10));
    EXPECT_EQ(evicted, (std::vector<MemoryManager::BlockId>{3}));
    EXPECT_EQ(mm.storageUsed(), mm.storageFloor());

    // Storage at the floor and execution holding the rest: OOM.
    evicted.clear();
    EXPECT_EQ(mm.acquireExecution(mib(1), 1, &evicted), 0ULL);
    EXPECT_TRUE(evicted.empty());
}

TEST(MemoryManager, StorageNeverEvictsExecution)
{
    MemoryManager mm(mib(100), 0.0);
    std::vector<MemoryManager::BlockId> evicted;
    EXPECT_EQ(mm.acquireExecution(mib(80), 1, nullptr), mib(80));
    // Only 20 MiB remain cacheable; a 30 MiB block can never fit.
    EXPECT_FALSE(mm.putBlock(1, mib(30), &evicted));
    EXPECT_TRUE(mm.putBlock(2, mib(20), &evicted));
    mm.releaseExecution(mib(80));
    EXPECT_TRUE(mm.putBlock(3, mib(30), &evicted));
}

TEST(MemoryManager, FairShareSplitsTheCapAcrossActiveTasks)
{
    MemoryManager mm(mib(100), 0.0);
    EXPECT_EQ(mm.acquireExecution(mib(100), 4, nullptr), mib(25));
}

TEST(MemoryManager, ReleaseClampsAtTheOutstandingTotal)
{
    MemoryManager mm(mib(100), 0.0);
    mm.acquireExecution(mib(10), 1, nullptr);
    mm.releaseExecution(mib(50));
    EXPECT_EQ(mm.executionUsed(), 0ULL);
}

TEST(MemoryManager, DegradeClampEvictsAndRestoreRefills)
{
    MemoryManager mm(mib(100), 0.5);
    std::vector<MemoryManager::BlockId> evicted;
    for (MemoryManager::BlockId id = 1; id <= 10; ++id)
        mm.putBlock(id, mib(10), &evicted);
    mm.setPoolFraction(0.5, &evicted);
    EXPECT_EQ(mm.poolSize(), mib(50));
    EXPECT_EQ(evicted.size(), 5u);
    EXPECT_EQ(mm.storageUsed(), mib(50));
    mm.setPoolFraction(1.0, &evicted);
    EXPECT_EQ(mm.poolSize(), mib(100));
    EXPECT_EQ(evicted.size(), 5u); // restoring evicts nothing
}

TEST(MemoryManager, ResetForgetsBlocksHoldsAndClamps)
{
    MemoryManager mm(mib(100), 0.5);
    std::vector<MemoryManager::BlockId> evicted;
    mm.putBlock(1, mib(10), &evicted);
    mm.acquireExecution(mib(20), 1, nullptr);
    mm.setPoolFraction(0.5, &evicted);
    mm.reset();
    EXPECT_EQ(mm.poolSize(), mib(100));
    EXPECT_EQ(mm.storageUsed(), 0ULL);
    EXPECT_EQ(mm.executionUsed(), 0ULL);
    EXPECT_EQ(mm.blockCount(), 0u);
    EXPECT_EQ(mm.peakStorageUsed(), 0ULL);
    EXPECT_EQ(mm.peakExecutionUsed(), 0ULL);
}

// ---------------------------------------------------------------------
// End-to-end fixture: 2 slaves x 4 cores, 1 GiB HDFS input
// (8 x 128 MiB partitions), unified memory on.

class UnifiedMemoryTest : public ::testing::Test
{
  protected:
    void
    init(Bytes executorMemory, double storageFraction = 0.5)
    {
        config_ = cluster::ClusterConfig::motivationCluster();
        config_.taskJitterSigma = 0.0;
        config_.numSlaves = 2;
        config_.node.cores = 4;
        config_.node.executorMemory = executorMemory;
        config_.node.ram = executorMemory + gib(4);
        cluster_ =
            std::make_unique<cluster::Cluster>(sim_, config_);
        hdfs_ = std::make_unique<dfs::Hdfs>(*cluster_);
        hdfs_->addFile("input", gib(1));
        conf_.executorCores = 4;
        conf_.unifiedMemory = true;
        conf_.memoryStorageFraction = storageFraction;
        context_ = std::make_unique<SparkContext>(*cluster_, *hdfs_,
                                                  conf_);
    }

    /** Per-node unified pool under init()'s parameters. */
    Bytes
    pool() const
    {
        return static_cast<Bytes>(
            static_cast<double>(config_.node.executorMemory) *
            conf_.memoryFraction);
    }

    RddRef
    persisted(StorageLevel level, Bytes memoryBytes)
    {
        RddRef input = context_->hadoopFile("input");
        RddRef parsed = Rdd::narrow("parsed", {input}, gib(1));
        parsed->memoryBytes = memoryBytes;
        parsed->persist(level);
        return parsed;
    }

    sim::Simulator sim_;
    cluster::ClusterConfig config_;
    SparkConf conf_;
    std::unique_ptr<cluster::Cluster> cluster_;
    std::unique_ptr<dfs::Hdfs> hdfs_;
    std::unique_ptr<SparkContext> context_;
};

TEST_F(UnifiedMemoryTest, FittingRddIsFullyCachedAndReadForFree)
{
    init(gib(4));
    RddRef parsed = persisted(StorageLevel::MemoryAndDisk, mib(256));
    context_->runJob("validate", parsed, ActionSpec::count());
    const BlockManager::ReadPlan plan =
        context_->blockManager().readPlan(parsed.get());
    EXPECT_EQ(plan.cached, plan.total);
    const JobMetrics &job =
        context_->runJob("iterate", parsed, ActionSpec::count());
    EXPECT_EQ(job.stages[0].forOp(storage::IoOp::HdfsRead).bytes, 0ULL);
    EXPECT_EQ(job.stages[0].forOp(storage::IoOp::PersistRead).bytes,
              0ULL);
    const MemoryMetrics memory =
        context_->blockManager().memoryMetrics();
    EXPECT_EQ(memory.evictedBlocks, 0u);
    EXPECT_GT(memory.peakStorageBytes, 0ULL);
}

/**
 * Cached blocks keep their RDD alive until unpersisted: a later
 * eviction reads the RDD's sizes, and a multi-tenant job used to free
 * its lineage while its blocks stayed cached (a use-after-free).
 */
TEST_F(UnifiedMemoryTest, CachedBlocksKeepTheirRddAlive)
{
    init(gib(4));
    RddRef parsed = persisted(StorageLevel::MemoryAndDisk, mib(256));
    context_->runJob("validate", parsed, ActionSpec::count());
    const std::weak_ptr<Rdd> weak = parsed;
    parsed.reset();
    ASSERT_FALSE(weak.expired());
    context_->unpersist(weak.lock());
    EXPECT_TRUE(weak.expired());
}

TEST_F(UnifiedMemoryTest, OversizedMemoryAndDiskRddSpillsBlocksToDisk)
{
    // Pool = 192 MiB per node; 4 x 128 MiB partitions per node want
    // 512 MiB, so caching evicts all but the last block to disk.
    init(mib(256));
    RddRef parsed = persisted(StorageLevel::MemoryAndDisk, gib(1));
    context_->runJob("validate", parsed, ActionSpec::count());
    const BlockManager::ReadPlan plan =
        context_->blockManager().readPlan(parsed.get());
    EXPECT_EQ(plan.total, 8);
    EXPECT_EQ(plan.cached, 2);
    EXPECT_EQ(plan.disk, 6);
    EXPECT_EQ(plan.missing, 0);
    const MemoryMetrics memory =
        context_->blockManager().memoryMetrics();
    EXPECT_EQ(memory.evictedBlocks, 6u);
    EXPECT_EQ(memory.evictedToDiskBytes, 6 * mib(128));

    // The next read pays PersistRead for the disk share only.
    const JobMetrics &job =
        context_->runJob("iterate", parsed, ActionSpec::count());
    EXPECT_EQ(job.stages[0].forOp(storage::IoOp::HdfsRead).bytes, 0ULL);
    EXPECT_GT(job.stages[0].forOp(storage::IoOp::PersistRead).bytes,
              0ULL);
}

TEST_F(UnifiedMemoryTest, DroppedMemoryOnlyBlocksRecomputeFromLineage)
{
    init(mib(256));
    RddRef parsed = persisted(StorageLevel::MemoryOnly, gib(1));
    context_->runJob("validate", parsed, ActionSpec::count());
    const BlockManager::ReadPlan plan =
        context_->blockManager().readPlan(parsed.get());
    EXPECT_GT(plan.missing, 0);
    const JobMetrics &job =
        context_->runJob("iterate", parsed, ActionSpec::count());
    // Missing partitions re-read their lineage from HDFS.
    EXPECT_GT(job.stages[0].forOp(storage::IoOp::HdfsRead).bytes, 0ULL);
    EXPECT_GE(context_->blockManager().memoryMetrics()
                  .recomputedPartitions,
              static_cast<std::uint64_t>(plan.missing));
}

TEST_F(UnifiedMemoryTest, ShuffleShortfallSpillsThroughTheDisks)
{
    init(mib(256), /*storageFraction=*/0.0);
    RddRef input = context_->hadoopFile("input");
    ShuffleSpec spec;
    spec.bytes = gib(4); // 512 MiB per map task vs a 192 MiB pool
    RddRef grouped = Rdd::shuffled("grouped", input, 8, gib(4), spec);
    const JobMetrics &job =
        context_->runJob("sort", grouped, ActionSpec::count());
    const MemoryMetrics memory =
        context_->blockManager().memoryMetrics();
    EXPECT_GT(memory.spills, 0u);
    EXPECT_GT(memory.spilledBytes, 0ULL);
    EXPECT_EQ(memory.oomKills, 0u);
    Bytes spillWrites = 0;
    for (const JobMetrics &j : context_->metrics().jobs)
        for (const StageMetrics &stage : j.stages)
            spillWrites +=
                stage.forOp(storage::IoOp::SpillWrite).bytes;
    EXPECT_GT(spillWrites, 0ULL);
    EXPECT_GT(job.seconds(), 0.0);
}

TEST_F(UnifiedMemoryTest, ZeroGrantOomRetriesThenAbortsTheApplication)
{
    // storageFraction 1.0 protects the whole pool; filling it with
    // cached blocks leaves execution nothing to claim, ever.
    init(mib(256), /*storageFraction=*/1.0);
    RddRef parsed =
        persisted(StorageLevel::MemoryOnly, 2 * pool());
    context_->runJob("validate", parsed, ActionSpec::count());
    ASSERT_EQ(context_->blockManager()
                  .readPlan(parsed.get())
                  .cached,
              8);
    ShuffleSpec spec;
    spec.bytes = gib(2);
    RddRef grouped =
        Rdd::shuffled("grouped", parsed, 8, gib(2), spec);
    EXPECT_THROW(
        context_->runJob("sort", grouped, ActionSpec::count()),
        FatalError);
    const MemoryMetrics memory =
        context_->blockManager().memoryMetrics();
    EXPECT_GE(memory.oomKills,
              static_cast<std::uint64_t>(conf_.taskMaxFailures));
}

TEST_F(UnifiedMemoryTest, DegradeMemClampEvictsAndRestoreReopens)
{
    init(gib(4));
    RddRef parsed = persisted(StorageLevel::MemoryAndDisk, gib(2));
    context_->runJob("validate", parsed, ActionSpec::count());
    ASSERT_EQ(context_->blockManager().readPlan(parsed.get()).cached,
              8);
    cluster_->setMemoryFraction(0, 0.1);
    EXPECT_EQ(context_->blockManager().nodeMemory(0).poolSize(),
              static_cast<Bytes>(0.1 * static_cast<double>(pool())));
    const BlockManager::ReadPlan plan =
        context_->blockManager().readPlan(parsed.get());
    EXPECT_LT(plan.cached, 8);
    EXPECT_GT(plan.disk, 0);
    EXPECT_GT(context_->blockManager().memoryMetrics().evictedBlocks,
              0u);
    cluster_->setMemoryFraction(0, 1.0);
    EXPECT_EQ(context_->blockManager().nodeMemory(0).poolSize(),
              pool());
}

TEST_F(UnifiedMemoryTest, NodeDeathDropsItsBlocksForRecompute)
{
    init(gib(4));
    RddRef parsed = persisted(StorageLevel::MemoryAndDisk, mib(256));
    context_->runJob("validate", parsed, ActionSpec::count());
    cluster_->setNodeAlive(0, false);
    const BlockManager::ReadPlan plan =
        context_->blockManager().readPlan(parsed.get());
    EXPECT_EQ(plan.missing, 4);
    EXPECT_EQ(plan.cached, 4);
}

// ---------------------------------------------------------------------
// Whole-application determinism and legacy invariance.

namespace determinism {

cluster::ClusterConfig
pressuredCluster()
{
    cluster::ClusterConfig config =
        cluster::ClusterConfig::motivationCluster();
    config.taskJitterSigma = 0.0;
    config.numSlaves = 2;
    config.node.cores = 4;
    config.node.executorMemory = gib(1);
    config.node.ram = gib(8);
    return config;
}

std::string
runTerasortJson(bool unifiedMemory)
{
    workloads::Terasort::Options options;
    options.dataBytes = gib(8);
    options.reducers = 8;
    workloads::Terasort workload(options);
    SparkConf conf;
    conf.executorCores = 4;
    conf.unifiedMemory = unifiedMemory;
    AppMetrics metrics = workload.run(pressuredCluster(), conf);
    return metricsJson(metrics);
}

} // namespace determinism

TEST(UnifiedMemoryDeterminism, BackToBackRunsEmitIdenticalJson)
{
    const std::string first = determinism::runTerasortJson(true);
    const std::string second = determinism::runTerasortJson(true);
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"memory\""), std::string::npos);
    EXPECT_NE(first.find("\"spilled_bytes\""), std::string::npos);
}

TEST(UnifiedMemoryDeterminism, LegacyModeCarriesNoMemoryBlock)
{
    const std::string first = determinism::runTerasortJson(false);
    const std::string second = determinism::runTerasortJson(false);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first.find("\"memory\""), std::string::npos);
}

TEST(LegacyBlockManager, ModeSelectingCtorMatchesLegacyPlacement)
{
    sim::Simulator sim;
    cluster::ClusterConfig config =
        cluster::ClusterConfig::motivationCluster();
    cluster::Cluster cluster(sim, config);
    SparkConf conf; // unifiedMemory off
    BlockManager modern(cluster, conf);
    BlockManager legacy(cluster.totalStorageMemory(),
                        conf.memoryExpansionFactor);
    EXPECT_FALSE(modern.unified());

    auto rdd = std::make_shared<Rdd>();
    rdd->name = "a";
    rdd->numPartitions = 10;
    rdd->bytes = gib(50);
    rdd->memoryBytes = gib(50);
    rdd->storageLevel = StorageLevel::MemoryAndDisk;
    EXPECT_EQ(modern.materialize(*rdd), legacy.materialize(*rdd));
    EXPECT_EQ(modern.memoryUsed(), legacy.memoryUsed());
    EXPECT_EQ(modern.capacity(), legacy.capacity());
}

} // namespace
} // namespace doppio::spark
