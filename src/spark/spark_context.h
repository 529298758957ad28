/**
 * @file
 * Application entry point tying the Spark layers together.
 *
 * A SparkContext owns the DAG scheduler, block manager and task engine
 * for one application on one cluster. Jobs (actions) compile to stages
 * and execute to completion; materialization state (caches, shuffle
 * files) persists across jobs, so iterative applications reuse cached
 * RDDs and later jobs skip completed shuffle map stages.
 */

#ifndef DOPPIO_SPARK_SPARK_CONTEXT_H
#define DOPPIO_SPARK_SPARK_CONTEXT_H

#include <string>

#include "cluster/cluster.h"
#include "dfs/hdfs.h"
#include "spark/block_manager.h"
#include "spark/dag_scheduler.h"
#include "spark/metrics.h"
#include "spark/rdd.h"
#include "spark/recovery.h"
#include "spark/spark_conf.h"
#include "spark/task_engine.h"

namespace doppio::spark {

/** One Spark application instance. */
class SparkContext
{
  public:
    /**
     * @param clusterRef slave fleet to run on.
     * @param hdfs       filesystem holding the input files.
     * @param conf       runtime configuration (P, buffer sizes, ...).
     */
    SparkContext(cluster::Cluster &clusterRef, dfs::Hdfs &hdfs,
                 SparkConf conf);

    SparkContext(const SparkContext &) = delete;
    SparkContext &operator=(const SparkContext &) = delete;

    /** Leaf RDD over a registered HDFS file (partitions = blocks). */
    RddRef hadoopFile(const std::string &fileName);

    /**
     * Run the job triggered by @p action on @p target; stages execute
     * to completion on the simulated cluster. Metrics are appended to
     * the application metrics and returned.
     */
    const JobMetrics &runJob(const std::string &jobName,
                             const RddRef &target,
                             const ActionSpec &action);

    /** Drop a cached/persisted RDD (GraphX-style generation cleanup). */
    void unpersist(const RddRef &rdd);

    /**
     * Attach a task-trace collector recording every task's placement
     * and timing (Spark event-log style); nullptr detaches. Not
     * owned.
     */
    void setTaskTrace(TaskTrace *trace) { engine_.setTrace(trace); }

    /**
     * Attach a telemetry collector (nullptr detaches; not owned):
     * wires the task engine (stage windows, per-core task/phase spans)
     * and the block manager (eviction instants, pool counters). The
     * cluster-side hooks (devices, caches, network, faults) are wired
     * by cluster::Cluster::setTraceCollector — call both to get the
     * full picture.
     */
    void
    setTraceCollector(trace::TraceCollector *collector)
    {
        engine_.setTraceCollector(collector);
        blockManager_.setTraceCollector(collector);
    }

    /**
     * Attach the run's fault injector (nullptr detaches): wires the
     * task engine (crash draws, node-loss handling, fetch-failure
     * detection) and HDFS (read failover, re-replication), and enables
     * stage-level recovery in runJob — a stage aborted by a
     * FetchFailure recomputes the lost map outputs from lineage and
     * reruns the lost partitions, up to SparkConf::stageMaxAttempts.
     * Not owned; must outlive subsequent runJob() calls.
     */
    void setFaultInjector(faults::FaultInjector *injector);

    const SparkConf &conf() const { return conf_; }
    cluster::Cluster &clusterRef() { return cluster_; }
    dfs::Hdfs &hdfs() { return hdfs_; }
    BlockManager &blockManager() { return blockManager_; }
    TaskEngine &engine() { return engine_; }

    /** @return all metrics accumulated so far. */
    const AppMetrics &metrics() const { return metrics_; }
    AppMetrics &metrics() { return metrics_; }

  private:
    cluster::Cluster &cluster_;
    dfs::Hdfs &hdfs_;
    SparkConf conf_;
    BlockManager blockManager_;
    DagScheduler dag_;
    TaskEngine engine_;
    AppMetrics metrics_;
    /// Fetch-failure recovery over synchronous runStage attempts.
    StageRecovery recovery_;
};

} // namespace doppio::spark

#endif // DOPPIO_SPARK_SPARK_CONTEXT_H
