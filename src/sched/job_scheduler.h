/**
 * @file
 * Multi-tenant job scheduler.
 *
 * A JobScheduler admits many concurrent jobs into one shared simulated
 * cluster: every tenant gets its own JobContext — its own DAG
 * compiler, lineage state, metrics and fetch-failure recovery — while
 * all of them share the one Simulator, cluster, disks, page cache,
 * unified memory manager, shuffle/block state and fault injector. The
 * scheduler implements spark::CoreArbiter: whenever the shared
 * TaskEngine frees an executor core it offers the core around Spark
 * 1.6's pool hierarchy (FIFO or FAIR pools with per-pool weight and
 * minShare) in a round-robin offer loop over the free cores.
 *
 * Jobs of one tenant run sequentially in submission order, as one
 * Spark driver thread would issue them; concurrency comes from
 * tenants. Cross-job contention on disks, page cache and memory — the
 * payoff of Eq. 1's read/shuffle/spill terms under multi-tenancy — is
 * modeled by construction because every byte moves through the shared
 * devices.
 */

#ifndef DOPPIO_SCHED_JOB_SCHEDULER_H
#define DOPPIO_SCHED_JOB_SCHEDULER_H

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "dfs/hdfs.h"
#include "sched/pool.h"
#include "spark/block_manager.h"
#include "spark/dag_scheduler.h"
#include "spark/metrics.h"
#include "spark/rdd.h"
#include "spark/recovery.h"
#include "spark/spark_conf.h"
#include "spark/task_engine.h"

namespace doppio::faults {
class FaultInjector;
}

namespace doppio::trace {
class TraceCollector;
}

namespace doppio::sched {

class JobScheduler;

/**
 * One tenant's asynchronous Spark driver: compiles jobs at start (so
 * materialization state reflects everything that ran before) and walks
 * their stages through the shared TaskEngine via submitStage, with the
 * same fetch-failure recovery loop as SparkContext (spark::StageRecovery)
 * continuing from each stage's completion callback.
 */
class JobContext
{
  public:
    /** One queued action-job of this tenant. */
    struct JobRequest
    {
        std::string name;
        spark::RddRef target;
        spark::ActionSpec action;
        /** RDDs unpersisted after the job completes (generation
         *  cleanup, e.g. PageRank's grandparent drop). */
        std::vector<spark::RddRef> unpersistAfter;
        /** Fires after the job's metrics are recorded and the
         *  unpersists ran. */
        std::function<void()> onDone;
    };

    /** Leaf RDD over a registered HDFS file (partitions = blocks). */
    spark::RddRef hadoopFile(const std::string &fileName);

    /**
     * Queue one job. Jobs of a context run sequentially in submission
     * order; the first submission starts executing immediately (the
     * caller still has to drive the simulator, or be inside it).
     */
    void submitJob(JobRequest request);

    /** @return true when no job is queued or executing. */
    bool idle() const { return active_ == nullptr && queue_.empty(); }

    /** @return this tenant's accumulated application metrics. */
    const spark::AppMetrics &appMetrics() const { return metrics_; }
    spark::AppMetrics &appMetrics() { return metrics_; }

    const std::string &name() const { return name_; }
    int id() const { return id_; }
    int poolIndex() const { return poolIndex_; }
    /** Simulation tick of the first submitJob call. */
    Tick submitTick() const { return submitTick_; }
    /** Simulation tick the last job completed at. */
    Tick doneTick() const { return doneTick_; }
    /** Completed jobs so far. */
    int jobsCompleted() const
    {
        return static_cast<int>(metrics_.jobs.size());
    }

    /**
     * Run one compiled stage as this tenant (with fetch-failure
     * recovery) and pass its merged metrics to @p done from within the
     * event loop; @p stage must stay alive until then. Jobs use this
     * for each of their stages.
     */
    void runStage(const spark::StageSpec &stage,
                  spark::StageRecovery::StageDone done);

    /** Stage currently executing, or nullptr between stages. */
    const spark::TaskEngine::StageRef &activeRun() const
    {
        return activeRun_;
    }

  private:
    friend class JobScheduler;

    /** The executing job. */
    struct ActiveJob
    {
        JobRequest request;
        spark::JobSpec spec;
        std::size_t stageIdx = 0;
        spark::JobMetrics metrics;
    };

    JobContext(JobScheduler &scheduler, int id, std::string tenantName,
               int poolIndex);

    void startNextJob();
    void runNextStage();
    void finishJob();

    JobScheduler &scheduler_;
    int id_ = 0;
    std::string name_;
    int poolIndex_ = 0;
    spark::DagScheduler dag_;
    spark::AppMetrics metrics_;
    std::deque<JobRequest> queue_;
    std::unique_ptr<ActiveJob> active_;
    spark::TaskEngine::StageRef activeRun_;
    /// Fetch-failure recovery over submitStage attempts.
    spark::StageRecovery recovery_;
    Tick submitTick_ = 0;
    Tick doneTick_ = 0;
    bool submitted_ = false;
};

/** Per-tenant slice of a finished multi-tenant run. */
struct TenantSummary
{
    std::string name;
    std::string pool;
    int jobs = 0;             //!< completed jobs
    double submitSec = 0.0;   //!< first submission (simulated seconds)
    double doneSec = 0.0;     //!< last job completion
    double coreSeconds = 0.0; //!< integral of occupied cores over time
    /** Streaming tenants with the recovery path enabled also report
     *  their checkpoint/recovery record and whether every recovery
     *  stayed within the checkpoint-interval SLO (filled by
     *  workloads::runMultiTenant from the driver's stats). */
    bool streamRecovery = false;
    double checkpointIntervalSec = -1.0;
    std::uint64_t checkpoints = 0;
    std::uint64_t recoveries = 0;
    double maxRecoverySec = 0.0;

    /** Recovery-time SLO: every observed recovery completed within
     *  one checkpoint interval (vacuously true with none observed;
     *  interval 0 = unbounded replay, met only if never exercised). */
    bool
    recoverySloMet() const
    {
        if (recoveries == 0)
            return true;
        return checkpointIntervalSec > 0.0 &&
               maxRecoverySec <= checkpointIntervalSec;
    }
};

/** Per-pool slice of a finished multi-tenant run. */
struct PoolSummary
{
    std::string name;
    bool fair = false;
    double weight = 1.0;
    int minShare = 0;
    double coreSeconds = 0.0;
};

/** The "tenancy" metrics block of a multi-tenant run. */
struct TenancySummary
{
    std::vector<TenantSummary> tenants;
    std::vector<PoolSummary> pools;

    double totalCoreSeconds() const;
};

/** Admits concurrent jobs into one shared cluster (see file docs). */
class JobScheduler : public spark::CoreArbiter
{
  public:
    JobScheduler(cluster::Cluster &clusterRef, dfs::Hdfs &hdfs,
                 spark::SparkConf conf);
    ~JobScheduler() override;

    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /**
     * Define a pool before any tenant references it. A "default" FIFO
     * pool of weight 1 always exists. fatal() on duplicates.
     */
    void definePool(const PoolConfig &config);

    /**
     * Register a tenant in @p pool. Tenants share the cluster but own
     * their lineage and metrics; the returned context stays valid for
     * the scheduler's lifetime.
     */
    JobContext &addTenant(const std::string &tenantName,
                          const std::string &pool = "default");

    /**
     * Attach the run's fault injector (wires the shared engine and
     * HDFS; nullptr detaches). Armed node events act on every job in
     * flight; recovery stays per-job because each JobContext reruns
     * only its own lineage.
     */
    void setFaultInjector(faults::FaultInjector *injector);

    /**
     * Attach a telemetry collector (nullptr detaches): wires the
     * shared engine and block manager, and names one driver lane per
     * tenant ("job <name>" on trace::jobTid) so Perfetto shows
     * per-job stage/batch spans instead of one interleaved lane.
     */
    void setTraceCollector(trace::TraceCollector *collector);
    trace::TraceCollector *collector() const { return collector_; }

    /**
     * Drive the simulation until every queued job completed. fatal()s
     * if a tenant still has work after the event queue drained (a
     * scheduling deadlock would otherwise pass silently).
     */
    void run();

    /** Per-tenant/per-pool shares of the finished run. */
    TenancySummary tenancy() const;

    /** Tasks of tenant @p tenant currently occupying cores (fairness
     *  probes; samples the instantaneous share). */
    int runningTasks(int tenant) const;

    cluster::Cluster &clusterRef() { return cluster_; }
    dfs::Hdfs &hdfs() { return hdfs_; }
    const spark::SparkConf &conf() const { return conf_; }
    spark::BlockManager &blockManager() { return blockManager_; }
    spark::TaskEngine &engine() { return engine_; }

    // spark::CoreArbiter
    void attemptFinished(int node, int tag) override;
    void offerCore(int node) override;
    void offerCores() override;

  private:
    friend class JobContext;

    struct Pool
    {
        PoolConfig config;
        std::vector<int> members; //!< tenant ids, submission order
        int runningTasks = 0;
        double coreSeconds = 0.0;
        Tick lastChange = 0;
    };

    struct Tenant
    {
        std::unique_ptr<JobContext> context;
        int runningTasks = 0;
        double coreSeconds = 0.0;
        Tick lastChange = 0;
    };

    /** Fill @p node's free cores by policy order. */
    void pump(int node);

    /** Offer one core of @p node; @return true if a task launched. */
    bool launchOne(int node);

    /** Integrate core-occupancy up to now before a share changes. */
    void chargeTenant(Tenant &tenant);
    void chargePool(Pool &pool);

    int poolIndexByName(const std::string &pool) const;

    cluster::Cluster &cluster_;
    dfs::Hdfs &hdfs_;
    spark::SparkConf conf_;
    spark::BlockManager blockManager_;
    spark::TaskEngine engine_;
    trace::TraceCollector *collector_ = nullptr;
    std::vector<Pool> pools_;
    std::vector<Tenant> tenants_;
    std::vector<int> busy_; //!< scheduler-side busy cores per node
};

} // namespace doppio::sched

#endif // DOPPIO_SCHED_JOB_SCHEDULER_H
