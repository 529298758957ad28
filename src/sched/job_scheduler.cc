#include "sched/job_scheduler.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "spark/recovery.h"
#include "trace/trace_collector.h"

namespace doppio::sched {

// ----------------------------------------------------------------------
// JobContext

JobContext::JobContext(JobScheduler &scheduler, int id,
                       std::string tenantName, int poolIndex)
    : scheduler_(scheduler), id_(id), name_(std::move(tenantName)),
      poolIndex_(poolIndex),
      dag_(scheduler.conf(), scheduler.hdfs(), scheduler.blockManager()),
      recovery_(
          [this](const spark::StageSpec &stage,
                 spark::StageRecovery::StageDone done) {
              activeRun_ = scheduler_.engine().submitStage(
                  stage, id_, trace::jobTid(id_),
                  [this, done = std::move(done)](
                      const spark::StageMetrics &metrics) {
                      activeRun_ = nullptr;
                      done(metrics);
                  });
              scheduler_.offerCores();
          },
          scheduler.clusterRef().numSlaves(),
          scheduler.conf().stageMaxAttempts, "[" + name_ + "] ")
{
}

spark::RddRef
JobContext::hadoopFile(const std::string &fileName)
{
    dfs::Hdfs &hdfs = scheduler_.hdfs();
    return spark::Rdd::source(fileName, hdfs,
                              hdfs.fileIdByName(fileName));
}

void
JobContext::submitJob(JobRequest request)
{
    if (!submitted_) {
        submitted_ = true;
        submitTick_ = scheduler_.cluster_.simulator().now();
    }
    queue_.push_back(std::move(request));
    if (active_ == nullptr)
        startNextJob();
}

void
JobContext::startNextJob()
{
    if (active_ != nullptr || queue_.empty())
        return;
    auto job = std::make_unique<ActiveJob>();
    job->request = std::move(queue_.front());
    queue_.pop_front();
    // Compile at start, not at submission: materialization decisions
    // must see every block the tenant's previous jobs cached.
    job->spec = dag_.compile(job->request.name, job->request.target,
                             job->request.action);
    job->metrics.name = job->spec.name;
    inform("[%s] job %s: %zu stage(s)", name_.c_str(),
           job->spec.name.c_str(), job->spec.stages.size());
    active_ = std::move(job);
    runNextStage();
}

void
JobContext::runNextStage()
{
    if (active_->stageIdx >= active_->spec.stages.size()) {
        finishJob();
        return;
    }
    runStage(active_->spec.stages[active_->stageIdx],
             [this](spark::StageMetrics metrics) {
                 inform("  [%s] stage %-24s M=%-6d %s", name_.c_str(),
                        metrics.name.c_str(), metrics.numTasks,
                        formatDuration(metrics.endTick -
                                       metrics.startTick)
                            .c_str());
                 active_->metrics.stages.push_back(std::move(metrics));
                 ++active_->stageIdx;
                 runNextStage();
             });
}

void
JobContext::finishJob()
{
    JobRequest request = std::move(active_->request);
    metrics_.jobs.push_back(std::move(active_->metrics));
    active_.reset();
    doneTick_ = scheduler_.cluster_.simulator().now();
    for (const spark::RddRef &rdd : request.unpersistAfter)
        scheduler_.blockManager().unpersist(rdd.get());
    // onDone may submit (and reentrantly start) follow-up jobs — the
    // streaming driver queues its next batch, checkpoint or recovery
    // job from here. Only pull from the queue if that didn't already
    // make a job active, or the assignment below would clobber it.
    if (request.onDone)
        request.onDone();
    startNextJob();
}

void
JobContext::runStage(const spark::StageSpec &stage,
                     spark::StageRecovery::StageDone done)
{
    recovery_.run(stage, std::move(done));
}

// ----------------------------------------------------------------------
// TenancySummary

double
TenancySummary::totalCoreSeconds() const
{
    double total = 0.0;
    for (const TenantSummary &tenant : tenants)
        total += tenant.coreSeconds;
    return total;
}

// ----------------------------------------------------------------------
// JobScheduler

JobScheduler::JobScheduler(cluster::Cluster &clusterRef, dfs::Hdfs &hdfs,
                           spark::SparkConf conf)
    : cluster_(clusterRef), hdfs_(hdfs), conf_(std::move(conf)),
      blockManager_(clusterRef, conf_),
      engine_(clusterRef, hdfs, conf_)
{
    if (conf_.executorCores <= 0)
        fatal("JobScheduler: executorCores must be positive");
    if (conf_.unifiedMemory)
        engine_.setMemoryModel(&blockManager_);
    engine_.setArbiter(this);
    busy_.assign(static_cast<std::size_t>(clusterRef.numSlaves()), 0);
    Pool defaultPool;
    pools_.push_back(std::move(defaultPool));
}

JobScheduler::~JobScheduler() = default;

void
JobScheduler::definePool(const PoolConfig &config)
{
    if (config.name.empty())
        fatal("JobScheduler: pool name must be non-empty");
    if (config.weight <= 0.0)
        fatal("JobScheduler: pool %s: weight must be positive",
              config.name.c_str());
    if (config.minShare < 0)
        fatal("JobScheduler: pool %s: minShare must be >= 0",
              config.name.c_str());
    for (Pool &pool : pools_) {
        if (pool.config.name != config.name)
            continue;
        // The implicit default pool may be reconfigured while unused.
        if (config.name == "default" && pool.members.empty()) {
            pool.config = config;
            return;
        }
        fatal("JobScheduler: duplicate pool %s", config.name.c_str());
    }
    Pool pool;
    pool.config = config;
    pools_.push_back(std::move(pool));
}

JobContext &
JobScheduler::addTenant(const std::string &tenantName,
                        const std::string &pool)
{
    const int poolIdx = poolIndexByName(pool);
    const int id = static_cast<int>(tenants_.size());
    Tenant tenant;
    tenant.context.reset(new JobContext(*this, id, tenantName, poolIdx));
    tenants_.push_back(std::move(tenant));
    pools_[static_cast<std::size_t>(poolIdx)].members.push_back(id);
    if (collector_ != nullptr)
        collector_->setThreadName(trace::kDriverPid, trace::jobTid(id),
                                  "job " + tenantName);
    return *tenants_.back().context;
}

void
JobScheduler::setFaultInjector(faults::FaultInjector *injector)
{
    engine_.setFaultInjector(injector);
    hdfs_.setFaultInjector(injector);
}

void
JobScheduler::setTraceCollector(trace::TraceCollector *collector)
{
    collector_ = collector;
    engine_.setTraceCollector(collector);
    blockManager_.setTraceCollector(collector);
    if (collector_ == nullptr)
        return;
    for (const Tenant &tenant : tenants_)
        collector_->setThreadName(
            trace::kDriverPid, trace::jobTid(tenant.context->id()),
            "job " + tenant.context->name());
}

void
JobScheduler::run()
{
    offerCores();
    cluster_.simulator().run();
    for (const Tenant &tenant : tenants_)
        if (!tenant.context->idle())
            fatal("JobScheduler: tenant %s still has queued work after "
                  "the event queue drained",
                  tenant.context->name().c_str());
}

TenancySummary
JobScheduler::tenancy() const
{
    TenancySummary summary;
    for (const Tenant &tenant : tenants_) {
        const JobContext &context = *tenant.context;
        TenantSummary ts;
        ts.name = context.name();
        ts.pool = pools_[static_cast<std::size_t>(context.poolIndex())]
                      .config.name;
        ts.jobs = context.jobsCompleted();
        ts.submitSec = ticksToSeconds(context.submitTick());
        ts.doneSec = ticksToSeconds(context.doneTick());
        ts.coreSeconds = tenant.coreSeconds;
        summary.tenants.push_back(std::move(ts));
    }
    for (const Pool &pool : pools_) {
        PoolSummary ps;
        ps.name = pool.config.name;
        ps.fair = pool.config.fair;
        ps.weight = pool.config.weight;
        ps.minShare = pool.config.minShare;
        ps.coreSeconds = pool.coreSeconds;
        summary.pools.push_back(std::move(ps));
    }
    return summary;
}

int
JobScheduler::runningTasks(int tenant) const
{
    return tenants_[static_cast<std::size_t>(tenant)].runningTasks;
}

void
JobScheduler::attemptFinished(int node, int tag)
{
    Tenant &tenant = tenants_[static_cast<std::size_t>(tag)];
    Pool &pool =
        pools_[static_cast<std::size_t>(tenant.context->poolIndex())];
    chargeTenant(tenant);
    chargePool(pool);
    --tenant.runningTasks;
    --pool.runningTasks;
    --busy_[static_cast<std::size_t>(node)];
    if (tenant.runningTasks < 0 ||
        busy_[static_cast<std::size_t>(node)] < 0)
        panic("JobScheduler: core accounting underflow");
    pump(node);
}

void
JobScheduler::offerCore(int node)
{
    pump(node);
}

void
JobScheduler::offerCores()
{
    // Round-robin over nodes: hand out one core per node per sweep so
    // a stage's first wave spreads like Spark's resource offers do.
    const int cores = engine_.effectiveCores();
    bool progress = true;
    while (progress) {
        progress = false;
        for (int node : cluster_.aliveNodes()) {
            if (busy_[static_cast<std::size_t>(node)] >= cores)
                continue;
            if (launchOne(node))
                progress = true;
        }
    }
}

void
JobScheduler::pump(int node)
{
    if (!cluster_.nodeAlive(node))
        return;
    const int cores = engine_.effectiveCores();
    while (busy_[static_cast<std::size_t>(node)] < cores &&
           launchOne(node))
        ;
}

bool
JobScheduler::launchOne(int node)
{
    // Order pools by the fair-sharing comparator (the root pool is
    // always FAIR across pools, like Spark's), then offer the core to
    // each pool's jobs: FIFO pools in submission order, FAIR pools by
    // fewest running tasks first.
    std::vector<int> poolOrder(pools_.size());
    std::iota(poolOrder.begin(), poolOrder.end(), 0);
    std::stable_sort(
        poolOrder.begin(), poolOrder.end(), [this](int a, int b) {
            const Pool &pa = pools_[static_cast<std::size_t>(a)];
            const Pool &pb = pools_[static_cast<std::size_t>(b)];
            return fairBefore(
                ShareState{pa.runningTasks, pa.config.weight,
                           pa.config.minShare, a},
                ShareState{pb.runningTasks, pb.config.weight,
                           pb.config.minShare, b});
        });
    for (int poolIdx : poolOrder) {
        Pool &pool = pools_[static_cast<std::size_t>(poolIdx)];
        std::vector<int> members = pool.members;
        if (pool.config.fair) {
            // Every job inside a pool has weight 1 and minShare 0
            // (Spark's TaskSetManagers), so FAIR inside a pool is
            // fewest-running-tasks-first with submission-order ties.
            std::vector<int> order(members.size());
            std::iota(order.begin(), order.end(), 0);
            std::stable_sort(
                order.begin(), order.end(),
                [this, &members](int a, int b) {
                    const Tenant &ta = tenants_[static_cast<std::size_t>(
                        members[static_cast<std::size_t>(a)])];
                    const Tenant &tb = tenants_[static_cast<std::size_t>(
                        members[static_cast<std::size_t>(b)])];
                    return fairBefore(
                        ShareState{ta.runningTasks, 1.0, 0, a},
                        ShareState{tb.runningTasks, 1.0, 0, b});
                });
            std::vector<int> sorted;
            sorted.reserve(members.size());
            for (int i : order)
                sorted.push_back(members[static_cast<std::size_t>(i)]);
            members = std::move(sorted);
        }
        for (int tenantId : members) {
            Tenant &tenant =
                tenants_[static_cast<std::size_t>(tenantId)];
            const spark::TaskEngine::StageRef &run =
                tenant.context->activeRun();
            if (run == nullptr || !engine_.hasRunnableWork(run))
                continue;
            if (!engine_.tryLaunch(run, node))
                continue;
            chargeTenant(tenant);
            chargePool(pool);
            ++tenant.runningTasks;
            ++pool.runningTasks;
            ++busy_[static_cast<std::size_t>(node)];
            return true;
        }
    }
    return false;
}

void
JobScheduler::chargeTenant(Tenant &tenant)
{
    const Tick now = cluster_.simulator().now();
    tenant.coreSeconds +=
        ticksToSeconds(now - tenant.lastChange) * tenant.runningTasks;
    tenant.lastChange = now;
}

void
JobScheduler::chargePool(Pool &pool)
{
    const Tick now = cluster_.simulator().now();
    pool.coreSeconds +=
        ticksToSeconds(now - pool.lastChange) * pool.runningTasks;
    pool.lastChange = now;
}

int
JobScheduler::poolIndexByName(const std::string &pool) const
{
    for (std::size_t i = 0; i < pools_.size(); ++i)
        if (pools_[i].config.name == pool)
            return static_cast<int>(i);
    fatal("JobScheduler: unknown pool %s (definePool first)",
          pool.c_str());
}

} // namespace doppio::sched
