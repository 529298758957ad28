#include "spark/spark_context.h"

#include "common/logging.h"

namespace doppio::spark {

SparkContext::SparkContext(cluster::Cluster &clusterRef, dfs::Hdfs &hdfs,
                           SparkConf conf)
    : cluster_(clusterRef), hdfs_(hdfs), conf_(conf),
      blockManager_(clusterRef, conf_),
      dag_(conf_, hdfs, blockManager_),
      engine_(clusterRef, hdfs, conf_),
      recovery_(
          [this](const StageSpec &stage, StageRecovery::StageDone done) {
              done(engine_.runStage(stage));
          },
          clusterRef.numSlaves(), conf_.stageMaxAttempts, "")
{
    if (conf_.executorCores <= 0)
        fatal("SparkContext: executorCores must be positive");
    if (conf_.unifiedMemory)
        engine_.setMemoryModel(&blockManager_);
}

RddRef
SparkContext::hadoopFile(const std::string &fileName)
{
    return Rdd::source(fileName, hdfs_, hdfs_.fileIdByName(fileName));
}

void
SparkContext::setFaultInjector(faults::FaultInjector *injector)
{
    engine_.setFaultInjector(injector);
    hdfs_.setFaultInjector(injector);
}

const JobMetrics &
SparkContext::runJob(const std::string &jobName, const RddRef &target,
                     const ActionSpec &action)
{
    JobSpec spec = dag_.compile(jobName, target, action);
    JobMetrics job;
    job.name = spec.name;
    inform("job %s: %zu stage(s)", spec.name.c_str(),
           spec.stages.size());
    for (const StageSpec &stage : spec.stages) {
        // runStage attempts are synchronous: the loop delivers the
        // merged metrics before run() returns.
        recovery_.run(stage, [&job](StageMetrics metrics) {
            inform("  stage %-24s M=%-6d %s", metrics.name.c_str(),
                   metrics.numTasks,
                   formatDuration(metrics.endTick - metrics.startTick)
                       .c_str());
            job.stages.push_back(std::move(metrics));
        });
    }
    metrics_.jobs.push_back(std::move(job));
    return metrics_.jobs.back();
}

void
SparkContext::unpersist(const RddRef &rdd)
{
    blockManager_.unpersist(rdd.get());
}

} // namespace doppio::spark
