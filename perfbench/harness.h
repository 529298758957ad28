/**
 * @file
 * Measurement harness of the repository benchmark.
 *
 * Everything here sits outside the library: it drives the public
 * functions of sim, cluster, storage, net, oscache, dfs, spark,
 * workloads and model, times each call from the outside with
 * std::chrono::steady_clock ("wall", host time) and reads each layer's
 * public counters ("sim", simulated time). Nothing in the library is
 * changed or subclassed.
 */

#ifndef DOPPIO_PERFBENCH_HARNESS_H
#define DOPPIO_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster_config.h"
#include "model/profiler.h"
#include "oscache/page_cache.h"
#include "spark/metrics.h"
#include "spark/spark_conf.h"
#include "workloads/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** @return host seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One recorded span: a timed call into a layer. */
struct Span
{
    std::uint64_t op = 0;  //!< operation id shared by its spans
    std::string name;
    int parent = -1;       //!< index into the span list, -1 = root
    double startUs = 0.0;  //!< host microseconds since tracer start
    double endUs = 0.0;
};

/**
 * In-memory span recorder. Disabled, every call is a no-op that reads
 * no clock, so untraced passes pay nothing for the instrumentation.
 */
class Tracer
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Start a new operation; later spans carry its id. */
    void beginOp() { ++op_; }

    /** Open a span under the innermost open one. @return its index. */
    int open(const std::string &name);
    void close(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as one JSON document. @return success. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::uint64_t op_ = 0;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a null or disabled tracer records nothing. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const std::string &name)
        : tracer_(tracer),
          index_(tracer.enabled() ? tracer.open(name) : -1)
    {
    }
    ~SpanScope()
    {
        if (index_ >= 0)
            tracer_.close(index_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

/** Per-layer counters of one pass, summed over its simulated runs. */
struct Layers
{
    // sim
    std::uint64_t events = 0;     //!< events fired
    std::uint64_t scheduled = 0;  //!< schedule() calls
    double runJobWallS = 0.0;     //!< host seconds inside runJob
    // spark
    std::map<std::string, double> runWallS; //!< labelled app runs
    std::map<std::string, std::uint64_t> runEvents;
    std::uint64_t tasks = 0;
    double simS = 0.0;            //!< simulated seconds of all runs
    // storage (traced passes only: completion observers)
    std::uint64_t requests = 0;
    std::uint64_t flows = 0;      //!< completions: one per submission
    double bytes = 0.0;
    double busySimS = 0.0;
    double flowSimS = 0.0;        //!< submission-to-completion seconds
    double inflightMax = 0.0;     //!< Little's law, max over devices
    // net
    double remoteBytes = 0.0;
    // oscache
    doppio::oscache::PageCacheStats pageCache;
    // model
    std::uint64_t fits = 0;
    double fitWallS = 0.0;
    std::uint64_t sampleRuns = 0;
    double sampleRunWallS = 0.0;
    std::vector<double> predictUs;
    // cloud
    std::vector<double> searchMs;
    std::uint64_t cellsEvaluated = 0;
    std::uint64_t cellsPruned = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t fallbacks = 0;
    // service
    std::vector<double> hitUs;
    double cacheHitRatio = 0.0;
    std::uint64_t slowPathRuns = 0;
    std::uint64_t cellsMemoHit = 0;
    std::vector<double> coldProfileMs; //!< cold-query attribution
    std::vector<double> coldSearchMs;
    std::vector<double> coldValidateMs;
};

/** Everything a pass needs to record its calls. */
struct Recorder
{
    Tracer &tracer;
    Layers &layers;
    bool observeStorage = false;
};

/**
 * One simulated application run, equivalent to Workload::run without
 * faults or telemetry, but assembled from the public pieces so every
 * layer call is timed and counted: Cluster, Hdfs and SparkContext
 * construction, registerInputs and each runJob.
 * @param label non-empty: also record the run's wall time and events
 *              under spark.run_s.<label> and sim.events.<label>.
 */
doppio::spark::AppMetrics
runApp(const doppio::workloads::Workload &workload,
       const doppio::cluster::ClusterConfig &clusterConfig,
       const doppio::spark::SparkConf &sparkConf, Recorder &recorder,
       const std::string &label = "");

/**
 * Provision the cluster, filesystem and Spark context of one run and
 * register the program's inputs, without running a job.
 */
void provision(const doppio::workloads::Workload &workload,
               const doppio::cluster::ClusterConfig &clusterConfig,
               const doppio::spark::SparkConf &sparkConf);

/**
 * A model::WorkloadRunner over runApp that counts sample runs and the
 * host time spent in them, each inside a model.sample_run span.
 */
doppio::model::WorkloadRunner
countingRunner(const doppio::workloads::Workload &workload,
               Recorder &recorder);

/** Profiler::fit inside a model.fit span, timed into the layers. */
doppio::model::AppModel
timedFit(doppio::model::Profiler &profiler, const std::string &name,
         Recorder &recorder);

/** @return "<hdfs>-<local>" in lower case, e.g. "hdd-ssd". */
std::string hybridLabel(const doppio::cluster::HybridConfig &hybrid);

/** Fixed-precision number, as the paper tables print them. */
std::string fixed(double value, int digits);

} // namespace perfbench

#endif // DOPPIO_PERFBENCH_HARNESS_H
