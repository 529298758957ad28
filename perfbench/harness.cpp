#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "cluster/cluster.h"
#include "dfs/hdfs.h"
#include "sim/simulator.h"
#include "spark/spark_context.h"
#include "workloads/tenant_program.h"

namespace perfbench {

using namespace doppio;

int
Tracer::open(const std::string &name)
{
    Span span;
    span.op = op_;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.startUs =
        std::chrono::duration<double, std::micro>(Clock::now() - origin_)
            .count();
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    spans_[static_cast<std::size_t>(index)].endUs =
        std::chrono::duration<double, std::micro>(Clock::now() - origin_)
            .count();
    // Spans close in LIFO order (SpanScope), so the index is on top.
    stack_.pop_back();
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"id\":" << i
            << ",\"op\":" << span.op << ",\"name\":\"" << span.name
            << "\",\"parent\":" << span.parent
            << ",\"start_us\":" << fixed(span.startUs, 1)
            << ",\"end_us\":" << fixed(span.endUs, 1) << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

namespace {

/**
 * Completion-observer state of one device. A completion callback is
 * one FluidPipe flow (a batch of identical requests travels as one
 * flow), so flow-seconds over the simulated span is the mean number of
 * flows the device's pipes hold: the depth the bandwidth solver sees.
 */
struct DeviceLoad
{
    const storage::DiskDevice *device = nullptr;
    double flowSimS = 0.0;
};

void
observe(storage::DiskDevice &device, DeviceLoad &load, Layers &layers)
{
    load.device = &device;
    device.setCompletionObserver(
        [&load, &layers](storage::IoOp, Bytes size, std::uint64_t count,
                         Tick duration) {
            const double seconds = ticksToSeconds(duration);
            load.flowSimS += seconds;
            layers.flowSimS += seconds;
            ++layers.flows;
            layers.requests += count;
            layers.bytes +=
                static_cast<double>(size) * static_cast<double>(count);
        });
}

} // namespace

spark::AppMetrics
runApp(const workloads::Workload &workload,
       const cluster::ClusterConfig &clusterConfig,
       const spark::SparkConf &sparkConf, Recorder &recorder,
       const std::string &label)
{
    const Clock::time_point start = Clock::now();
    Layers &layers = recorder.layers;
    Tracer &tracer = recorder.tracer;
    spark::AppMetrics metrics;
    {
        sim::Simulator simulator;
        cluster::ClusterConfig config = clusterConfig;
        if (workload.taskTimeVariability() >= 0.0)
            config.taskJitterSigma = workload.taskTimeVariability();

        std::unique_ptr<cluster::Cluster> cluster;
        {
            const SpanScope span(tracer, "cluster.construct");
            cluster = std::make_unique<cluster::Cluster>(simulator, config);
        }
        std::vector<DeviceLoad> loads;
        if (recorder.observeStorage) {
            std::size_t devices = 0;
            for (int n = 0; n < cluster->numSlaves(); ++n)
                devices += static_cast<std::size_t>(
                    cluster->node(n).hdfsDiskCount() +
                    cluster->node(n).localDiskCount());
            loads.resize(devices); // never resized again: observers
                                   // hold references into it
            std::size_t next = 0;
            for (int n = 0; n < cluster->numSlaves(); ++n) {
                cluster::Node &node = cluster->node(n);
                for (int d = 0; d < node.hdfsDiskCount(); ++d)
                    observe(node.hdfsDisk(d), loads[next++], layers);
                for (int d = 0; d < node.localDiskCount(); ++d)
                    observe(node.localDisk(d), loads[next++], layers);
            }
        }

        // No registered workload overrides Workload::hdfsConfig(), so
        // the default deployment is the one Workload::run builds.
        std::unique_ptr<dfs::Hdfs> hdfs;
        {
            const SpanScope span(tracer, "hdfs.construct");
            hdfs = std::make_unique<dfs::Hdfs>(*cluster);
        }
        const workloads::TenantProgram program = workload.program("");
        {
            const SpanScope span(tracer, "registerInputs");
            program.registerInputs(*hdfs);
        }
        std::unique_ptr<spark::SparkContext> context;
        {
            const SpanScope span(tracer, "spark.context");
            context = std::make_unique<spark::SparkContext>(
                *cluster, *hdfs, sparkConf);
        }
        const std::vector<workloads::TenantJob> jobs =
            program.buildJobs([&context](const std::string &file) {
                return context->hadoopFile(file);
            });
        for (const workloads::TenantJob &job : jobs) {
            const SpanScope span(tracer, "runJob:" + job.name);
            const Clock::time_point jobStart = Clock::now();
            context->runJob(job.name, job.target, job.action);
            layers.runJobWallS += secondsSince(jobStart);
            for (const spark::RddRef &rdd : job.unpersistAfter)
                context->unpersist(rdd);
        }

        metrics = context->metrics();
        metrics.name = workload.name();
        if (cluster->pageCacheEnabled()) {
            metrics.pageCachePresent = true;
            metrics.pageCache = cluster->pageCacheTotals();
            layers.pageCache += metrics.pageCache;
        }
        if (sparkConf.unifiedMemory) {
            metrics.memoryPresent = true;
            metrics.memory = context->blockManager().memoryMetrics();
        }

        layers.events += simulator.firedEvents();
        if (!label.empty())
            layers.runEvents[label] += simulator.firedEvents();
        layers.scheduled += simulator.scheduledEvents();
        for (const spark::StageMetrics *stage : metrics.allStages())
            layers.tasks += static_cast<std::uint64_t>(stage->numTasks);
        layers.simS += metrics.seconds();
        layers.remoteBytes +=
            static_cast<double>(cluster->network().remoteBytes());
        const double spanSimS = ticksToSeconds(simulator.now());
        for (const DeviceLoad &load : loads) {
            layers.busySimS +=
                ticksToSeconds(load.device->readBusyTime() +
                               load.device->writeBusyTime());
            if (spanSimS > 0.0)
                layers.inflightMax = std::max(layers.inflightMax,
                                              load.flowSimS / spanSimS);
        }
    }
    if (!label.empty())
        layers.runWallS[label] += secondsSince(start);
    return metrics;
}

void
provision(const workloads::Workload &workload,
          const cluster::ClusterConfig &clusterConfig,
          const spark::SparkConf &sparkConf)
{
    sim::Simulator simulator;
    cluster::Cluster cluster(simulator, clusterConfig);
    dfs::Hdfs hdfs(cluster);
    workload.program("").registerInputs(hdfs);
    const spark::SparkContext context(cluster, hdfs, sparkConf);
}

model::WorkloadRunner
countingRunner(const workloads::Workload &workload, Recorder &recorder)
{
    return [&workload, &recorder](const cluster::ClusterConfig &cluster,
                                  const spark::SparkConf &conf) {
        const SpanScope span(recorder.tracer, "model.sample_run");
        const Clock::time_point start = Clock::now();
        spark::AppMetrics metrics =
            runApp(workload, cluster, conf, recorder);
        recorder.layers.sampleRunWallS += secondsSince(start);
        ++recorder.layers.sampleRuns;
        return metrics;
    };
}

model::AppModel
timedFit(model::Profiler &profiler, const std::string &name,
         Recorder &recorder)
{
    const SpanScope span(recorder.tracer, "model.fit");
    const Clock::time_point start = Clock::now();
    model::AppModel app = profiler.fit(name);
    recorder.layers.fitWallS += secondsSince(start);
    ++recorder.layers.fits;
    return app;
}

std::string
hybridLabel(const cluster::HybridConfig &hybrid)
{
    const auto name = [](storage::DiskType type) {
        return type == storage::DiskType::Hdd ? "hdd" : "ssd";
    };
    return std::string(name(hybrid.hdfs)) + "-" + name(hybrid.local);
}

std::string
fixed(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, value);
    return buf;
}

} // namespace perfbench
