#include "workloads.h"

#include <cmath>
#include <exception>
#include <utility>

#include "common/stats.h"
#include "model/platform_profile.h"
#include "storage/disk_params.h"
#include "workloads/gatk4.h"
#include "workloads/terasort.h"

namespace perfbench {

using namespace doppio;
using storage::IoOp;

std::unique_ptr<BenchWorkload> makePlanWorkload(std::uint64_t seed);

namespace {

/**
 * Run one operation: a fresh span id, a root span, a host timer and a
 * catch-all so a library error fails the operation, not the benchmark.
 */
template <typename Body>
void
runOp(PassResult &result, Tracer &tracer, const std::string &label,
      Body &&body)
{
    tracer.beginOp();
    const std::size_t failuresBefore = result.failures.size();
    const Clock::time_point start = Clock::now();
    {
        const SpanScope span(tracer, "op:" + label);
        try {
            body();
        } catch (const std::exception &error) {
            result.failures.push_back(label + ": " + error.what());
        }
    }
    OpRecord op;
    op.label = label;
    op.ms = secondsSince(start) * 1e3;
    op.ok = result.failures.size() == failuresBefore;
    result.ops.push_back(std::move(op));
}

/** Fail @p op unless stages @p stage* moved @p expectedGiB of @p io. */
void
checkVolume(PassResult &result, const std::string &op,
            const spark::AppMetrics &metrics, const char *stage, IoOp io,
            double expectedGiB)
{
    // Table IV prints whole GB; anything off by half a GB is a change.
    const double got = toGiB(metrics.bytesForPrefix(stage, io));
    if (std::fabs(got - expectedGiB) >= 0.5)
        result.failures.push_back(
            op + ": " + stage + " " + storage::ioOpName(io) + " moved " +
            fixed(got, 1) + " GiB, expected " + fixed(expectedGiB, 0));
}

/**
 * Byte conservation on the fabric: every remote byte is a shuffle
 * fetch, an HDFS read or an HDFS replica, so the run's remote bytes
 * are positive and at most those logical volumes with one extra
 * replica per written byte (dfs.replication = 2).
 */
void
checkNetwork(PassResult &result, const std::string &op,
             const spark::AppMetrics &metrics, double remoteBytes)
{
    double movable = 0.0;
    for (const spark::StageMetrics *stage : metrics.allStages()) {
        movable += static_cast<double>(
            stage->forOp(IoOp::ShuffleRead).bytes +
            stage->forOp(IoOp::HdfsRead).bytes +
            stage->forOp(IoOp::HdfsWrite).bytes);
    }
    if (!(remoteBytes > 0.0) || remoteBytes > movable)
        result.failures.push_back(
            op + ": network carried " + fixed(remoteBytes / 1e9, 1) +
            " GB remote, outside (0, " + fixed(movable / 1e9, 1) + "]");
}

/** Reference lines: each stage's simulated minutes, 1 decimal. */
void
referenceStages(PassResult &result, const std::string &op,
                const spark::AppMetrics &metrics,
                const std::vector<std::string> &stages)
{
    for (const std::string &stage : stages)
        result.reference.push_back(
            op + " " + stage + "_min " +
            fixed(metrics.secondsForPrefix(stage) / 60.0, 1));
}

/**
 * Paper Fig. 2: GATK4 at 500M read pairs on the 3-slave motivation
 * cluster, P = 36, all four Table III disk configurations, page cache
 * off. Loads sim::FluidPipe (HDFS=HDD/Local=SSD holds thousands of
 * flows per HDFS write pipe), storage and spark; bypasses oscache,
 * model, cloud and service.
 */
class Fig02Gatk4 : public BenchWorkload
{
  public:
    explicit Fig02Gatk4(std::uint64_t seed) : seed_(seed) {}

    void
    prepare() override
    {
        conf_.executorCores = 36;
        for (const cluster::HybridConfig &hybrid :
             {cluster::HybridConfig::config1(),
              cluster::HybridConfig::config2(),
              cluster::HybridConfig::config3(),
              cluster::HybridConfig::config4()}) {
            cluster::ClusterConfig config =
                cluster::ClusterConfig::motivationCluster();
            config.applyHybrid(hybrid);
            config.seed = seed_;
            provision(gatk4_, config, conf_);
            configs_.emplace_back(hybridLabel(hybrid), config);
        }
    }

    PassResult
    pass(Tracer &tracer, bool traced) override
    {
        PassResult result;
        Recorder recorder{tracer, result.layers, traced};
        // Paper Table IV at 500M read pairs: input BAM, shuffle and
        // output BAM, in GB.
        const double input = 122.0;
        const double shuffle = 334.0;
        const double output = 166.0;
        const Clock::time_point start = Clock::now();
        for (const auto &[label, config] : configs_) {
            runOp(result, tracer, label, [&, &label = label,
                                          &config = config]() {
                const double remoteBefore = result.layers.remoteBytes;
                const spark::AppMetrics metrics =
                    runApp(gatk4_, config, conf_, recorder, label);
                // Table IV: MD 122/334/0/0, BR 122/0/334/0,
                // SF 122/0/334/166 (HDFS read, shuffle write, shuffle
                // read, HDFS write).
                const double table[3][4] = {{input, shuffle, 0.0, 0.0},
                                            {input, 0.0, shuffle, 0.0},
                                            {input, 0.0, shuffle, output}};
                const char *stages[3] = {"MD", "BR", "SF"};
                const IoOp ops[4] = {IoOp::HdfsRead, IoOp::ShuffleWrite,
                                     IoOp::ShuffleRead, IoOp::HdfsWrite};
                for (int s = 0; s < 3; ++s)
                    for (int o = 0; o < 4; ++o)
                        checkVolume(result, label, metrics, stages[s],
                                    ops[o], table[s][o]);
                checkNetwork(result, label, metrics,
                             result.layers.remoteBytes - remoteBefore);
                referenceStages(result, label, metrics,
                                {"MD", "BR", "SF"});
            });
        }
        result.wallS = secondsSince(start);
        if (traced && result.layers.pageCache.reads +
                              result.layers.pageCache.writes !=
                          0)
            result.failures.push_back(
                "bypass: oscache counters non-zero on fig02-gatk4");
        return result;
    }

  private:
    std::uint64_t seed_;
    workloads::Gatk4 gatk4_;
    spark::SparkConf conf_;
    std::vector<std::pair<std::string, cluster::ClusterConfig>> configs_;
};

/**
 * `doppio run terasort` with its CLI defaults (930 GB, 10 slaves,
 * SSD/SSD, P = 36, page cache on, unified memory), then Fig. 12's
 * exp-vs-model check under paper conditions (page cache off, Table III
 * configs 1 and 3, model fitted with bench_util.h's fitModel recipe).
 * The page-cache flusher drives the event count, so oscache does most
 * of the work; cloud and service are bypassed.
 */
class TerasortPageCache : public BenchWorkload
{
  public:
    explicit TerasortPageCache(std::uint64_t seed) : seed_(seed) {}

    void
    prepare() override
    {
        // clusterFromArgs() with no flags: the evaluation cluster on
        // SSDs with the page cache on; every other page-cache knob
        // keeps the library default the CLI also keeps.
        cliConfig_ = cluster::ClusterConfig::evaluationCluster();
        cliConfig_.node.hdfsDisk = storage::makeSsdParams();
        cliConfig_.node.localDisk = storage::makeSsdParams();
        cliConfig_.node.pageCache.enabled = true;
        cliConfig_.seed = seed_;
        // sparkConfFromArgs() with no flags.
        cliConf_.executorCores = 36;
        cliConf_.unifiedMemory = true;
        provision(terasort_, cliConfig_, cliConf_);

        base_ = cluster::ClusterConfig::evaluationCluster();
        base_.seed = seed_;
        figConf_.executorCores = 36;
        for (const cluster::HybridConfig &hybrid :
             {cluster::HybridConfig::config1(),
              cluster::HybridConfig::config3()}) {
            cluster::ClusterConfig config = base_;
            config.applyHybrid(hybrid);
            provision(terasort_, config, figConf_);
            fig12_.emplace_back(hybridLabel(hybrid), config);
        }
    }

    PassResult
    pass(Tracer &tracer, bool traced) override
    {
        PassResult result;
        Layers &layers = result.layers;
        Recorder recorder{tracer, layers, traced};
        const Clock::time_point start = Clock::now();

        std::uint64_t pageCacheEvents = 0;
        runOp(result, tracer, "pc-ssd-ssd", [&]() {
            const std::string op = "pc-ssd-ssd";
            const std::uint64_t eventsBefore = layers.events;
            const double remoteBefore = layers.remoteBytes;
            const spark::AppMetrics metrics =
                runApp(terasort_, cliConfig_, cliConf_, recorder, op);
            pageCacheEvents = layers.events - eventsBefore;
            checkTerasortVolumes(result, op, metrics);
            checkNetwork(result, op, metrics,
                         layers.remoteBytes - remoteBefore);
            const oscache::PageCacheStats &pc = metrics.pageCache;
            if (!metrics.pageCachePresent ||
                pc.readBytes != pc.hitBytes + pc.missBytes)
                result.failures.push_back(
                    op + ": page-cache read bytes != hit + miss bytes");
            referenceStages(result, op, metrics, {"NF", "SF"});
        });

        model::AppModel app;
        runOp(result, tracer, "fit", [&]() {
            // bench_util.h's fitModel(): the 5-run extended model,
            // sampled at the evaluation cluster's node count.
            model::Profiler::Options options;
            options.fitGc = true;
            options.sampleNodes = base_.numSlaves;
            options.gcNodes = base_.numSlaves + 1;
            model::Profiler profiler(countingRunner(terasort_, recorder),
                                     base_, spark::SparkConf{}, options);
            const std::uint64_t runsBefore = layers.sampleRuns;
            app = timedFit(profiler, terasort_.name(), recorder);
            // Profiler.h documents four sample runs plus the GC run.
            if (layers.sampleRuns - runsBefore != 5)
                result.failures.push_back(
                    "fit: " +
                    std::to_string(layers.sampleRuns - runsBefore) +
                    " sample runs, the profiler documents 5");
        });

        SummaryStats error;
        for (const auto &[label, config] : fig12_) {
            runOp(result, tracer, label, [&, &label = label,
                                          &config = config]() {
                const std::uint64_t eventsBefore = layers.events;
                const double remoteBefore = layers.remoteBytes;
                const spark::AppMetrics metrics =
                    runApp(terasort_, config, figConf_, recorder, label);
                const std::uint64_t events = layers.events - eventsBefore;
                checkTerasortVolumes(result, label, metrics);
                checkNetwork(result, label, metrics,
                             layers.remoteBytes - remoteBefore);
                if (traced && pageCacheEvents <= 10 * events)
                    result.failures.push_back(
                        "bypass: page-cache run fired " +
                        std::to_string(pageCacheEvents) +
                        " events, not > 10x the " +
                        std::to_string(events) + " of " + label);
                const model::PlatformProfile platform =
                    model::PlatformProfile::fromNode(config.node);
                for (const char *phase : {"NF", "SF"}) {
                    const double exp = metrics.secondsForPrefix(phase);
                    const double predicted = predict(
                        app, phase, config.numSlaves, platform, layers);
                    error.add(relativeError(predicted, exp));
                    result.reference.push_back(
                        label + " " + phase + "_model_min " +
                        fixed(predicted / 60.0, 1));
                }
                referenceStages(result, label, metrics, {"NF", "SF"});
            });
        }
        result.wallS = secondsSince(start);
        if (error.count() > 0) {
            result.modelErrorPct = error.mean() * 100.0;
            // The paper's accuracy claim: Eq. 1 within 10% of exp.
            if (result.modelErrorPct > 10.0)
                result.failures.push_back(
                    "fig12: mean model error " +
                    fixed(result.modelErrorPct, 1) + "% exceeds 10%");
        }
        return result;
    }

  private:
    static void
    checkTerasortVolumes(PassResult &result, const std::string &op,
                         const spark::AppMetrics &metrics)
    {
        const double data = 930.0; // paper §V-B5: 10B records, 930 GB
        checkVolume(result, op, metrics, "NF", IoOp::HdfsRead, data);
        checkVolume(result, op, metrics, "NF", IoOp::ShuffleWrite, data);
        checkVolume(result, op, metrics, "SF", IoOp::ShuffleRead, data);
        checkVolume(result, op, metrics, "SF", IoOp::HdfsWrite, data);
    }

    /**
     * Eq. 1 for the stages named @p phase*, as bench_util.h's
     * predictPrefix(). Repeated so the per-call time is measurable.
     */
    static double
    predict(const model::AppModel &app, const std::string &phase,
            int numNodes, const model::PlatformProfile &platform,
            Layers &layers)
    {
        constexpr int kRepeats = 200;
        double total = 0.0;
        int calls = 0;
        const Clock::time_point start = Clock::now();
        for (int r = 0; r < kRepeats; ++r) {
            total = 0.0;
            for (const model::StageModel &stage : app.stages) {
                if (stage.name.rfind(phase, 0) == 0) {
                    total += model::predictStage(stage, numNodes, 36,
                                                 platform)
                                 .seconds;
                    ++calls;
                }
            }
        }
        if (calls > 0)
            layers.predictUs.push_back(secondsSince(start) * 1e6 /
                                       calls);
        return total;
    }

    std::uint64_t seed_;
    workloads::Terasort terasort_;
    cluster::ClusterConfig cliConfig_;
    spark::SparkConf cliConf_;
    cluster::ClusterConfig base_;
    spark::SparkConf figConf_;
    std::vector<std::pair<std::string, cluster::ClusterConfig>> fig12_;
};

} // namespace

std::vector<std::string>
benchWorkloadNames()
{
    return {"fig02-gatk4", "terasort-pagecache", "plan"};
}

std::unique_ptr<BenchWorkload>
makeBenchWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "fig02-gatk4")
        return std::make_unique<Fig02Gatk4>(seed);
    if (name == "terasort-pagecache")
        return std::make_unique<TerasortPageCache>(seed);
    if (name == "plan")
        return makePlanWorkload(seed);
    return nullptr;
}

} // namespace perfbench
