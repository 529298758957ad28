/**
 * @file
 * The `plan` workload: the planning service as its users see it.
 *
 * A closed loop with one client sends a seeded query mix through
 * service::PlanningService::handleLineNow. The client's clock is the
 * generator's schedule, never the wall clock: each query is sent a
 * seeded think time after the previous answer's virtual completion
 * time, so the answers repeat exactly for a seed. The mix has:
 *  - one cold min-cost query per (workload, workers) key: the service
 *    profiles the workload (four 3-slave sample runs, page cache off),
 *    searches the cloud grid and validates the winner;
 *  - cheapest-under-deadline and fastest-under-budget variants on each
 *    warm model, their limits derived from the key's min-cost answer;
 *  - repeats of earlier queries, which the result cache answers.
 * Timeouts and the breaker threshold are far above any query's cost,
 * so no answer is degraded or model-only.
 *
 * The traced pass then attributes each cold query: it reruns profile
 * -> search -> validate through the public model, cloud and workload
 * functions with the planner's defaults and checks that it reproduces
 * the service's answer.
 */

#include <iterator>
#include <cmath>
#include <exception>
#include <sstream>
#include <utility>

#include "cloud/gcp_disk.h"
#include "cloud/optimizer.h"
#include "common/random.h"
#include "service/server.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace perfbench {

using namespace doppio;

namespace {

/** Workloads of the cold keys: cold costs of 0.7-1.3 host seconds. */
const char *const kPlanWorkloads[] = {"svm", "triangle-count", "gatk4",
                                      "terasort"};
const int kWorkerChoices[] = {4, 5, 6, 8};
constexpr int kVariantsPerMode = 2; //!< per key: 2 deadline, 2 budget
constexpr int kRepeats = 20;
constexpr double kTimeoutMs = 1e9; //!< the protocol's maximum

struct PlanKey
{
    std::string workload;
    int workers = 0;
};

/** One step of the client's script, drawn from the seed. */
struct Step
{
    enum class Kind { Cold, Deadline, Budget, Repeat };

    Kind kind = Kind::Cold;
    int key = 0;
    double factor = 1.0;      //!< limit / the key's min-cost answer
    std::uint64_t pick = 0;   //!< Repeat: which earlier query
    double thinkMs = 0.0;
};

/** A query as sent, and the service's answer to it. */
struct Answered
{
    OpRecord::Kind kind = OpRecord::Kind::Cold;
    int key = 0;
    const char *limit = nullptr; //!< "deadline_s", "budget_usd" or none
    double value = 0.0;
    cloud::Constraint constraint;
    service::Response response;
};

std::string
planLine(const std::string &id, const PlanKey &key, const char *limit,
         double value)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"id\":\"" << id << "\",\"workload\":\"" << key.workload
       << "\",\"workers\":" << key.workers;
    if (limit != nullptr)
        os << ",\"" << limit << "\":" << value;
    os << ",\"timeout_ms\":" << kTimeoutMs << "}";
    return os.str();
}

class PlanWorkload : public BenchWorkload
{
  public:
    explicit PlanWorkload(std::uint64_t seed) : seed_(seed) {}

    void
    prepare() override
    {
        Rng rng(seed_);
        for (const char *name : kPlanWorkloads) {
            PlanKey key;
            key.workload = name;
            key.workers = kWorkerChoices[rng.uniformInt(
                std::size(kWorkerChoices))];
            keys_.push_back(key);
        }
        for (std::size_t i = keys_.size(); i > 1; --i)
            std::swap(keys_[i - 1], keys_[rng.uniformInt(i)]);

        std::vector<Step> mixed;
        for (int k = 0; k < static_cast<int>(keys_.size()); ++k) {
            Step cold;
            cold.key = k;
            steps_.push_back(cold);
            for (int v = 0; v < kVariantsPerMode; ++v) {
                for (const Step::Kind kind :
                     {Step::Kind::Deadline, Step::Kind::Budget}) {
                    Step step;
                    step.kind = kind;
                    step.key = k;
                    // At least 15% above the min-cost answer, so the
                    // limit stays feasible under the model's error.
                    step.factor = rng.uniform(1.15, 1.6);
                    mixed.push_back(step);
                }
            }
        }
        for (int r = 0; r < kRepeats; ++r) {
            Step step;
            step.kind = Step::Kind::Repeat;
            step.pick = rng.next();
            mixed.push_back(step);
        }
        for (std::size_t i = mixed.size(); i > 1; --i)
            std::swap(mixed[i - 1], mixed[rng.uniformInt(i)]);
        steps_.insert(steps_.end(), mixed.begin(), mixed.end());
        for (Step &step : steps_)
            step.thinkMs = rng.uniform(100.0, 1000.0);

        // Warm the registry and the service's construction path.
        (void)service::PlanningService(serviceConfig());
        for (const PlanKey &key : keys_)
            (void)workloads::makeWorkload(key.workload);
    }

    PassResult
    pass(Tracer &tracer, bool traced) override
    {
        PassResult result;
        Recorder recorder{tracer, result.layers, traced};
        std::vector<Answered> answered;
        std::vector<std::size_t> coldIndex(keys_.size());

        const Clock::time_point start = Clock::now();
        service::PlanningService svc(serviceConfig());
        double nowMs = 0.0;
        for (std::size_t i = 0; i < steps_.size(); ++i) {
            const Step &step = steps_[i];
            Answered query;
            query.key = step.key;
            query.kind = OpRecord::Kind::Warm;
            switch (step.kind) {
            case Step::Kind::Cold:
                query.kind = OpRecord::Kind::Cold;
                query.constraint = cloud::Constraint::minCost();
                break;
            case Step::Kind::Deadline:
                query.limit = "deadline_s";
                query.value = answered[coldIndex[step.key]]
                                  .response.runtimeSec *
                              step.factor;
                query.constraint =
                    cloud::Constraint::cheapestUnderDeadline(query.value);
                break;
            case Step::Kind::Budget:
                query.limit = "budget_usd";
                query.value =
                    answered[coldIndex[step.key]].response.costUsd *
                    step.factor;
                query.constraint =
                    cloud::Constraint::fastestUnderBudget(query.value);
                break;
            case Step::Kind::Repeat:
                query = answered[step.pick % answered.size()];
                query.kind = OpRecord::Kind::Hit;
                break;
            }
            const OpRecord::Kind kind = query.kind;
            const std::string firstConfig = query.response.config;
            const std::string id = "q" + std::to_string(i);
            const std::string line = planLine(
                id, keys_[query.key], query.limit, query.value);

            const std::uint64_t slowBefore = svc.stats().slowPathRuns;
            tracer.beginOp();
            const Clock::time_point sent = Clock::now();
            {
                const SpanScope span(tracer, "service.handleLineNow");
                svc.handleLineNow(line, nowMs);
            }
            OpRecord op;
            op.label = id;
            op.kind = kind;
            op.ms = secondsSince(sent) * 1e3;
            query.response = svc.responseLog().back();
            std::string problem =
                checkAnswer(query.response, kind,
                            svc.stats().slowPathRuns - slowBefore);
            if (problem.empty() && kind == OpRecord::Kind::Hit &&
                query.response.config != firstConfig)
                problem = "cached answer differs from the first one";
            if (!problem.empty()) {
                op.ok = false;
                result.failures.push_back(id + ": " + problem + " " +
                                          query.response.toJson());
            }
            if (kind == OpRecord::Kind::Hit)
                result.layers.hitUs.push_back(op.ms * 1e3);
            result.ops.push_back(op);
            result.reference.push_back(
                id + " " + query.response.config + " runtime_min " +
                fixed(query.response.runtimeSec / 60.0, 1));
            nowMs = query.response.tMs + step.thinkMs;
            if (step.kind == Step::Kind::Cold)
                coldIndex[step.key] = answered.size();
            answered.push_back(std::move(query));
        }
        const service::ServiceStats stats = svc.stats();
        result.wallS = secondsSince(start);
        result.layers.cacheHitRatio = stats.cacheHitRatio;
        result.layers.slowPathRuns = stats.slowPathRuns;
        result.layers.cellsMemoHit = stats.cellsMemoHit;

        if (traced) {
            double errorSum = 0.0;
            for (std::size_t k = 0; k < keys_.size(); ++k)
                errorSum += attribute(static_cast<int>(k),
                                      answered[coldIndex[k]], answered,
                                      tracer, recorder, result);
            result.modelErrorPct = errorSum / keys_.size() * 100.0;
            if (result.layers.pageCache.reads +
                    result.layers.pageCache.writes !=
                0)
                result.failures.push_back(
                    "bypass: oscache counters non-zero on plan");
        }
        return result;
    }

  private:
    static service::ServiceConfig
    serviceConfig()
    {
        service::ServiceConfig config;
        // Far above any query's virtual cost: the breaker never opens,
        // so every cold query reaches the slow path and is validated.
        config.breaker.latencyThresholdMs = 1e12;
        config.planner.sweepJobs = 1;
        return config;
    }

    /** @return what is wrong with @p resp, empty when it passes. */
    static std::string
    checkAnswer(const service::Response &resp, OpRecord::Kind kind,
                std::uint64_t slowRuns)
    {
        if (resp.status != "ok")
            return "status " + resp.status;
        if (resp.degraded || resp.modelOnly || !resp.haveConfig)
            return "degraded, model-only or without a configuration";
        if (!(resp.costUsd > 0.0) || !(resp.runtimeSec > 0.0))
            return "non-positive cost or runtime";
        // Cold: four profiling runs plus the validation run; warm: the
        // validation run; hit: the result cache, no simulation.
        const std::uint64_t expected = kind == OpRecord::Kind::Cold ? 5
                                       : kind == OpRecord::Kind::Warm
                                           ? 1
                                           : 0;
        const bool hit = resp.cacheOutcome == "hit";
        if (slowRuns != expected || hit != (kind == OpRecord::Kind::Hit))
            return "took " + std::to_string(slowRuns) +
                   " slow-path runs with cache " + resp.cacheOutcome;
        return "";
    }

    /**
     * Re-derive key @p k's cold answer through the public functions
     * with the planner's defaults, timing each phase, then replay the
     * key's warm searches on the same optimizer.
     * @return |Eq. 1 - validated| / validated for the cold winner.
     */
    double
    attribute(int k, const Answered &coldQuery,
              const std::vector<Answered> &answered, Tracer &tracer,
              Recorder &recorder, PassResult &result)
    {
        const PlanKey &key = keys_[static_cast<std::size_t>(k)];
        const service::Response &cold = coldQuery.response;
        double modelError = 0.0;
        const std::string label = key.workload + "|w" +
                                  std::to_string(key.workers);
        const service::PlannerConfig defaults;
        Layers &layers = recorder.layers;
        tracer.beginOp();
        const SpanScope root(tracer, "attribute:" + label);
        try {
            const auto workload = workloads::makeWorkload(key.workload);

            Clock::time_point phase = Clock::now();
            cluster::ClusterConfig sampleCluster;
            sampleCluster.numSlaves = defaults.sampleNodes;
            sampleCluster.seed = defaults.seed;
            model::Profiler::Options options;
            options.sampleNodes = defaults.sampleNodes;
            model::Profiler profiler(countingRunner(*workload, recorder),
                                     sampleCluster, spark::SparkConf{},
                                     options);
            const model::AppModel app =
                timedFit(profiler, workload->name(), recorder);
            layers.coldProfileMs.push_back(secondsSince(phase) * 1e3);

            cloud::CostOptimizer::Options search;
            search.workers = key.workers;
            search.sizeGrid = service::Planner::coarseSizeGrid();
            search.jobs = defaults.sweepJobs;
            const cloud::CostOptimizer optimizer(app, cloud::GcpPricing{},
                                                 search);
            phase = Clock::now();
            const cloud::ConstrainedResult best =
                searchOnce(optimizer, cloud::Constraint::minCost(),
                           tracer, layers);
            layers.coldSearchMs.push_back(secondsSince(phase) * 1e3);
            if (!best.feasible ||
                best.best.config.describe() != cold.config)
                result.failures.push_back(
                    label + ": attribution's winner " +
                    best.best.config.describe() + " != service's " +
                    cold.config);

            phase = Clock::now();
            double validated = 0.0;
            cluster::ClusterConfig cluster;
            {
                const SpanScope span(tracer, "validate.run");
                cluster.numSlaves = best.best.config.workers;
                cluster.node.cores = best.best.config.vcpus;
                cluster.node.hdfsDisk = cloud::makeCloudDiskParams(
                    best.best.config.hdfsType, best.best.config.hdfsSize);
                cluster.node.localDisk = cloud::makeCloudDiskParams(
                    best.best.config.localType,
                    best.best.config.localSize);
                cluster.seed = defaults.seed;
                spark::SparkConf conf;
                conf.executorCores = best.best.config.vcpus;
                validated =
                    runApp(*workload, cluster, conf, recorder).seconds();
            }
            layers.coldValidateMs.push_back(secondsSince(phase) * 1e3);
            if (validated != cold.runtimeSec)
                result.failures.push_back(
                    label + ": attribution's validated runtime " +
                    fixed(validated, 3) + " s != service's " +
                    fixed(cold.runtimeSec, 3) + " s");
            if (validated > 0.0)
                modelError =
                    std::fabs(best.best.seconds - validated) / validated;

            for (const Answered &warm : answered) {
                if (warm.key != k || warm.kind != OpRecord::Kind::Warm)
                    continue;
                const cloud::ConstrainedResult r =
                    searchOnce(optimizer, warm.constraint, tracer, layers);
                if (!r.feasible ||
                    r.best.config.describe() != warm.response.config)
                    result.failures.push_back(
                        label + ": warm search picked " +
                        r.best.config.describe() + " != service's " +
                        warm.response.config);
            }
            const cloud::SearchStats stats = optimizer.searchStats();
            layers.cellsEvaluated += stats.cellsEvaluated;
            layers.cellsPruned += stats.cellsPruned;
            layers.memoHits += stats.memoHits;
            layers.fallbacks += stats.exhaustiveFallbacks;

            constexpr int kPredictions = 200;
            const model::PlatformProfile platform =
                model::PlatformProfile::fromNode(cluster.node);
            const Clock::time_point predictStart = Clock::now();
            double sink = 0.0;
            for (int i = 0; i < kPredictions; ++i)
                sink += app.predictSeconds(cluster.numSlaves,
                                           cluster.node.cores, platform);
            layers.predictUs.push_back(secondsSince(predictStart) * 1e6 /
                                       (kPredictions * app.stages.size()));
            if (!(sink > 0.0))
                result.failures.push_back(label +
                                          ": non-positive prediction");
        } catch (const std::exception &error) {
            result.failures.push_back(label + ": " + error.what());
        }
        return modelError;
    }

    static cloud::ConstrainedResult
    searchOnce(const cloud::CostOptimizer &optimizer,
               const cloud::Constraint &constraint, Tracer &tracer,
               Layers &layers)
    {
        const SpanScope span(tracer, "cloud.optimizeConstrained");
        const Clock::time_point start = Clock::now();
        cloud::ConstrainedResult result =
            optimizer.optimizeConstrained(constraint);
        layers.searchMs.push_back(secondsSince(start) * 1e3);
        return result;
    }

    std::uint64_t seed_;
    std::vector<PlanKey> keys_;
    std::vector<Step> steps_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makePlanWorkload(std::uint64_t seed)
{
    return std::make_unique<PlanWorkload>(seed);
}

} // namespace perfbench
