/**
 * @file
 * Fetch-failure recovery, shared by both stage drivers (SparkContext
 * and the multi-tenant sched::JobContext): the stage algebra (how much
 * of a shuffle producer must be recomputed after a node loss, and
 * which partitions of the aborted consumer still need to run) and the
 * one loop that applies it.
 */

#ifndef DOPPIO_SPARK_RECOVERY_H
#define DOPPIO_SPARK_RECOVERY_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "spark/metrics.h"
#include "spark/stage_spec.h"

namespace doppio::spark {

/**
 * Recovery map stage: only the dead node's share of the producer's
 * map outputs must be recomputed (roughly count / numSlaves tasks per
 * group; at least one per non-empty group).
 */
StageSpec recoverySpec(const StageSpec &producer, int numSlaves);

/**
 * Rerun of a fetch-failed stage: the tasks that already completed in
 * earlier attempts are subtracted front-to-back from the flattened
 * group order (the order the engine launches in).
 */
StageSpec remainderSpec(const StageSpec &stage, std::uint64_t completed);

/**
 * Runs stages with Spark 1.6's fetch-failure recovery: a stage aborted
 * by a FetchFailure recomputes its shuffle producer's lost share (itself
 * recoverable, nested at most 8 deep), then reruns its own remainder,
 * up to SparkConf::stageMaxAttempts attempts. Everything folds into one
 * merged StageMetrics entry so job durations (sum of stage windows)
 * never double-count. Each driver owns one loop per application.
 */
class StageRecovery
{
  public:
    using StageDone = std::function<void(StageMetrics)>;

    /**
     * How one stage attempt runs: execute the spec (copying it before
     * returning) and hand its metrics to the continuation, either
     * before returning (SparkContext: TaskEngine::runStage) or from
     * within the event loop (JobContext: TaskEngine::submitStage).
     */
    using RunAttempt = std::function<void(const StageSpec &, StageDone)>;

    /** @p logPrefix is prepended to the per-attempt progress line. */
    StageRecovery(RunAttempt runAttempt, int numSlaves,
                  int stageMaxAttempts, std::string logPrefix);

    /** Run @p stage to success and pass the merged metrics to @p done;
     *  @p stage must stay alive until then. */
    void run(const StageSpec &stage, StageDone done)
    {
        run(stage, 0, std::move(done));
    }

  private:
    struct Loop;

    void run(const StageSpec &stage, int depth, StageDone done);

    /** One turn of the loop: done, or recover and rerun once more. */
    void step(std::shared_ptr<Loop> loop);

    RunAttempt runAttempt_;
    int numSlaves_ = 0;
    int stageMaxAttempts_ = 0;
    std::string logPrefix_;
    /// Specs of executed shuffle map stages, for lineage recomputation.
    std::unordered_map<std::string, StageSpec> shuffleProducers_;
    /// Stable storage for recovery specs, which outlive their nested
    /// loop.
    std::deque<StageSpec> derivedSpecs_;
};

/**
 * Which micro-batches a streaming driver must replay after a failure:
 * everything after the last checkpointed batch up to (excluding) the
 * next batch not yet admitted. With periodic checkpoints the replay
 * span — and hence recovery time for a stable stream — is bounded by
 * the checkpoint interval.
 */
struct ReplayPlan
{
    int firstBatch = 0; //!< first batch index to replay
    int lastBatch = -1; //!< last batch index to replay (inclusive)

    int
    count() const
    {
        return lastBatch >= firstBatch ? lastBatch - firstBatch + 1 : 0;
    }
};

/** @return the replay span (lastCheckpointBatch of -1 = no checkpoint). */
ReplayPlan planReplay(int lastCheckpointBatch, int nextBatch);

} // namespace doppio::spark

#endif // DOPPIO_SPARK_RECOVERY_H
