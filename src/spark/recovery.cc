#include "spark/recovery.h"

#include <algorithm>

#include "common/logging.h"

namespace doppio::spark {

/** Rolling state of one stage's recovery loop. */
struct StageRecovery::Loop
{
    const StageSpec *stage = nullptr;
    int depth = 0;
    StageDone done;
    StageMetrics merged;
    /// Completed tasks of THIS stage across attempts (recovery map
    /// stages folded into `merged` must not count here).
    std::uint64_t completed = 0;
    int attempts = 1;
};

StageRecovery::StageRecovery(RunAttempt runAttempt, int numSlaves,
                             int stageMaxAttempts, std::string logPrefix)
    : runAttempt_(std::move(runAttempt)), numSlaves_(numSlaves),
      stageMaxAttempts_(stageMaxAttempts), logPrefix_(std::move(logPrefix))
{
}

void
StageRecovery::run(const StageSpec &stage, int depth, StageDone done)
{
    // Remember shuffle producers so a downstream fetch failure can
    // recompute the lost map outputs from lineage.
    if (stage.writesShuffle())
        shuffleProducers_.try_emplace(stage.name, stage);
    runAttempt_(stage, [this, &stage, depth, done = std::move(done)](
                           StageMetrics merged) mutable {
        if (merged.fetchFailedSource < 0) {
            done(std::move(merged));
            return;
        }
        if (depth > 8)
            fatal("StageRecovery: fetch-failure recovery "
                  "recursion too deep at stage %s",
                  stage.name.c_str());
        auto loop = std::make_shared<Loop>();
        loop->stage = &stage;
        loop->depth = depth;
        loop->done = std::move(done);
        loop->completed = merged.taskDuration.count();
        loop->merged = std::move(merged);
        step(std::move(loop));
    });
}

void
StageRecovery::step(std::shared_ptr<Loop> loop)
{
    if (loop->merged.fetchFailedSource < 0) {
        loop->done(std::move(loop->merged));
        return;
    }
    const StageSpec &stage = *loop->stage;
    if (loop->attempts >= stageMaxAttempts_)
        fatal("StageRecovery: stage %s failed %d attempts "
              "(stageMaxAttempts), aborting the application",
              stage.name.c_str(), loop->attempts);
    ++loop->attempts;
    inform("  %sstage %-24s fetch failure from node %d, attempt %d",
           logPrefix_.c_str(), stage.name.c_str(),
           loop->merged.fetchFailedSource, loop->attempts);

    const auto producer = shuffleProducers_.find(stage.shuffleSource);
    if (producer == shuffleProducers_.end())
        fatal("StageRecovery: stage %s hit a fetch failure but its "
              "shuffle producer '%s' is unknown",
              stage.name.c_str(), stage.shuffleSource.c_str());
    // Regenerate the lost map outputs (they land on alive nodes),
    // then rerun the partitions this stage has not finished yet.
    derivedSpecs_.push_back(recoverySpec(producer->second, numSlaves_));
    run(derivedSpecs_.back(), loop->depth + 1,
        [this, loop](StageMetrics recovery) {
            loop->merged.faults.recoverySeconds += recovery.seconds();
            loop->merged.foldIn(recovery);
            loop->merged.fetchFailedSource = -1; // recovery completed
            runAttempt_(remainderSpec(*loop->stage, loop->completed),
                        [this, loop](StageMetrics rerun) {
                            loop->completed += rerun.taskDuration.count();
                            loop->merged.faults.recoverySeconds +=
                                rerun.seconds();
                            ++loop->merged.faults.stageReattempts;
                            loop->merged.foldIn(rerun);
                            step(loop);
                        });
        });
}

StageSpec
recoverySpec(const StageSpec &producer, int numSlaves)
{
    StageSpec spec = producer;
    spec.name = producer.name + ".recovery";
    for (TaskGroupSpec &group : spec.groups) {
        if (group.count > 0)
            group.count = std::max(1, group.count / numSlaves);
    }
    return spec;
}

StageSpec
remainderSpec(const StageSpec &stage, std::uint64_t completed)
{
    StageSpec spec = stage;
    for (TaskGroupSpec &group : spec.groups) {
        const std::uint64_t take = std::min(
            completed, static_cast<std::uint64_t>(group.count));
        group.count -= static_cast<int>(take);
        completed -= take;
    }
    return spec;
}

ReplayPlan
planReplay(int lastCheckpointBatch, int nextBatch)
{
    ReplayPlan plan;
    plan.firstBatch = lastCheckpointBatch + 1;
    plan.lastBatch = nextBatch - 1;
    return plan;
}

} // namespace doppio::spark
