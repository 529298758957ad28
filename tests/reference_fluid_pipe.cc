#include "reference_fluid_pipe.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace doppio::sim {

namespace {

/// Completion tolerance, in bytes. Rates are doubles and completion
/// ticks round up, so flows land at or slightly below zero.
constexpr double kEpsilonBytes = 1e-3;

} // namespace

ReferenceFluidPipe::ReferenceFluidPipe(Simulator &simulator,
                                       BytesPerSec capacity,
                                       std::string name)
    : sim_(simulator), capacity_(capacity), name_(std::move(name)),
      lastUpdate_(simulator.now())
{
    if (capacity_ <= 0.0)
        fatal("ReferenceFluidPipe %s: capacity must be positive",
              name_.c_str());
}

FlowId
ReferenceFluidPipe::startFlow(Bytes bytes, std::function<void()> done,
                              BytesPerSec rateCap)
{
    if (rateCap <= 0.0)
        fatal("ReferenceFluidPipe %s: flow rate cap must be positive",
              name_.c_str());
    advance();
    const FlowId id = nextFlowId_++;
    flows_.emplace(id, Flow{bytes, static_cast<double>(bytes), 0.0,
                            rateCap, std::move(done)});
    rebalance();
    return id;
}

void
ReferenceFluidPipe::setCapacity(BytesPerSec capacity)
{
    if (capacity <= 0.0)
        fatal("ReferenceFluidPipe %s: capacity must be positive",
              name_.c_str());
    advance();
    capacity_ = capacity;
    rebalance();
}

Tick
ReferenceFluidPipe::busyTime() const
{
    Tick busy = busyTime_;
    if (!flows_.empty())
        busy += sim_.now() - lastUpdate_;
    return busy;
}

void
ReferenceFluidPipe::advance()
{
    const Tick now = sim_.now();
    if (now == lastUpdate_)
        return;
    const double elapsed = ticksToSeconds(now - lastUpdate_);
    if (!flows_.empty()) {
        busyTime_ += now - lastUpdate_;
        for (auto &[id, flow] : flows_)
            flow.remaining -= flow.rate * elapsed;
    }
    lastUpdate_ = now;
}

void
ReferenceFluidPipe::rebalance()
{
    if (flows_.empty()) {
        if (completionPending_) {
            sim_.cancel(completionEvent_);
            completionPending_ = false;
        }
        return;
    }

    // Progressive filling: capped flows that cannot absorb the fair
    // share release bandwidth to the rest. Allocated flows are marked
    // by nulling their scratch entry instead of erased from the list,
    // so a round costs O(n) instead of O(n^2) of vector shifting.
    scratch_.clear();
    scratch_.reserve(flows_.size());
    for (auto &[id, flow] : flows_)
        scratch_.push_back(&flow);
    double budget = capacity_;
    std::size_t unallocated = scratch_.size();
    bool changed = true;
    while (unallocated > 0 && changed) {
        changed = false;
        const double fair =
            budget / static_cast<double>(unallocated);
        for (Flow *&entry : scratch_) {
            if (entry == nullptr)
                continue;
            if (entry->cap <= fair) {
                entry->rate = entry->cap;
                budget -= entry->cap;
                entry = nullptr;
                --unallocated;
                changed = true;
            }
        }
    }
    if (unallocated > 0) {
        const double fair =
            budget / static_cast<double>(unallocated);
        for (Flow *entry : scratch_) {
            if (entry != nullptr)
                entry->rate = fair;
        }
    }

    // Next membership change: the earliest flow completion.
    double min_dt = std::numeric_limits<double>::infinity();
    for (auto &[id, flow] : flows_) {
        if (flow.remaining <= kEpsilonBytes) {
            min_dt = 0.0;
            break;
        }
        min_dt = std::min(min_dt, flow.remaining / flow.rate);
    }
    const Tick delay = static_cast<Tick>(
        std::ceil(min_dt * static_cast<double>(kTicksPerSec)));
    const Tick when = sim_.now() + delay;
    if (completionPending_ && when == completionWhen_ &&
        sim_.scheduledEvents() == completionSeq_) {
        // The already-scheduled completion lands on the same tick and
        // is still the newest event in the simulator, so re-scheduling
        // it could not change the firing order of anything — elide the
        // cancel/schedule pair.
        return;
    }
    if (completionPending_)
        sim_.cancel(completionEvent_);
    completionEvent_ = sim_.schedule(delay, [this] { onCompletion(); });
    completionWhen_ = when;
    completionSeq_ = sim_.scheduledEvents();
    completionPending_ = true;
}

void
ReferenceFluidPipe::onCompletion()
{
    completionPending_ = false;
    advance();
    std::vector<std::function<void()>> callbacks;
    for (auto it = flows_.begin(); it != flows_.end();) {
        if (it->second.remaining <= kEpsilonBytes) {
            bytesCompleted_ += it->second.total;
            callbacks.push_back(std::move(it->second.done));
            it = flows_.erase(it);
        } else {
            ++it;
        }
    }
    rebalance();
    for (auto &cb : callbacks) {
        if (cb)
            cb();
    }
}

} // namespace doppio::sim
