#include "sim/fluid_pipe.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace doppio::sim {

namespace {

/// Completion tolerance, in bytes. Rates are doubles and completion
/// ticks round up, so flows land at or slightly below zero.
constexpr double kEpsilonBytes = 1e-3;

/// A completing flow lands past zero by at most one tick at its rate
/// (the completion tick rounds up) plus rounding; never by this more.
constexpr double kOvershootBytes = 1.0;

/// Relative slack for the capacity and level invariants.
constexpr double kRateSlack = 1e-9;

/// V is re-based to 0 once it passes 2^32 bytes, which keeps its ulp
/// (and so every shared flow's remaining bytes) below 1e-6 bytes —
/// three orders under kEpsilonBytes.
constexpr double kRebaseVirtualBytes = 4294967296.0;

/// While at most this many flows are shared, V is re-based after every
/// advance: O(shared) work that subtracts each step's service from
/// each flow's remaining bytes one step at a time, exactly as the
/// per-flow solver did, so small pipes keep its arithmetic bit for
/// bit. Deeper pipes reassociate those sums, which can move a
/// completion by a tick (DESIGN.md §11 lists the outputs that notice).
constexpr std::size_t kEagerRebaseFlows = 16;

/// Min-heap order on (key, slot) for the std heap algorithms.
struct HeapAfter
{
    template <typename Entry>
    bool
    operator()(const Entry &a, const Entry &b) const
    {
        return a.key > b.key || (a.key == b.key && a.slot > b.slot);
    }
};

bool
validCapacity(BytesPerSec capacity)
{
    return capacity > 0.0 && std::isfinite(capacity);
}

} // namespace

FluidPipe::FluidPipe(Simulator &simulator, BytesPerSec capacity,
                     std::string name)
    : sim_(simulator), capacity_(capacity), name_(std::move(name)),
      lastUpdate_(simulator.now())
{
    if (!validCapacity(capacity_))
        fatal("FluidPipe %s: capacity must be positive and finite",
              name_.c_str());
}

FlowId
FluidPipe::startFlow(Bytes bytes, std::function<void()> done,
                     BytesPerSec rateCap)
{
    if (!(rateCap > 0.0))
        fatal("FluidPipe %s: flow rate cap must be positive",
              name_.c_str());
    advance();
    const std::uint32_t slot = allocSlot();
    Flow &flow = flows_[slot];
    flow.id = nextFlowId_++;
    flow.total = bytes;
    flow.cap = rateCap;
    flow.done = std::move(done);
    makeShared(slot, static_cast<double>(bytes));
    rebalance();
    return flow.id;
}

void
FluidPipe::setCapacity(BytesPerSec capacity)
{
    if (!validCapacity(capacity))
        fatal("FluidPipe %s: capacity must be positive and finite",
              name_.c_str());
    advance();
    capacity_ = capacity;
    rebalance();
}

Tick
FluidPipe::busyTime() const
{
    Tick busy = busyTime_;
    if (activeFlows() > 0)
        busy += sim_.now() - lastUpdate_;
    return busy;
}

std::uint32_t
FluidPipe::allocSlot()
{
    if (freeSlots_.empty()) {
        flows_.emplace_back();
        return static_cast<std::uint32_t>(flows_.size() - 1);
    }
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    return slot;
}

void
FluidPipe::releaseSlot(std::uint32_t slot)
{
    Flow &flow = flows_[slot];
    ++flow.gen;
    flow.done = nullptr;
    freeSlots_.push_back(slot);
}

void
FluidPipe::makeShared(std::uint32_t slot, double remaining)
{
    Flow &flow = flows_[slot];
    ++flow.gen;
    flow.work = remaining;
    flow.joinV = virtualTime_;
    ++sharedCount_;
    tagHeap_.push_back({flow.joinV + remaining, slot, flow.gen});
    std::push_heap(tagHeap_.begin(), tagHeap_.end(), HeapAfter{});
    if (std::isfinite(flow.cap)) {
        capHeap_.push_back({flow.cap, slot, flow.gen});
        std::push_heap(capHeap_.begin(), capHeap_.end(), HeapAfter{});
    }
}

void
FluidPipe::pin(std::uint32_t slot)
{
    Flow &flow = flows_[slot];
    pinned_.push_back({sharedRemaining(flow), flow.cap, slot});
    --sharedCount_;
    ++flow.gen;
}

bool
FluidPipe::pruneTop(std::vector<HeapEntry> &heap)
{
    while (!heap.empty() && !live(heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), HeapAfter{});
        heap.pop_back();
    }
    return !heap.empty();
}

void
FluidPipe::compactHeaps()
{
    if (sharedCount_ == 0) {
        // Nothing shared is left: drop every entry and restart the
        // virtual clock.
        tagHeap_.clear();
        capHeap_.clear();
        virtualTime_ = 0.0;
        return;
    }
    // Each shared flow has at most one live entry per heap.
    for (std::vector<HeapEntry> *heap : {&tagHeap_, &capHeap_}) {
        if (heap->size() <= 2 * sharedCount_)
            continue;
        std::erase_if(*heap, [this](const HeapEntry &entry) {
            return !live(entry);
        });
        std::make_heap(heap->begin(), heap->end(), HeapAfter{});
    }
}

void
FluidPipe::rebaseVirtualTime()
{
    // Every shared flow re-joins at V = 0 with its current remaining
    // bytes; each has exactly one live tag entry.
    std::erase_if(tagHeap_,
                  [this](const HeapEntry &entry) { return !live(entry); });
    for (HeapEntry &entry : tagHeap_) {
        Flow &flow = flows_[entry.slot];
        flow.work = sharedRemaining(flow);
        flow.joinV = 0.0;
        entry.key = flow.work;
    }
    std::make_heap(tagHeap_.begin(), tagHeap_.end(), HeapAfter{});
    virtualTime_ = 0.0;
}

void
FluidPipe::advance()
{
    const Tick now = sim_.now();
    if (now == lastUpdate_)
        return;
    const double elapsed = ticksToSeconds(now - lastUpdate_);
    if (activeFlows() > 0) {
        busyTime_ += now - lastUpdate_;
        if (sharedCount_ > 0)
            virtualTime_ += level_ * elapsed;
        for (Pinned &p : pinned_)
            p.work -= p.cap * elapsed;
        if (sharedCount_ > 0 && (sharedCount_ <= kEagerRebaseFlows ||
                                 virtualTime_ > kRebaseVirtualBytes))
            rebaseVirtualTime();
    }
    lastUpdate_ = now;
}

void
FluidPipe::rebalance()
{
    compactHeaps();
    if (activeFlows() == 0) {
        if (completionPending_) {
            sim_.cancel(completionEvent_);
            completionPending_ = false;
        }
        return;
    }

    // One pass over the pinned list gives the budget left for shared
    // flows (re-derived from capacity in pinned-list order on every
    // call, so rounding never accumulates), the cap sum and largest cap
    // for the invariants, and the earliest pinned completion.
    double budget = 0.0;
    double pinned_sum = 0.0;
    double max_pinned = 0.0;
    std::size_t max_at = 0;
    double min_dt = std::numeric_limits<double>::infinity();
    auto account = [&](const Pinned &p, std::size_t at) {
        budget -= p.cap;
        pinned_sum += p.cap;
        if (p.cap > max_pinned) {
            max_pinned = p.cap;
            max_at = at;
        }
        min_dt = p.work <= kEpsilonBytes ? 0.0
                                         : std::min(min_dt, p.work / p.cap);
    };
    auto scan = [&] {
        budget = capacity_;
        pinned_sum = 0.0;
        max_pinned = 0.0;
        min_dt = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < pinned_.size(); ++i)
            account(pinned_[i], i);
    };
    scan();

    // Unpin: a pinned flow whose cap exceeds the level it would share
    // rejoins the shared class, largest cap first (each unpin raises
    // the level, so smaller caps may then stay pinned).
    while (!pinned_.empty() &&
           (sharedCount_ == 0
                ? budget < 0.0
                : max_pinned >
                      budget / static_cast<double>(sharedCount_))) {
        const Pinned p = pinned_[max_at];
        pinned_.erase(pinned_.begin() +
                      static_cast<std::ptrdiff_t>(max_at));
        makeShared(p.slot, p.work);
        scan();
    }

    // Pin: shared flows whose cap is at or below the level run at
    // their cap and release the difference to the rest (progressive
    // filling, one flow at a time in ascending cap order).
    while (sharedCount_ > 0 && pruneTop(capHeap_)) {
        const HeapEntry top = capHeap_.front();
        if (top.key > budget / static_cast<double>(sharedCount_))
            break;
        std::pop_heap(capHeap_.begin(), capHeap_.end(), HeapAfter{});
        capHeap_.pop_back();
        pin(top.slot);
        account(pinned_.back(), pinned_.size() - 1);
    }
    level_ = sharedCount_ > 0
                 ? budget / static_cast<double>(sharedCount_)
                 : 0.0;
    compactHeaps();

    // Always-on invariants, O(1) on what the passes above computed
    // (written so that a NaN fails them too). A pinned flow runs at
    // its cap, and no pinned cap lies above the shared level.
    const double shared = static_cast<double>(sharedCount_);
    if (sharedCount_ > 0 && !(level_ > 0.0))
        panic("FluidPipe %s: level %g with %zu shared flows",
              name_.c_str(), level_, sharedCount_);
    if (!(pinned_sum + level_ * shared <=
          capacity_ * (1.0 + kRateSlack)))
        panic("FluidPipe %s: allocated %g B/s exceeds capacity %g",
              name_.c_str(), pinned_sum + level_ * shared, capacity_);
    if (sharedCount_ > 0 && !(max_pinned <= level_ * (1.0 + kRateSlack)))
        panic("FluidPipe %s: pinned cap %g above level %g",
              name_.c_str(), max_pinned, level_);

    // Next membership change: the earliest flow completion.
    if (min_dt > 0.0 && sharedCount_ > 0 && pruneTop(tagHeap_)) {
        const double remaining =
            sharedRemaining(flows_[tagHeap_.front().slot]);
        min_dt = remaining <= kEpsilonBytes
                     ? 0.0
                     : std::min(min_dt, remaining / level_);
    }
    const Tick delay = static_cast<Tick>(
        std::ceil(min_dt * static_cast<double>(kTicksPerSec)));
    const Tick when = sim_.now() + delay;
    if (completionPending_ && when == completionWhen_ &&
        sim_.scheduledEvents() == completionSeq_) {
        // The already-scheduled completion lands on the same tick and
        // is still the newest event in the simulator, so re-scheduling
        // it could not change the firing order of anything — elide the
        // cancel/schedule pair (DESIGN.md §11).
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
FluidPipe::checkOvershoot(const Flow &flow, double remaining,
                          BytesPerSec rate) const
{
    const double tick_bytes = rate / static_cast<double>(kTicksPerSec);
    if (!(remaining >= -(kOvershootBytes + tick_bytes)))
        panic("FluidPipe %s: flow %llu completed %g bytes past zero",
              name_.c_str(), static_cast<unsigned long long>(flow.id),
              -remaining);
}

void
FluidPipe::onCompletion()
{
    completionPending_ = false;
    advance();

    // Due shared flows sit at the top of the finish-tag heap; due
    // pinned flows take one pass over the pinned list.
    due_.clear();
    while (sharedCount_ > 0 && pruneTop(tagHeap_)) {
        const std::uint32_t slot = tagHeap_.front().slot;
        Flow &flow = flows_[slot];
        const double remaining = sharedRemaining(flow);
        if (remaining > kEpsilonBytes)
            break;
        checkOvershoot(flow, remaining, level_);
        std::pop_heap(tagHeap_.begin(), tagHeap_.end(), HeapAfter{});
        tagHeap_.pop_back();
        --sharedCount_;
        due_.push_back(slot);
    }
    std::erase_if(pinned_, [this](const Pinned &p) {
        if (p.work > kEpsilonBytes)
            return false;
        checkOvershoot(flows_[p.slot], p.work, p.cap);
        due_.push_back(p.slot);
        return true;
    });

    // Same-tick completions fire in start order.
    std::sort(due_.begin(), due_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return flows_[a].id < flows_[b].id;
              });
    std::vector<std::function<void()>> callbacks;
    callbacks.reserve(due_.size());
    for (const std::uint32_t slot : due_) {
        Flow &flow = flows_[slot];
        bytesCompleted_ += flow.total;
        callbacks.push_back(std::move(flow.done));
        releaseSlot(slot);
    }
    rebalance();
    for (auto &cb : callbacks) {
        if (cb)
            cb();
    }
}

} // namespace doppio::sim
