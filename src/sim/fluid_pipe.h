/**
 * @file
 * Fair-shared fluid bandwidth resource.
 *
 * Models a link (disk transfer path, NIC) as a pipe of fixed capacity
 * shared max-min fairly among active flows. Events are generated only
 * when flow membership changes, which keeps large shuffles cheap to
 * simulate while capturing bandwidth contention exactly — the effect the
 * Doppio model's BW/b terms describe.
 *
 * Solver (DESIGN.md §11): max-min fairness with per-flow caps splits
 * the flows at a water level. Flows whose cap is at or below the level
 * are *pinned* at their cap and keep an explicit byte count; every
 * other flow is *shared* and runs at the level itself. Shared flows
 * all progress at the same rate, so they are tracked in virtual time
 * (GPS-style): one counter V accumulates the bytes each shared flow
 * has received, and a shared flow stores its remaining bytes as of
 * the V at which it joined, so its finish tag is V_join + remaining.
 * Advancing the clock is O(pinned) instead of O(flows); the next
 * completion comes from a min-heap of finish tags and the pin/unpin
 * boundary from a min-heap of shared caps, so a membership change
 * costs O(pinned + log flows). Both heaps delete lazily; V restarts
 * at 0 whenever no flow is shared. While only a few flows are shared,
 * V is also re-based after every advance, which folds each step into
 * each flow's remaining bytes exactly as a per-flow update would: the
 * many small pipes keep the arithmetic of the original O(flows)
 * solver bit for bit, and only deep pipes run on lazy virtual time.
 *
 * Flows that complete on the same tick fire their callbacks in
 * ascending FlowId order (start order). The completion event is only
 * re-scheduled when doing so could change the simulation — same-tick
 * re-schedules of the newest event are elided.
 */

#ifndef DOPPIO_SIM_FLUID_PIPE_H
#define DOPPIO_SIM_FLUID_PIPE_H

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace doppio::sim {

/** Handle for an in-flight flow. */
using FlowId = std::uint64_t;

/**
 * A shared-bandwidth pipe with max-min fair allocation and optional
 * per-flow rate caps.
 */
class FluidPipe
{
  public:
    /**
     * @param simulator the owning event loop.
     * @param capacity  total pipe capacity in bytes/s (> 0, finite).
     * @param name      for diagnostics.
     */
    FluidPipe(Simulator &simulator, BytesPerSec capacity, std::string name);

    /**
     * Begin transferring @p bytes; @p done fires when the last byte
     * completes. Zero-byte flows complete on the next event at the
     * current tick.
     *
     * @param rateCap optional per-flow ceiling (bytes/s), e.g. a single
     *                disk channel or a remote sender's NIC.
     * @return the flow id.
     */
    FlowId startFlow(Bytes bytes, std::function<void()> done,
                     BytesPerSec rateCap =
                         std::numeric_limits<double>::infinity());

    /** @return number of currently active flows. */
    std::size_t activeFlows() const
    {
        return pinned_.size() + sharedCount_;
    }

    /** @return configured capacity in bytes/s. */
    BytesPerSec capacity() const { return capacity_; }

    /** Change capacity (affects in-flight flows from now on). */
    void setCapacity(BytesPerSec capacity);

    /** @return total bytes completed through this pipe. */
    Bytes bytesCompleted() const { return bytesCompleted_; }

    /** @return ticks during which at least one flow was active. */
    Tick busyTime() const;

    const std::string &name() const { return name_; }

  private:
    /** One flow slot; freed slots are recycled through freeSlots_. */
    struct Flow
    {
        FlowId id = 0;
        Bytes total = 0;    //!< original flow size
        double work = 0.0;  //!< Shared: bytes left as of joinV
        double joinV = 0.0; //!< Shared: V when work was recorded
        BytesPerSec cap = 0.0;
        std::uint32_t gen = 0; //!< bumped on every class change
        std::function<void()> done;
    };

    /** A pinned flow, kept contiguous for the per-advance walk. */
    struct Pinned
    {
        double work;     //!< bytes left
        BytesPerSec cap; //!< also its rate
        std::uint32_t slot;
    };

    /**
     * Lazily deleted heap entry: live while its generation matches
     * the slot's, stale (skipped and dropped) once the flow changed
     * class or finished.
     */
    struct HeapEntry
    {
        double key;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** Apply progress since lastUpdate_ at the current rates. */
    void advance();

    /** Re-derive the water level and (re)schedule completion. */
    void rebalance();

    /** Completion event body: finish due flows, then rebalance. */
    void onCompletion();
    /** Panic if a flow at @p rate ends further past zero than rounding. */
    void checkOvershoot(const Flow &flow, double remaining,
                        BytesPerSec rate) const;

    /** @return a free slot index for a new flow. */
    std::uint32_t allocSlot();
    /** Return @p slot to the free list. */
    void releaseSlot(std::uint32_t slot);

    /** Enter the shared class with @p remaining bytes left. */
    void makeShared(std::uint32_t slot, double remaining);
    /** Leave the shared class for the pinned list. */
    void pin(std::uint32_t slot);

    /**
     * Bytes a shared flow has left at the current V. A flow that just
     * joined (V == joinV) reads back its work exactly.
     */
    double sharedRemaining(const Flow &flow) const
    {
        return flow.work - (virtualTime_ - flow.joinV);
    }

    bool live(const HeapEntry &entry) const
    {
        return flows_[entry.slot].gen == entry.gen;
    }
    /** Drop stale entries from a heap's top; @return false if empty. */
    bool pruneTop(std::vector<HeapEntry> &heap);
    /**
     * Drop a heap's stale entries once they could outnumber its live
     * ones; with no shared flow left, clear both heaps and reset V.
     */
    void compactHeaps();
    /** Re-join every shared flow at V = 0 with its remaining bytes. */
    void rebaseVirtualTime();

    Simulator &sim_;
    BytesPerSec capacity_;
    std::string name_;

    std::vector<Flow> flows_;              //!< slot storage
    std::vector<std::uint32_t> freeSlots_;
    std::vector<Pinned> pinned_;           //!< in pin order
    std::size_t sharedCount_ = 0;
    std::vector<HeapEntry> tagHeap_; //!< shared joinV + work (min)
    std::vector<HeapEntry> capHeap_; //!< finite shared caps (min)
    double virtualTime_ = 0.0;       //!< V: bytes per shared flow
    double level_ = 0.0;             //!< shared-flow rate (bytes/s)
    std::vector<std::uint32_t> due_; //!< reused completion scratch

    FlowId nextFlowId_ = 1;
    Tick lastUpdate_ = 0;
    EventId completionEvent_ = 0;
    Tick completionWhen_ = 0;          //!< tick of the pending event
    std::uint64_t completionSeq_ = 0;  //!< scheduledEvents() after it
    bool completionPending_ = false;
    Bytes bytesCompleted_ = 0;
    Tick busyTime_ = 0;
};

} // namespace doppio::sim

#endif // DOPPIO_SIM_FLUID_PIPE_H
