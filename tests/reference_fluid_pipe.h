/**
 * @file
 * Reference fair-share pipe for differential tests of sim::FluidPipe.
 *
 * Progressive filling marks allocated flows in a reused scratch list
 * (O(rounds * n) per rebalance), advance() walks every flow, and the
 * completion event is only re-scheduled when doing so could change
 * the simulation. Not linked into any library.
 */

#ifndef DOPPIO_TESTS_REFERENCE_FLUID_PIPE_H
#define DOPPIO_TESTS_REFERENCE_FLUID_PIPE_H

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "sim/fluid_pipe.h"
#include "sim/simulator.h"

namespace doppio::sim {

/**
 * The O(n)-per-event max-min solver that FluidPipe replaced, kept
 * verbatim as a test oracle: every membership change re-runs
 * progressive filling over all flows and rescans them for the next
 * completion. Same public surface as FluidPipe.
 */
class ReferenceFluidPipe
{
  public:
    /**
     * @param simulator the owning event loop.
     * @param capacity  total pipe capacity in bytes/s (> 0).
     * @param name      for diagnostics.
     */
    ReferenceFluidPipe(Simulator &simulator, BytesPerSec capacity,
                       std::string name);

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
    std::size_t activeFlows() const { return flows_.size(); }

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
    struct Flow
    {
        Bytes total;      //!< original flow size
        double remaining; //!< bytes left to transfer
        double rate;      //!< bytes/s granted at last rebalance
        BytesPerSec cap;  //!< per-flow ceiling
        std::function<void()> done;
    };

    /** Apply progress since lastUpdate_ at the stored per-flow rates. */
    void advance();

    /** Recompute fair-share rates and (re)schedule completion. */
    void rebalance();

    /** Completion event body: finish due flows, then rebalance. */
    void onCompletion();

    Simulator &sim_;
    BytesPerSec capacity_;
    std::string name_;
    std::unordered_map<FlowId, Flow> flows_;
    std::vector<Flow *> scratch_; //!< reused progressive-filling list
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

#endif // DOPPIO_TESTS_REFERENCE_FLUID_PIPE_H
