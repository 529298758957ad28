#include "storage/disk_device.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "trace/trace_collector.h"

namespace doppio::storage {

DiskDevice::DiskDevice(sim::Simulator &simulator, DiskParams params,
                       std::string name)
    : sim_(simulator), params_(std::move(params)), name_(std::move(name)),
      readPipe_(simulator, params_.readBandwidth, name_ + "/read"),
      writePipe_(simulator, params_.writeBandwidth, name_ + "/write")
{
    params_.validate();
}

void
DiskDevice::setDegradedFactor(double factor)
{
    if (!(factor >= 1.0) || !std::isfinite(factor))
        fatal("DiskDevice %s: degraded factor must be finite and >= 1, "
              "got %g",
              name_.c_str(), factor);
    degrade_ = factor;
}

void
DiskDevice::setTrace(trace::TraceCollector *trace, int pid, int tid)
{
    trace_ = trace;
    tracePid_ = pid;
    traceTid_ = tid;
}

void
DiskDevice::traceQueueDelta(int delta)
{
    traceQueue_ += delta;
    trace_->counter(tracePid_, "disk", name_ + "/queue", sim_.now(),
                    static_cast<double>(traceQueue_));
}

Tick
DiskDevice::degradedLatency(Tick latency) const
{
    if (degrade_ == 1.0)
        return latency;
    return static_cast<Tick>(static_cast<double>(latency) * degrade_ +
                             0.5);
}

void
DiskDevice::submit(IoOp op, Bytes size, std::function<void()> done)
{
    if (size == 0) {
        sim_.schedule(0, std::move(done));
        return;
    }

    const bool read = isRead(op);
    const double iops = read ? params_.readIops : params_.writeIops;
    const Tick admit_interval = secondsToTicks(degrade_ / iops);
    const Tick latency = degradedLatency(
        read ? params_.readLatency : params_.writeLatency);
    const BytesPerSec bw =
        read ? params_.readBandwidth : params_.writeBandwidth;
    // A healthy device does not cap individual flows; the pipe's
    // shared capacity already enforces the bandwidth limit.
    const BytesPerSec rate_cap =
        degrade_ > 1.0 ? bw / degrade_
                       : std::numeric_limits<double>::infinity();

    // Shared admission token bucket: the arm/controller starts one
    // request per 1/IOPS interval, regardless of direction.
    const Tick grant = std::max(sim_.now(), nextAdmit_);
    nextAdmit_ = grant + admit_interval;

    const Tick submitted = sim_.now();
    if (trace_)
        traceQueueDelta(+1);

    sim::FluidPipe &pipe = read ? readPipe_ : writePipe_;
    sim_.scheduleAt(
        grant + latency, [this, &pipe, op, size, rate_cap, submitted,
                          done = std::move(done)]() mutable {
            pipe.startFlow(
                size,
                [this, op, size, submitted,
                 done = std::move(done)]() mutable {
                    stats_.record(op, size);
                    if (observer_)
                        observer_(op, size, 1, sim_.now() - submitted);
                    if (trace_) {
                        trace_->span(tracePid_, traceTid_, "disk",
                                     ioOpName(op), submitted, sim_.now(),
                                     trace::TraceArgs().add("bytes",
                                                            size));
                        traceQueueDelta(-1);
                    }
                    if (done)
                        done();
                },
                rate_cap);
        });
}

void
DiskDevice::submitBatch(IoOp op, Bytes size, std::uint64_t count,
                        std::function<void()> done)
{
    if (size == 0 || count == 0) {
        sim_.schedule(0, std::move(done));
        return;
    }
    if (count == 1) {
        submit(op, size, std::move(done));
        return;
    }

    const bool read = isRead(op);
    const double iops = read ? params_.readIops : params_.writeIops;
    const Tick admit_interval = secondsToTicks(degrade_ / iops);
    const Tick latency = degradedLatency(
        read ? params_.readLatency : params_.writeLatency);
    const BytesPerSec bw =
        (read ? params_.readBandwidth : params_.writeBandwidth) /
        degrade_;

    // Reserve all admission tokens (FIFO, work conserving).
    const Tick grant = std::max(sim_.now(), nextAdmit_);
    nextAdmit_ = grant + admit_interval * count;

    // A solo synchronous client paces itself at one request per
    // max(admission interval, latency + transfer) seconds.
    const double per_request = std::max(
        ticksToSeconds(admit_interval),
        ticksToSeconds(latency) + static_cast<double>(size) / bw);
    const BytesPerSec solo_rate = static_cast<double>(size) / per_request;

    const Tick submitted = sim_.now();
    if (trace_)
        traceQueueDelta(+1);

    sim::FluidPipe &pipe = read ? readPipe_ : writePipe_;
    const Bytes total = size * count;
    sim_.scheduleAt(
        grant + latency, [this, &pipe, op, size, count, total, solo_rate,
                          submitted, done = std::move(done)]() mutable {
            pipe.startFlow(
                total,
                [this, op, size, count, submitted,
                 done = std::move(done)]() mutable {
                    stats_.recordMany(op, size, count);
                    if (observer_)
                        observer_(op, size, count,
                                  sim_.now() - submitted);
                    if (trace_) {
                        trace_->span(tracePid_, traceTid_, "disk",
                                     ioOpName(op), submitted, sim_.now(),
                                     trace::TraceArgs()
                                         .add("bytes", size * count)
                                         .add("requests", count));
                        traceQueueDelta(-1);
                    }
                    if (done)
                        done();
                },
                solo_rate);
        });
}

} // namespace doppio::storage
