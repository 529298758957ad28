#include "storage/fio.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "sim/simulator.h"
#include "storage/disk_device.h"

namespace doppio::storage {

namespace {

/**
 * What a one-direction sweep reads: that direction's IOPS, latency
 * and bandwidth (DiskDevice::submit reads no other DiskParams field),
 * Config::queueDepth, Config::requestsPerWorker and the size list.
 */
using TableKey =
    std::tuple<double, Tick, BytesPerSec, int, int, std::vector<Bytes>>;

} // namespace

FioProfiler::FioProfiler(DiskParams params, Config config)
    : params_(std::move(params)), config_(config)
{
    params_.validate();
    if (config_.queueDepth <= 0 || config_.requestsPerWorker <= 0)
        fatal("FioProfiler: queueDepth and requestsPerWorker must be "
              "positive");
}

FioProfiler::FioProfiler(DiskParams params)
    : FioProfiler(std::move(params), Config{})
{}

FioResult
FioProfiler::measure(IoKind kind, Bytes requestSize) const
{
    if (requestSize == 0)
        fatal("FioProfiler: request size must be positive");

    sim::Simulator sim;
    DiskDevice dev(sim, params_, "fio");
    const IoOp op =
        kind == IoKind::Read ? IoOp::RawRead : IoOp::RawWrite;

    // Each worker issues its next request when the previous one
    // completes, emulating fio's per-job synchronous loop at the
    // configured aggregate queue depth.
    struct Worker
    {
        int remaining;
        std::function<void()> issue;
    };
    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(static_cast<std::size_t>(config_.queueDepth));
    for (int w = 0; w < config_.queueDepth; ++w) {
        auto worker = std::make_unique<Worker>();
        worker->remaining = config_.requestsPerWorker;
        Worker *raw = worker.get();
        worker->issue = [raw, &dev, op, requestSize]() {
            if (raw->remaining == 0)
                return;
            --raw->remaining;
            dev.submit(op, requestSize, [raw]() { raw->issue(); });
        };
        workers.push_back(std::move(worker));
    }
    for (auto &worker : workers)
        worker->issue();

    const Tick end = sim.run();
    const double elapsed = ticksToSeconds(end);
    const OpStats &stats = dev.stats().forOp(op);

    FioResult result;
    result.requestSize = requestSize;
    if (elapsed > 0.0) {
        result.iops =
            static_cast<double>(stats.requests) / elapsed;
        result.bandwidth =
            static_cast<double>(stats.bytes) / elapsed;
    }
    return result;
}

std::vector<FioResult>
FioProfiler::sweep(IoKind kind, const std::vector<Bytes> &sizes) const
{
    std::vector<FioResult> results;
    results.reserve(sizes.size());
    for (Bytes size : sizes)
        results.push_back(measure(kind, size));
    return results;
}

const LookupTable &
FioProfiler::bandwidthTable(IoKind kind,
                            const std::vector<Bytes> &sizes) const
{
    // The memo never evicts: callers hold references into its nodes.
    // Keys come from disk presets and optimizer size grids, never from
    // service requests (the protocol carries only a worker count), so
    // it stays a few dozen entries.
    static std::mutex mutex;
    static std::map<TableKey, LookupTable, std::less<>> tables;

    const bool read = kind == IoKind::Read;
    // A tuple of references: a hit copies nothing.
    const auto key = std::forward_as_tuple(
        read ? params_.readIops : params_.writeIops,
        read ? params_.readLatency : params_.writeLatency,
        read ? params_.readBandwidth : params_.writeBandwidth,
        config_.queueDepth, config_.requestsPerWorker, sizes);
    {
        const std::lock_guard<std::mutex> lock(mutex);
        const auto it = tables.find(key);
        if (it != tables.end())
            return it->second;
    }
    // Fill outside the lock: the sweep is the expensive part and is
    // deterministic, so threads racing on one key build identical
    // tables and the first insert wins.
    std::vector<std::pair<double, double>> points;
    points.reserve(sizes.size());
    for (const FioResult &r : sweep(kind, sizes))
        points.emplace_back(static_cast<double>(r.requestSize),
                            r.bandwidth);
    LookupTable table(std::move(points), LookupTable::Scale::Log);
    const std::lock_guard<std::mutex> lock(mutex);
    return tables.emplace(TableKey(key), std::move(table)).first->second;
}

const LookupTable &
FioProfiler::bandwidthTable(IoKind kind) const
{
    static const std::vector<Bytes> sizes = defaultSweepSizes();
    return bandwidthTable(kind, sizes);
}

std::vector<Bytes>
FioProfiler::defaultSweepSizes()
{
    return {
        kib(4),   kib(8),   kib(16),  kib(30),  kib(64),  kib(128),
        kib(256), kib(512), mib(1),   mib(4),   mib(16),  mib(27),
        mib(64),  mib(128), mib(365),
    };
}

} // namespace doppio::storage
