#include "reference_page_cache.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "trace/trace_collector.h"

namespace doppio::oscache {

ReferencePageCache::ReferencePageCache(sim::Simulator &simulator,
                                       const PageCacheConfig &config,
                                       DevicePicker hdfsPicker,
                                       DevicePicker localPicker,
                                       std::string name)
    : sim_(simulator), config_(config),
      pickers_{std::move(hdfsPicker), std::move(localPicker)},
      name_(std::move(name))
{
    config_.validate();
    if (!pickers_[0] || !pickers_[1])
        fatal("PageCache %s: missing device picker", name_.c_str());
}

ReferencePageCache::StreamKey
ReferencePageCache::makeKey(Role role, std::uint64_t stream)
{
    // Top bit distinguishes the roles; streams live below it.
    return (static_cast<StreamKey>(role) << 63) |
           (stream & ~(1ULL << 63));
}

Role
ReferencePageCache::roleOf(StreamKey key)
{
    return static_cast<Role>(key >> 63);
}

storage::DiskDevice &
ReferencePageCache::device(Role role)
{
    return pickers_[static_cast<std::size_t>(role)]();
}

Tick
ReferencePageCache::memcpyTicks(Bytes bytes) const
{
    return secondsToTicks(static_cast<double>(bytes) /
                          config_.memoryBandwidth);
}

Bytes
ReferencePageCache::dirtyLimit() const
{
    return static_cast<Bytes>(static_cast<double>(config_.capacity) *
                              config_.dirtyRatio);
}

Bytes
ReferencePageCache::dirtyBackground() const
{
    return static_cast<Bytes>(static_cast<double>(config_.capacity) *
                              config_.dirtyBackgroundRatio);
}

void
ReferencePageCache::reset()
{
    if (flushing_ || !waiters_.empty())
        fatal("PageCache %s: reset with writeback in flight",
              name_.c_str());
    streams_.clear();
    lru_.clear();
    dirtyList_.clear();
    nextOffset_.clear();
    cachedBytes_ = 0;
    dirtyBytes_ = 0;
    stats_.reset();
}

void
ReferencePageCache::setTrace(trace::TraceCollector *trace, int pid, int tid)
{
    trace_ = trace;
    tracePid_ = pid;
    traceTid_ = tid;
}

void
ReferencePageCache::traceSample(bool force)
{
    // Deterministic delta threshold: the counter series stays readable
    // and bounded on big runs without changing when samples land.
    const Bytes threshold =
        std::max<Bytes>(kMiB, config_.capacity / 512);
    const auto moved = [threshold](Bytes now, Bytes last) {
        return (now > last ? now - last : last - now) >= threshold;
    };
    if (!force && !moved(dirtyBytes_, traceDirty_) &&
        !moved(cachedBytes_, traceCached_))
        return;
    trace_->counter(tracePid_, "cache", name_ + "/dirty_bytes",
                    sim_.now(), static_cast<double>(dirtyBytes_));
    trace_->counter(tracePid_, "cache", name_ + "/cached_bytes",
                    sim_.now(), static_cast<double>(cachedBytes_));
    traceDirty_ = dirtyBytes_;
    traceCached_ = cachedBytes_;
}

Bytes
ReferencePageCache::dropForFailure()
{
    const Bytes lost = dirtyBytes_;
    streams_.clear();
    lru_.clear();
    dirtyList_.clear();
    nextOffset_.clear();
    cachedBytes_ = 0;
    dirtyBytes_ = 0;
    std::deque<Waiter> parked;
    parked.swap(waiters_);
    for (Waiter &waiter : parked) {
        if (waiter.done)
            sim_.schedule(0, std::move(waiter.done));
    }
    if (trace_) {
        trace_->instant(tracePid_, traceTid_, "cache",
                        "drop_for_failure", sim_.now(),
                        trace::TraceArgs().add("lost_dirty_bytes",
                                               lost));
        traceSample(true);
    }
    return lost;
}

Bytes
ReferencePageCache::residentBytes(StreamKey key, Bytes start, Bytes end)
{
    auto stream_it = streams_.find(key);
    if (stream_it == streams_.end())
        return 0;
    ExtentMap &extents = stream_it->second;
    Bytes resident = 0;
    auto it = extents.upper_bound(start);
    if (it != extents.begin())
        --it;
    for (; it != extents.end() && it->first < end; ++it) {
        const Bytes lo = std::max(it->first, start);
        const Bytes hi = std::min(it->second.end, end);
        if (lo >= hi)
            continue;
        resident += hi - lo;
        if (!it->second.dirty) {
            // Touch: move to the MRU end of the clean list.
            lru_.splice(lru_.end(), lru_, it->second.lruIt);
        }
    }
    return resident;
}

void
ReferencePageCache::addExtent(StreamKey key, Bytes start, Bytes end,
                              bool dirty, storage::IoOp op)
{
    if (start >= end)
        return;
    Extent extent;
    extent.end = end;
    extent.dirty = dirty;
    extent.op = op;
    auto [it, inserted] = streams_[key].emplace(start, extent);
    if (!inserted)
        fatal("PageCache %s: overlapping extent insert", name_.c_str());
    if (dirty) {
        dirtyList_.emplace_back(key, start);
        it->second.dirtyIt = std::prev(dirtyList_.end());
        dirtyBytes_ += end - start;
    } else {
        lru_.emplace_back(key, start);
        it->second.lruIt = std::prev(lru_.end());
    }
    cachedBytes_ += end - start;
}

void
ReferencePageCache::dropExtent(StreamKey key, ExtentMap::iterator it)
{
    const Bytes size = it->second.end - it->first;
    if (it->second.dirty) {
        dirtyList_.erase(it->second.dirtyIt);
        dirtyBytes_ -= size;
    } else {
        lru_.erase(it->second.lruIt);
    }
    cachedBytes_ -= size;
    streams_[key].erase(it);
}

void
ReferencePageCache::removeRange(StreamKey key, Bytes start, Bytes end)
{
    auto stream_it = streams_.find(key);
    if (stream_it == streams_.end())
        return;
    ExtentMap &extents = stream_it->second;
    // Collect overlap starts first: splitting mutates the map.
    std::vector<Bytes> overlaps;
    auto it = extents.upper_bound(start);
    if (it != extents.begin())
        --it;
    for (; it != extents.end() && it->first < end; ++it) {
        if (it->second.end > start)
            overlaps.push_back(it->first);
    }
    for (Bytes at : overlaps) {
        auto node = extents.find(at);
        const Bytes a = node->first;
        const Bytes b = node->second.end;
        const bool dirty = node->second.dirty;
        const storage::IoOp op = node->second.op;
        dropExtent(key, node);
        if (a < start)
            addExtent(key, a, start, dirty, op); // left residual
        if (b > end)
            addExtent(key, end, b, dirty, op); // right residual
    }
}

Bytes
ReferencePageCache::evictClean(Bytes need)
{
    Bytes freed = 0;
    while (freed < need && !lru_.empty()) {
        const ExtentRef victim = lru_.front();
        auto it = streams_[victim.first].find(victim.second);
        if (it == streams_[victim.first].end())
            fatal("PageCache %s: stale LRU entry", name_.c_str());
        const Bytes size = it->second.end - it->first;
        dropExtent(victim.first, it);
        freed += size;
        stats_.evictedBytes += size;
    }
    return freed;
}

void
ReferencePageCache::insertRange(StreamKey key, Bytes start, Bytes end,
                                bool dirty, storage::IoOp op)
{
    if (start >= end)
        return;
    if (dirty) {
        // Writes replace whatever they overlap (the page content
        // changes; pending writeback of the old data is superseded).
        removeRange(key, start, end);
        const Bytes need = end - start;
        if (cachedBytes_ + need > config_.capacity)
            evictClean(cachedBytes_ + need - config_.capacity);
        if (cachedBytes_ + need > config_.capacity)
            fatal("PageCache %s: dirty insert exceeds capacity",
                  name_.c_str());
        addExtent(key, start, end, true, op);
        return;
    }

    // Read fill: populate only the gaps so resident dirty (or clean)
    // data is never clobbered. Truncated silently when even eviction
    // cannot make room (the remainder simply stays uncached).
    std::vector<std::pair<Bytes, Bytes>> gaps;
    Bytes cursor = start;
    auto stream_it = streams_.find(key);
    if (stream_it != streams_.end()) {
        ExtentMap &extents = stream_it->second;
        auto it = extents.upper_bound(start);
        if (it != extents.begin())
            --it;
        for (; it != extents.end() && it->first < end; ++it) {
            if (it->second.end <= cursor)
                continue;
            if (it->first > cursor)
                gaps.emplace_back(cursor, std::min(it->first, end));
            cursor = std::max(cursor, it->second.end);
            if (cursor >= end)
                break;
        }
    }
    if (cursor < end)
        gaps.emplace_back(cursor, end);

    for (const auto &[lo, hi] : gaps) {
        const Bytes need = hi - lo;
        if (cachedBytes_ + need > config_.capacity)
            evictClean(cachedBytes_ + need - config_.capacity);
        const Bytes room = config_.capacity - cachedBytes_;
        addExtent(key, lo, lo + std::min(need, room), false, op);
    }
}

void
ReferencePageCache::read(Role role, storage::IoOp op, std::uint64_t stream,
                         Bytes offset, Bytes chunk, std::uint64_t count,
                         std::function<void()> done)
{
    const Bytes total = chunk * count;
    if (total == 0) {
        sim_.schedule(0, std::move(done));
        return;
    }
    const StreamKey key = makeKey(role, stream);
    ++stats_.reads;
    stats_.readBytes += total;

    const Bytes hit = residentBytes(key, offset, offset + total);
    const Bytes miss = total - hit;
    const bool sequential = [&] {
        auto it = nextOffset_.find(key);
        return it != nextOffset_.end() && it->second == offset;
    }();
    nextOffset_[key] = offset + total;

    if (miss == 0) {
        ++stats_.readFullHits;
        stats_.hitBytes += total;
        sim_.schedule(memcpyTicks(total), std::move(done));
        return;
    }
    stats_.hitBytes += hit;
    stats_.missBytes += miss;

    Bytes ahead = 0;
    if (sequential && config_.readAhead > 0) {
        ahead = config_.readAhead;
        stats_.readAheadBytes += ahead;
    }

    // Fetch the missing bytes (plus read-ahead) in chunk-sized device
    // requests, fill the cache, then charge the memory copy.
    const Bytes fetch = miss + ahead;
    const std::uint64_t requests = (fetch + chunk - 1) / chunk;
    device(role).submitBatch(
        op, chunk, requests,
        [this, key, op, offset, total, ahead,
         done = std::move(done)]() mutable {
            insertRange(key, offset, offset + total + ahead, false, op);
            if (trace_)
                traceSample(false);
            sim_.schedule(memcpyTicks(total), std::move(done));
        });
}

void
ReferencePageCache::write(Role role, storage::IoOp op, std::uint64_t stream,
                          Bytes offset, Bytes chunk, std::uint64_t count,
                          std::function<void()> done)
{
    const Bytes total = chunk * count;
    if (total == 0) {
        sim_.schedule(0, std::move(done));
        return;
    }
    ++stats_.writes;
    stats_.writeBytes += total;

    // Regime 4 (outside CAWL's three): a single write larger than the
    // whole dirty budget can never be absorbed — stream it around the
    // cache, as Linux effectively degrades to for giant writers.
    if (total > dirtyLimit()) {
        stats_.writeAroundBytes += total;
        device(role).submitBatch(op, chunk, count, std::move(done));
        return;
    }

    const StreamKey key = makeKey(role, stream);
    if (!waiters_.empty() || dirtyBytes_ + total > dirtyLimit()) {
        // Regime 3: blocked in balance_dirty_pages until the flusher
        // drains enough. FIFO behind earlier blocked writers.
        ++stats_.throttledWrites;
        if (trace_)
            trace_->instant(tracePid_, traceTid_, "cache", "throttle",
                            sim_.now(),
                            trace::TraceArgs()
                                .add("bytes", total)
                                .add("dirty_bytes", dirtyBytes_));
        waiters_.push_back(
            Waiter{role, op, key, offset, total, std::move(done)});
        maybeFlush();
        return;
    }
    stats_.absorbedBytes += total; // accepted without ever blocking
    acceptWrite(role, op, key, offset, total, std::move(done));
}

void
ReferencePageCache::acceptWrite(Role role, storage::IoOp op, StreamKey key,
                                Bytes offset, Bytes bytes,
                                std::function<void()> done)
{
    (void)role;
    // Regimes 1 and 2: the copy into dirty pages completes at memory
    // speed whether or not background writeback is running.
    insertRange(key, offset, offset + bytes, true, op);
    if (trace_)
        traceSample(false);
    sim_.schedule(memcpyTicks(bytes), std::move(done));
    maybeFlush();
}

void
ReferencePageCache::cleanOldest(Bytes bytes)
{
    while (bytes > 0 && !dirtyList_.empty()) {
        const ExtentRef ref = dirtyList_.front();
        auto it = streams_[ref.first].find(ref.second);
        if (it == streams_[ref.first].end())
            fatal("PageCache %s: stale dirty entry", name_.c_str());
        const Bytes start = it->first;
        const Bytes end = it->second.end;
        const Bytes size = end - start;
        const storage::IoOp op = it->second.op;
        dropExtent(ref.first, it);
        if (size <= bytes) {
            addExtent(ref.first, start, end, false, op);
            bytes -= size;
        } else {
            // Partial writeback: the flushed prefix becomes clean,
            // the rest stays dirty (re-queued at the back).
            addExtent(ref.first, start, start + bytes, false, op);
            addExtent(ref.first, start + bytes, end, true, op);
            bytes = 0;
        }
    }
}

void
ReferencePageCache::maybeFlush()
{
    if (flushing_ || dirtyList_.empty())
        return;
    if (dirtyBytes_ <= dirtyBackground() && waiters_.empty())
        return;

    // Coalesce the oldest dirty run (same device set and operation)
    // into one writeback request of at most flushChunk bytes — small
    // writes leave as few large sequential ones.
    const Role role = roleOf(dirtyList_.front().first);
    storage::IoOp op = storage::IoOp::RawWrite;
    Bytes batch = 0;
    for (const ExtentRef &ref : dirtyList_) {
        auto it = streams_[ref.first].find(ref.second);
        const storage::IoOp extent_op = it->second.op;
        if (batch == 0)
            op = extent_op;
        if (roleOf(ref.first) != role || extent_op != op)
            break;
        batch += it->second.end - it->first;
        if (batch >= config_.flushChunk) {
            batch = config_.flushChunk;
            break;
        }
    }

    flushing_ = true;
    ++stats_.flushRequests;
    stats_.flushedBytes += batch;
    const Tick started = sim_.now();
    device(role).submit(op, batch, [this, batch, started]() {
        flushing_ = false;
        cleanOldest(batch);
        admitWaiters();
        if (trace_) {
            trace_->span(tracePid_, traceTid_, "cache", "writeback",
                         started, sim_.now(),
                         trace::TraceArgs().add("bytes", batch));
            traceSample(false);
        }
        maybeFlush();
    });
}

void
ReferencePageCache::admitWaiters()
{
    while (!waiters_.empty() &&
           dirtyBytes_ + waiters_.front().bytes <= dirtyLimit()) {
        Waiter waiter = std::move(waiters_.front());
        waiters_.pop_front();
        acceptWrite(waiter.role, waiter.op, waiter.key, waiter.offset,
                    waiter.bytes, std::move(waiter.done));
    }
}

} // namespace doppio::oscache
