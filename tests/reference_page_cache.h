/**
 * @file
 * Reference page cache for differential tests of oscache::PageCache.
 *
 * The LRU list and dirty FIFO hold (stream, offset) keys into the
 * per-stream extent maps, and writeback re-creates extents instead of
 * splitting them in place. Not linked into any library.
 */

#ifndef DOPPIO_TESTS_REFERENCE_PAGE_CACHE_H
#define DOPPIO_TESTS_REFERENCE_PAGE_CACHE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/sim_time.h"
#include "common/units.h"
#include "oscache/page_cache.h"
#include "sim/simulator.h"
#include "storage/disk_device.h"
#include "storage/io_request.h"

namespace doppio::oscache {

/**
 * The page cache that PageCache replaced, kept verbatim as a test
 * oracle: the LRU and dirty lists hold (stream, offset) keys, so every
 * flush, clean, eviction and read-hit touch re-finds its extent in the
 * extent maps. Same public surface as PageCache.
 * All methods must be called from simulation context.
 */
class ReferencePageCache
{
  public:
    /** Supplies the next backing device (the node's round-robin). */
    using DevicePicker = std::function<storage::DiskDevice &()>;

    /**
     * @param simulator   owning event loop.
     * @param config      validated tunables (capacity must be > 0 here;
     *                    "auto" is resolved by the owner).
     * @param hdfsPicker  backing devices for Role::Hdfs.
     * @param localPicker backing devices for Role::Local.
     * @param name        instance name, e.g. "node3/pagecache".
     */
    ReferencePageCache(sim::Simulator &simulator,
                       const PageCacheConfig &config, DevicePicker hdfsPicker,
                       DevicePicker localPicker, std::string name);

    /**
     * Read @p count chunks of @p chunk bytes at @p offset of
     * @p stream. Resident bytes are served at memory speed; missing
     * bytes (plus sequential read-ahead) are fetched from the backing
     * device in @p chunk-sized requests and inserted into the cache.
     * @p done fires after the device fetch (if any) and the memory
     * copy complete.
     */
    void read(Role role, storage::IoOp op, std::uint64_t stream,
              Bytes offset, Bytes chunk, std::uint64_t count,
              std::function<void()> done);

    /**
     * Write @p count chunks of @p chunk bytes at @p offset of
     * @p stream. Completes at memory speed into dirty extents unless
     * admission would push dirty bytes past the dirty-ratio limit, in
     * which case the writer blocks until the flusher has drained
     * enough. Writes larger than the whole dirty limit bypass the
     * cache (write-around). @p done fires when the data is accepted
     * (durable on device only after writeback).
     */
    void write(Role role, storage::IoOp op, std::uint64_t stream,
               Bytes offset, Bytes chunk, std::uint64_t count,
               std::function<void()> done);

    const PageCacheStats &stats() const { return stats_; }
    Bytes capacity() const { return config_.capacity; }
    Bytes cachedBytes() const { return cachedBytes_; }
    Bytes dirtyBytes() const { return dirtyBytes_; }

    /** Dirty-bytes level above which writers block. */
    Bytes dirtyLimit() const;

    /** Dirty-bytes level above which background writeback runs. */
    Bytes dirtyBackground() const;

    const std::string &name() const { return name_; }

    /**
     * Attach an optional trace collector (non-owning; may be null).
     * The cache then emits dirty/cached byte counters on process
     * @p pid (rate-limited by a deterministic delta threshold),
     * writeback spans and throttle instants on track (@p pid, @p tid).
     */
    void setTrace(trace::TraceCollector *trace, int pid, int tid);

    /**
     * Drop all cached contents, pending state and statistics — the
     * "echo 3 > /proc/sys/vm/drop_caches" the paper's authors run
     * between profiling runs. Must not be called while I/O through the
     * cache is in flight.
     */
    void reset();

    /**
     * Node-failure loss: discard every cached extent, including dirty
     * ones that were never written back (lost writes). Unlike
     * reset(), this is safe while I/O through the cache is in flight:
     * parked writers complete immediately (their data is lost either
     * way) and an in-flight writeback callback finds an empty dirty
     * list. Statistics survive — they feed the run's report.
     * @return the dirty bytes lost.
     */
    Bytes dropForFailure();

  private:
    /** Key of one cached stream: role in the top bit, stream below. */
    using StreamKey = std::uint64_t;

    struct Extent;
    /// Extents of one stream, keyed by start offset (non-overlapping).
    using ExtentMap = std::map<Bytes, Extent>;
    /// (stream, start-offset) reference into the extent maps.
    using ExtentRef = std::pair<StreamKey, Bytes>;

    struct Extent
    {
        Bytes end = 0;    //!< one past the last cached byte
        bool dirty = false;
        storage::IoOp op = storage::IoOp::RawWrite; //!< writeback op
        std::list<ExtentRef>::iterator lruIt;   //!< valid when clean
        std::list<ExtentRef>::iterator dirtyIt; //!< valid when dirty
    };

    /** A writer parked on the dirty limit. */
    struct Waiter
    {
        Role role;
        storage::IoOp op;
        StreamKey key;
        Bytes offset = 0;
        Bytes bytes = 0;
        std::function<void()> done;
    };

    static StreamKey makeKey(Role role, std::uint64_t stream);
    static Role roleOf(StreamKey key);

    storage::DiskDevice &device(Role role);
    Tick memcpyTicks(Bytes bytes) const;

    /** @return bytes of [start, end) resident, touching clean LRU. */
    Bytes residentBytes(StreamKey key, Bytes start, Bytes end);

    /**
     * Make [start, end) resident with the given dirtiness, splitting /
     * replacing overlapped extents and evicting clean LRU bytes as
     * needed. Clean inserts that cannot fit are silently truncated.
     */
    void insertRange(StreamKey key, Bytes start, Bytes end, bool dirty,
                     storage::IoOp op);

    /** Remove [start, end) from the cache (helper of insertRange). */
    void removeRange(StreamKey key, Bytes start, Bytes end);

    /** Insert one extent node and its LRU/dirty-list membership. */
    void addExtent(StreamKey key, Bytes start, Bytes end, bool dirty,
                   storage::IoOp op);

    /** Drop one whole clean extent (LRU victim or removeRange). */
    void dropExtent(StreamKey key, ExtentMap::iterator it);

    /** Evict clean LRU extents until @p need bytes are free (best
     *  effort). @return bytes actually freed. */
    Bytes evictClean(Bytes need);

    /** Accept an admitted write: dirty the range, charge the memcpy. */
    void acceptWrite(Role role, storage::IoOp op, StreamKey key,
                     Bytes offset, Bytes bytes,
                     std::function<void()> done);

    /** Mark the oldest @p bytes dirty bytes clean (writeback done). */
    void cleanOldest(Bytes bytes);

    /** Start a writeback request if one is due and none is in flight. */
    void maybeFlush();

    /** Admit parked writers that now fit under the dirty limit. */
    void admitWaiters();

    /**
     * Emit dirty/cached counter samples when either moved by at least
     * the delta threshold since the last sample (or on @p force).
     */
    void traceSample(bool force);

    sim::Simulator &sim_;
    PageCacheConfig config_;
    DevicePicker pickers_[kNumRoles];
    std::string name_;

    std::unordered_map<StreamKey, ExtentMap> streams_;
    /// Clean extents, least recently used first.
    std::list<ExtentRef> lru_;
    /// Dirty extents, oldest first (writeback order).
    std::list<ExtentRef> dirtyList_;
    /// Sequential-read detector: next expected offset per stream.
    std::unordered_map<StreamKey, Bytes> nextOffset_;
    std::deque<Waiter> waiters_;
    Bytes cachedBytes_ = 0;
    Bytes dirtyBytes_ = 0;
    bool flushing_ = false;
    PageCacheStats stats_;
    /// Optional telemetry hook (non-owning) and its track ids.
    trace::TraceCollector *trace_ = nullptr;
    int tracePid_ = 0;
    int traceTid_ = 0;
    /// Last counter values emitted (rate limiting, tracing only).
    Bytes traceDirty_ = 0;
    Bytes traceCached_ = 0;
};

} // namespace doppio::oscache

#endif // DOPPIO_TESTS_REFERENCE_PAGE_CACHE_H
