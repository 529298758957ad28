/**
 * @file
 * OS page-cache model: a per-node write-back buffer cache sitting
 * between the Spark I/O paths and the DiskDevice instances.
 *
 * On the paper's testbed every HDFS and spark.local.dir access went
 * through the Linux buffer cache (the authors flush it between
 * profiling runs), so *effective* I/O behaviour includes warm re-read
 * hits, small-write absorption, and dirty-page throttling. This model
 * reproduces those first-order effects:
 *
 *  - a byte-granular LRU read cache of configurable capacity (the
 *    "free" memory left next to the executor heap) with sequential
 *    read-ahead;
 *  - write-back semantics: writes complete at memory speed into dirty
 *    extents; a background flusher drains dirty bytes to the backing
 *    DiskDevice in coalesced flushChunk-sized requests through the
 *    existing fluid-shared transfer path; writers block on the
 *    simulated clock once dirty bytes exceed the dirty-ratio limit —
 *    the three write regimes of CAWL (memory-speed, flusher-paced,
 *    throttled);
 *  - hit/miss/absorbed/flushed statistics for model calibration.
 *
 * Cached data is addressed as (stream, byte-offset) ranges: a stream is
 * a caller-chosen 64-bit identity for a file-like object (an HDFS
 * input, one stage's persist space, one shuffle's files). Stream 0 is
 * reserved for "anonymous" traffic, which callers route around the
 * cache (direct I/O).
 */

#ifndef DOPPIO_OSCACHE_PAGE_CACHE_H
#define DOPPIO_OSCACHE_PAGE_CACHE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/sim_time.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "storage/disk_device.h"
#include "storage/io_request.h"

namespace doppio::trace {
class TraceCollector;
}

namespace doppio::oscache {

/** Which device set behind the node a cached range belongs to. */
enum class Role { Hdfs = 0, Local = 1 };

constexpr std::size_t kNumRoles = 2;

/** @return "hdfs" / "local". */
const char *roleName(Role role);

/** Stream id reserved for anonymous (uncacheable) traffic. */
constexpr std::uint64_t kAnonymousStream = 0;

/** Tunables of the page-cache model (vm.dirty_* analogues). */
struct PageCacheConfig
{
    /** Master switch; disabled preserves direct-to-device behaviour. */
    bool enabled = false;

    /**
     * Cache capacity in bytes. 0 means "auto": node RAM minus the
     * executor heap — the memory the OS actually has left for the
     * buffer cache on the paper's testbed (128 GB - 90 GB).
     */
    Bytes capacity = 0;

    /**
     * Memory copy bandwidth for cache hits and write absorption
     * (single-core memcpy incl. kernel/user crossing, not DRAM peak).
     */
    BytesPerSec memoryBandwidth = gibps(6.0);

    /**
     * Background writeback starts above this fraction of capacity
     * (vm.dirty_background_ratio). Below it, small writes are absorbed
     * without any device traffic.
     */
    double dirtyBackgroundRatio = 0.10;

    /**
     * Writers block once dirty bytes would exceed this fraction of
     * capacity (vm.dirty_ratio; CAWL's throttled regime).
     */
    double dirtyRatio = 0.20;

    /** Sequential read-ahead window (0 disables). */
    Bytes readAhead = 4 * kMiB;

    /**
     * Writeback request size: the flusher coalesces adjacent dirty
     * bytes into device requests up to this size — the mechanism that
     * turns many small shuffle writes into few large sequential ones.
     */
    Bytes flushChunk = kMiB;

    /** Fatal on non-sensical parameters (called by PageCache). */
    void validate() const;
};

/** Counters accumulated by one PageCache instance. */
struct PageCacheStats
{
    std::uint64_t reads = 0;        //!< read() calls
    std::uint64_t readFullHits = 0; //!< reads served entirely from memory
    std::uint64_t writes = 0;       //!< write() calls
    std::uint64_t throttledWrites = 0; //!< writes that blocked on dirty limit
    std::uint64_t flushRequests = 0;   //!< device requests issued by flusher

    Bytes readBytes = 0;      //!< logical bytes requested by reads
    Bytes hitBytes = 0;       //!< read bytes served from cache
    Bytes missBytes = 0;      //!< read bytes fetched from the device
    Bytes readAheadBytes = 0; //!< extra bytes prefetched sequentially
    Bytes writeBytes = 0;     //!< logical bytes written
    Bytes absorbedBytes = 0;  //!< write bytes accepted at memory speed
    Bytes writeAroundBytes = 0; //!< oversize writes sent straight to disk
    Bytes flushedBytes = 0;   //!< dirty bytes drained to the device
    Bytes evictedBytes = 0;   //!< clean bytes dropped by LRU eviction

    /** @return hit fraction of logical read bytes (0 when no reads). */
    double hitRatio() const;

    void reset();

    PageCacheStats &operator+=(const PageCacheStats &other);
};

/**
 * One node's page cache, fronting both of the node's device sets.
 * All methods must be called from simulation context.
 */
class PageCache
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
    PageCache(sim::Simulator &simulator, const PageCacheConfig &config,
              DevicePicker hdfsPicker, DevicePicker localPicker,
              std::string name);

    // The chains point into the extent maps: not copyable.
    PageCache(const PageCache &) = delete;
    PageCache &operator=(const PageCache &) = delete;

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

    /**
     * One cached range [self->first, end) of one stream. It sits on
     * exactly one chain through its own links: the clean LRU when
     * clean, the dirty FIFO when dirty. It also knows its stream, the
     * map that holds it and its own node there, so the writeback,
     * eviction and touch paths follow pointers instead of looking the
     * range up again.
     */
    struct Extent
    {
        Bytes end = 0;    //!< one past the last cached byte
        bool dirty = false;
        storage::IoOp op = storage::IoOp::RawWrite; //!< writeback op
        StreamKey key = 0;          //!< owning stream (role bit included)
        ExtentMap *owner = nullptr; //!< the map holding this node
        ExtentMap::iterator self;   //!< this node in *owner
        Extent *prev = nullptr;     //!< chain neighbours
        Extent *next = nullptr;
    };

    /** Intrusive doubly-linked list of extents, oldest at the head. */
    struct Chain
    {
        Extent *head = nullptr;
        Extent *tail = nullptr;

        bool empty() const { return head == nullptr; }
        void pushBack(Extent &extent);
        void unlink(Extent &extent);
        void clear() { head = tail = nullptr; }
    };

    /** A writer parked on the dirty limit. */
    struct Waiter
    {
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

    /** Remove [start, end) of one stream (helper of insertRange). */
    void removeRange(ExtentMap &extents, Bytes start, Bytes end);

    /**
     * Insert [start, end) of stream @p key into @p extents (its map)
     * next to @p hint, then link it (see link()).
     */
    void addExtent(ExtentMap &extents, ExtentMap::const_iterator hint,
                   StreamKey key, Bytes start, Bytes end, bool dirty,
                   storage::IoOp op);

    /** Append @p extent to the tail of its chain and count its bytes. */
    void link(Extent &extent);

    /** Take @p extent off its chain and uncount its bytes. */
    void unlink(Extent &extent);

    /** Unlink @p extent and free its node. */
    void dropExtent(Extent &extent);

    /** Fatal unless @p extent is a live chain head of the given
     *  dirtiness: no predecessor, and its self iterator points back
     *  to it (@p what names the chain in the message). */
    void checkHead(const Extent &extent, bool dirty,
                   const char *what) const;

    /** Fatal when the byte counters break the capacity bounds. */
    void checkBounds() const;

    /** Evict clean LRU extents until @p need bytes are free (best
     *  effort). @return bytes actually freed. */
    Bytes evictClean(Bytes need);

    /** Accept an admitted write: dirty the range, charge the memcpy. */
    void acceptWrite(storage::IoOp op, StreamKey key, Bytes offset,
                     Bytes bytes, std::function<void()> done);

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
    Chain lru_;
    /// Dirty extents, oldest first (writeback order).
    Chain dirtyList_;
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

#endif // DOPPIO_OSCACHE_PAGE_CACHE_H
