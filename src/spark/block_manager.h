/**
 * @file
 * RDD storage accounting: legacy all-or-nothing and unified per-block.
 *
 * Legacy mode (the paper's original treatment, §III-B2): when a
 * persisted RDD is first materialized it either fits whole in the
 * cluster's static RDD storage memory (storageFraction x executor
 * memory x slaves) or falls back whole to the Spark local disks —
 * "large RDDs NOT cacheable in memory", e.g. LR's 990 GB parsedData
 * "will be put in Spark Local".
 *
 * Unified mode (SparkConf::unifiedMemory, Spark 1.6 semantics): each
 * partition becomes a block on its home node's MemoryManager. Caching
 * beyond capacity evicts colder blocks LRU-first; an evicted
 * MEMORY_AND_DISK block streams to the node's local disk through the
 * page cache (real device traffic at the disk-store request size) and
 * is later read back with PersistRead, while an evicted MEMORY_ONLY
 * block is dropped and recomputed from lineage on next access.
 * Execution memory (shuffle sorts, aggregations) borrows from storage
 * through the same managers — see MemoryManager for the pool rules.
 *
 * Both modes track which shuffle outputs already exist on the local
 * disks: a later job whose lineage crosses an already-written shuffle
 * skips the map stage and re-reads the shuffle files, exactly as Spark
 * skips completed ShuffleMapStages (this is why GATK4's SF stage
 * re-reads the 334 GB shuffle without re-writing it — Table IV).
 */

#ifndef DOPPIO_SPARK_BLOCK_MANAGER_H
#define DOPPIO_SPARK_BLOCK_MANAGER_H

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "common/units.h"
#include "spark/memory_manager.h"
#include "spark/metrics.h"
#include "spark/rdd.h"
#include "spark/spark_conf.h"

namespace doppio::trace {
class TraceCollector;
}

namespace doppio::spark {

/** Tracks materialized RDDs and shuffle outputs. */
class BlockManager
{
  public:
    /** Where a materialized RDD lives (legacy all-or-nothing mode). */
    enum class Placement { Unmaterialized, Memory, Disk };

    /** Where one partition's block lives (unified mode). */
    enum class BlockState { Memory, Disk, Dropped };

    /** Per-state partition counts of a materialized RDD. */
    struct ReadPlan
    {
        int total = 0;
        int cached = 0;  //!< in executor memory: read for free
        int disk = 0;    //!< on the local disks: PersistRead
        int missing = 0; //!< dropped: recompute from lineage
    };

    /**
     * Legacy constructor (all-or-nothing placement).
     * @param storageMemory   cluster-wide RDD cache capacity in bytes.
     * @param expansionFactor default serialized->in-memory expansion.
     */
    BlockManager(Bytes storageMemory, double expansionFactor);

    /**
     * Mode-selecting constructor: unified per-block management when
     * @p conf.unifiedMemory is set (one MemoryManager per node, pool =
     * executor memory x spark.memory.fraction; registers cluster
     * liveness and memory observers), otherwise exactly the legacy
     * behaviour with capacity = @p clusterRef.totalStorageMemory().
     * @p clusterRef and @p conf must outlive the manager.
     */
    BlockManager(cluster::Cluster &clusterRef, const SparkConf &conf);

    ~BlockManager();

    /** @return true when running unified per-block management. */
    bool unified() const { return unified_; }

    // ------------------------------------------------------------------
    // Legacy all-or-nothing interface.

    /** @return current placement of @p rdd. */
    Placement placementOf(const Rdd *rdd) const;

    /**
     * Decide placement for a persisted RDD being materialized now.
     * Memory-capable levels get Memory iff the in-memory footprint
     * fits in the remaining capacity; MemoryAndDisk/DiskOnly fall back
     * to Disk; MemoryOnly that does not fit stays Unmaterialized
     * (recompute on next use). Idempotent for already-placed RDDs.
     */
    Placement materialize(const Rdd &rdd);

    /** Drop a materialized RDD, freeing memory if it was cached. */
    void unpersist(const Rdd *rdd);

    /** @return true when @p rdd's shuffle files are on local disks. */
    bool shuffleAvailable(const Rdd *rdd) const;

    /** Record that @p rdd's map stage has written its shuffle files. */
    void markShuffleAvailable(const Rdd *rdd);

    /** @return true when @p rdd's checkpoint is on HDFS. */
    bool checkpointAvailable(const Rdd *rdd) const;

    /** Record that @p rdd's partitions were checkpointed to HDFS. */
    void markCheckpointed(const Rdd *rdd);

    /** @return bytes of storage memory currently in use. */
    Bytes memoryUsed() const;

    /** @return total storage memory capacity. */
    Bytes capacity() const;

    // ------------------------------------------------------------------
    // Unified per-block interface (valid only when unified()).

    /** @return true when @p rdd has been materialized per-block. */
    bool tracked(const Rdd *rdd) const;

    /**
     * Materialize a persisted RDD per partition: partition p lands on
     * the p-th alive node (round-robin). Memory-capable levels try the
     * node's pool, evicting colder blocks LRU-first (see
     * handleEvictions for what happens to them); a partition that does
     * not fit goes to Disk (MEMORY_AND_DISK, DISK_ONLY) or Dropped
     * (MEMORY_ONLY). @return the resulting counts; the DAG scheduler
     * turns the disk share into PersistWrite phases. Idempotent.
     */
    ReadPlan materializeUnified(const Rdd &rdd);

    /** @return per-state partition counts for a tracked RDD. */
    ReadPlan readPlan(const Rdd *rdd) const;

    /** Refresh LRU recency of @p rdd's cached blocks (a cached read). */
    void touchRdd(const Rdd *rdd);

    /**
     * Re-cache @p rdd's dropped partitions after the scheduler emitted
     * their recompute groups: each counts one lineage recomputation and
     * re-enters its home node's pool if it now fits; a MEMORY_AND_DISK
     * partition that does not fit lands on disk (with the write
     * traffic), a MEMORY_ONLY one stays dropped.
     */
    void recacheMissing(const Rdd &rdd);

    /**
     * Reserve execution memory on @p node for one task (shuffle sort
     * buffers, aggregation maps); evicted blocks are written out or
     * dropped per their storage level. @return granted bytes in
     * [0, want] — the task engine spills the shortfall and treats a
     * zero grant as an OOM.
     */
    Bytes acquireExecution(int node, Bytes want, int activeTasks);

    /** Return execution memory to @p node's pool. */
    void releaseExecution(int node, Bytes bytes);

    /** Mutable unified counters (the task engine's spill/OOM tallies). */
    MemoryMetrics &memoryCounters() { return memory_; }

    /**
     * @return unified totals with the per-node pool sizes and peaks
     *         folded in (all-zero in legacy mode).
     */
    MemoryMetrics memoryMetrics() const;

    /** Direct pool access (tests). */
    MemoryManager &nodeMemory(int node);

    /**
     * Attach a telemetry collector (or nullptr to detach; not owned).
     * Unified mode then emits eviction/drop instants and per-node
     * execution/storage pool counters on each pool transition; legacy
     * mode has no simulator clock to stamp events with, so the
     * collector is ignored there.
     */
    void setTraceCollector(trace::TraceCollector *collector);

    /**
     * Forget all placements, blocks and shuffle availability so
     * back-to-back runs start cold. Pool clamps (degrade-mem) reset
     * too.
     */
    void reset();

  private:
    /** One tracked partition block (unified mode). */
    struct BlockInfo
    {
        const Rdd *rdd = nullptr;
        int partition = 0;
        int node = 0;
        BlockState state = BlockState::Memory;
        /** Pool id while state == Memory. */
        MemoryManager::BlockId id = 0;
    };

    /** Per-RDD unified state: one BlockInfo per partition. The
     *  tracked RDD stays alive until unpersist()/reset(), since an
     *  eviction reads its sizes long after its job may have dropped
     *  the lineage. */
    struct RddBlocks
    {
        std::shared_ptr<const Rdd> owner;
        std::vector<BlockInfo> partitions;
    };

    /**
     * React to pool evictions: a MEMORY_AND_DISK block moves to disk
     * (streaming its serialized form through the node's page cache to
     * the local device), a MEMORY_ONLY block is dropped for recompute.
     */
    void handleEvictions(
        const std::vector<MemoryManager::BlockId> &evicted);

    /** Issue the device write of @p info's serialized partition. */
    void writeBlockToDisk(const BlockInfo &info);

    /** Node death: every block homed there is lost (memory and disk). */
    void onNodeDown(int node);

    /** @return the home node for partition @p partition right now. */
    int homeNode(int partition) const;

    /** Emit @p node's execution/storage pool counters (tracing). */
    void tracePoolSample(int node);

    bool unified_ = false;
    cluster::Cluster *cluster_ = nullptr;
    const SparkConf *conf_ = nullptr;
    trace::TraceCollector *collector_ = nullptr;

    // Legacy state.
    Bytes capacity_ = 0;
    double expansionFactor_ = 1.0;
    Bytes memoryUsed_ = 0;
    std::unordered_map<const Rdd *, Placement> placements_;

    // Shared state.
    std::unordered_set<const Rdd *> shuffles_;
    std::unordered_set<const Rdd *> checkpointed_;

    // Unified state.
    std::vector<MemoryManager> pools_;
    std::unordered_map<const Rdd *, RddBlocks> rdds_;
    /** Pool id -> owning (rdd, partition), for eviction callbacks. */
    std::unordered_map<MemoryManager::BlockId,
                       std::pair<const Rdd *, int>>
        blockIndex_;
    MemoryManager::BlockId nextBlockId_ = 1;
    MemoryMetrics memory_;
    /**
     * Liveness guard for the cluster observers: the cluster may
     * outlive this manager (back-to-back contexts on one cluster), so
     * the registered lambdas check the flag before touching `this`.
     */
    std::shared_ptr<bool> aliveFlag_;
};

} // namespace doppio::spark

#endif // DOPPIO_SPARK_BLOCK_MANAGER_H
