#include "spark/block_manager.h"

#include <algorithm>

#include "common/logging.h"
#include "spark/stage_spec.h"
#include "trace/trace_collector.h"

namespace doppio::spark {

namespace {

/**
 * In-memory bytes of one partition block (the deserialized form the
 * executor holds, at least one byte so empty partitions still occupy
 * a block entry).
 */
Bytes
memoryBytesPerPartition(const Rdd &rdd, double expansionFactor)
{
    const Bytes footprint = rdd.memoryFootprint(expansionFactor);
    const Bytes per = footprint / static_cast<Bytes>(
        std::max(1, rdd.numPartitions));
    return std::max<Bytes>(1, per);
}

} // namespace

BlockManager::BlockManager(Bytes storageMemory, double expansionFactor)
    : capacity_(storageMemory), expansionFactor_(expansionFactor)
{
    if (expansionFactor_ <= 0.0)
        fatal("BlockManager: expansion factor must be positive");
}

BlockManager::BlockManager(cluster::Cluster &clusterRef,
                           const SparkConf &conf)
    : BlockManager(clusterRef.totalStorageMemory(),
                   conf.memoryExpansionFactor)
{
    if (!conf.unifiedMemory)
        return;
    unified_ = true;
    cluster_ = &clusterRef;
    conf_ = &conf;
    const Bytes pool = static_cast<Bytes>(
        static_cast<double>(clusterRef.config().node.executorMemory) *
        conf.memoryFraction);
    pools_.reserve(static_cast<std::size_t>(clusterRef.numSlaves()));
    for (int n = 0; n < clusterRef.numSlaves(); ++n)
        pools_.emplace_back(pool, conf.memoryStorageFraction);

    aliveFlag_ = std::make_shared<bool>(true);
    std::shared_ptr<bool> alive = aliveFlag_;
    cluster_->addLivenessObserver([this, alive](int node, bool up) {
        if (!*alive || up)
            return;
        onNodeDown(node);
    });
    // degrade-mem faults clamp the node's pool; blocks beyond the new
    // capacity evict immediately (kernel reclaim under pressure).
    cluster_->addMemoryObserver([this, alive](int node, double fraction) {
        if (!*alive)
            return;
        std::vector<MemoryManager::BlockId> evicted;
        pools_[static_cast<std::size_t>(node)].setPoolFraction(
            fraction, &evicted);
        handleEvictions(evicted);
    });
}

BlockManager::~BlockManager()
{
    if (aliveFlag_)
        *aliveFlag_ = false;
}

BlockManager::Placement
BlockManager::placementOf(const Rdd *rdd) const
{
    auto it = placements_.find(rdd);
    return it == placements_.end() ? Placement::Unmaterialized
                                   : it->second;
}

BlockManager::Placement
BlockManager::materialize(const Rdd &rdd)
{
    const Placement existing = placementOf(&rdd);
    if (existing != Placement::Unmaterialized)
        return existing;
    if (rdd.storageLevel == StorageLevel::None)
        return Placement::Unmaterialized;

    Placement placement = Placement::Unmaterialized;
    if (rdd.storageLevel == StorageLevel::DiskOnly) {
        placement = Placement::Disk;
    } else {
        const Bytes footprint = rdd.memoryFootprint(expansionFactor_);
        if (memoryUsed_ + footprint <= capacity_) {
            memoryUsed_ += footprint;
            placement = Placement::Memory;
        } else if (rdd.storageLevel == StorageLevel::MemoryAndDisk) {
            placement = Placement::Disk;
        } else {
            // MEMORY_ONLY that does not fit: stays unmaterialized and
            // will be recomputed on each use.
            return Placement::Unmaterialized;
        }
    }
    placements_[&rdd] = placement;
    return placement;
}

void
BlockManager::unpersist(const Rdd *rdd)
{
    auto it = placements_.find(rdd);
    if (it != placements_.end()) {
        if (it->second == Placement::Memory) {
            const Bytes footprint =
                rdd->memoryFootprint(expansionFactor_);
            memoryUsed_ = footprint <= memoryUsed_
                              ? memoryUsed_ - footprint
                              : 0;
        }
        placements_.erase(it);
    }
    if (!unified_)
        return;
    auto blocks = rdds_.find(rdd);
    if (blocks == rdds_.end())
        return;
    for (BlockInfo &info : blocks->second.partitions) {
        if (info.state != BlockState::Memory)
            continue;
        pools_[static_cast<std::size_t>(info.node)].dropBlock(info.id);
        blockIndex_.erase(info.id);
    }
    rdds_.erase(blocks);
}

bool
BlockManager::shuffleAvailable(const Rdd *rdd) const
{
    return shuffles_.count(rdd) != 0;
}

void
BlockManager::markShuffleAvailable(const Rdd *rdd)
{
    shuffles_.insert(rdd);
}

bool
BlockManager::checkpointAvailable(const Rdd *rdd) const
{
    return checkpointed_.count(rdd) != 0;
}

void
BlockManager::markCheckpointed(const Rdd *rdd)
{
    checkpointed_.insert(rdd);
}

Bytes
BlockManager::memoryUsed() const
{
    if (!unified_)
        return memoryUsed_;
    Bytes used = 0;
    for (const MemoryManager &pool : pools_)
        used += pool.storageUsed();
    return used;
}

Bytes
BlockManager::capacity() const
{
    if (!unified_)
        return capacity_;
    Bytes total = 0;
    for (const MemoryManager &pool : pools_)
        total += pool.poolSize();
    return total;
}

bool
BlockManager::tracked(const Rdd *rdd) const
{
    return rdds_.count(rdd) != 0;
}

int
BlockManager::homeNode(int partition) const
{
    const std::vector<int> alive = cluster_->aliveNodes();
    if (alive.empty())
        fatal("BlockManager: no alive node to place a block on");
    return alive[static_cast<std::size_t>(partition) % alive.size()];
}

BlockManager::ReadPlan
BlockManager::materializeUnified(const Rdd &rdd)
{
    if (!unified_)
        fatal("BlockManager: materializeUnified in legacy mode");
    if (tracked(&rdd))
        return readPlan(&rdd);

    const Bytes mem_per = memoryBytesPerPartition(rdd, expansionFactor_);
    // Register the block table before placing anything: caching
    // partition N may evict an earlier partition of this same RDD, and
    // handleEvictions must be able to find it.
    RddBlocks &blocks = rdds_[&rdd];
    blocks.owner = rdd.shared_from_this();
    blocks.partitions.resize(
        static_cast<std::size_t>(std::max(0, rdd.numPartitions)));
    for (int p = 0; p < rdd.numPartitions; ++p) {
        BlockInfo &info =
            blocks.partitions[static_cast<std::size_t>(p)];
        info.rdd = &rdd;
        info.partition = p;
        info.node = homeNode(p);
        if (rdd.storageLevel == StorageLevel::DiskOnly) {
            info.state = BlockState::Disk;
            continue;
        }
        const MemoryManager::BlockId id = nextBlockId_++;
        blockIndex_.emplace(id, std::make_pair(&rdd, p));
        info.state = BlockState::Memory;
        info.id = id;
        std::vector<MemoryManager::BlockId> evicted;
        const bool fits =
            pools_[static_cast<std::size_t>(info.node)].putBlock(
                id, mem_per, &evicted);
        handleEvictions(evicted);
        if (!fits) {
            blockIndex_.erase(id);
            info.id = 0;
            info.state = rdd.storageLevel == StorageLevel::MemoryAndDisk
                             ? BlockState::Disk
                             : BlockState::Dropped;
        }
    }
    return readPlan(&rdd);
}

BlockManager::ReadPlan
BlockManager::readPlan(const Rdd *rdd) const
{
    ReadPlan plan;
    auto it = rdds_.find(rdd);
    if (it == rdds_.end())
        return plan;
    for (const BlockInfo &info : it->second.partitions) {
        ++plan.total;
        switch (info.state) {
          case BlockState::Memory:
            ++plan.cached;
            break;
          case BlockState::Disk:
            ++plan.disk;
            break;
          case BlockState::Dropped:
            ++plan.missing;
            break;
        }
    }
    return plan;
}

void
BlockManager::touchRdd(const Rdd *rdd)
{
    auto it = rdds_.find(rdd);
    if (it == rdds_.end())
        return;
    for (const BlockInfo &info : it->second.partitions) {
        if (info.state == BlockState::Memory)
            pools_[static_cast<std::size_t>(info.node)].touchBlock(
                info.id);
    }
}

void
BlockManager::recacheMissing(const Rdd &rdd)
{
    auto it = rdds_.find(&rdd);
    if (it == rdds_.end())
        return;
    const Bytes mem_per = memoryBytesPerPartition(rdd, expansionFactor_);
    for (BlockInfo &info : it->second.partitions) {
        if (info.state != BlockState::Dropped)
            continue;
        ++memory_.recomputedPartitions;
        info.node = homeNode(info.partition);
        const MemoryManager::BlockId id = nextBlockId_++;
        blockIndex_.emplace(id, std::make_pair(&rdd, info.partition));
        std::vector<MemoryManager::BlockId> evicted;
        const bool fits =
            pools_[static_cast<std::size_t>(info.node)].putBlock(
                id, mem_per, &evicted);
        handleEvictions(evicted);
        if (fits) {
            info.state = BlockState::Memory;
            info.id = id;
            continue;
        }
        blockIndex_.erase(id);
        if (rdd.storageLevel == StorageLevel::MemoryOnly)
            continue; // stays dropped: recomputed again on next use
        info.state = BlockState::Disk;
        writeBlockToDisk(info);
    }
}

Bytes
BlockManager::acquireExecution(int node, Bytes want, int activeTasks)
{
    if (!unified_)
        return want; // no pool model: everything is granted
    std::vector<MemoryManager::BlockId> evicted;
    const Bytes grant =
        pools_[static_cast<std::size_t>(node)].acquireExecution(
            want, activeTasks, &evicted);
    handleEvictions(evicted);
    if (collector_ != nullptr)
        tracePoolSample(node);
    return grant;
}

void
BlockManager::releaseExecution(int node, Bytes bytes)
{
    if (!unified_)
        return;
    pools_[static_cast<std::size_t>(node)].releaseExecution(bytes);
    if (collector_ != nullptr)
        tracePoolSample(node);
}

void
BlockManager::handleEvictions(
    const std::vector<MemoryManager::BlockId> &evicted)
{
    for (const MemoryManager::BlockId id : evicted) {
        auto indexed = blockIndex_.find(id);
        if (indexed == blockIndex_.end())
            panic("BlockManager: evicted unknown block %llu",
                  static_cast<unsigned long long>(id));
        const auto [rdd, partition] = indexed->second;
        blockIndex_.erase(indexed);
        BlockInfo &info =
            rdds_.at(rdd).partitions[static_cast<std::size_t>(
                partition)];
        ++memory_.evictedBlocks;
        memory_.evictedBytes +=
            memoryBytesPerPartition(*rdd, expansionFactor_);
        if (rdd->storageLevel == StorageLevel::MemoryAndDisk) {
            info.state = BlockState::Disk;
            writeBlockToDisk(info);
        } else {
            // MEMORY_ONLY: dropped, recomputed from lineage on the
            // next access.
            info.state = BlockState::Dropped;
            ++memory_.droppedBlocks;
        }
        if (collector_ != nullptr) {
            collector_->instant(
                trace::nodePid(info.node), trace::kTidMemory,
                "memory",
                info.state == BlockState::Disk ? "evict_to_disk"
                                               : "drop_block",
                cluster_->simulator().now(),
                trace::TraceArgs()
                    .add("rdd", rdd->name)
                    .add("partition", partition));
            tracePoolSample(info.node);
        }
    }
}

void
BlockManager::writeBlockToDisk(const BlockInfo &info)
{
    const Bytes serialized = info.rdd->bytesPerPartition();
    if (serialized == 0 || !cluster_->nodeAlive(info.node))
        return;
    memory_.evictedToDiskBytes += serialized;
    // Same stream/offset layout as the PersistRead phases the DAG
    // scheduler emits for disk blocks, so the later read-back finds
    // these extents in the page cache when they have not been evicted.
    IoPhaseSpec shape;
    shape.op = storage::IoOp::PersistWrite;
    shape.bytesPerTask = serialized;
    const std::uint64_t stream = cacheStreamFor(shape);
    const Bytes preferred = std::min<Bytes>(
        serialized, std::max<Bytes>(1, conf_->diskStoreRequestSize));
    const std::uint64_t count = std::max<std::uint64_t>(
        1, (serialized + preferred - 1) / preferred);
    const Bytes chunk = std::max<Bytes>(1, serialized / count);
    const Bytes offset =
        static_cast<Bytes>(info.partition) * serialized;
    // Fire-and-forget: the eviction writer drains in the background
    // while the stage runs (the simulator's event loop completes it).
    cluster_->node(info.node).writeThrough(
        oscache::Role::Local, storage::IoOp::PersistWrite, stream,
        offset, chunk, count, []() {});
}

void
BlockManager::onNodeDown(int node)
{
    for (auto &[rdd, blocks] : rdds_) {
        (void)rdd;
        for (BlockInfo &info : blocks.partitions) {
            if (info.node != node ||
                info.state == BlockState::Dropped)
                continue;
            if (info.state == BlockState::Memory) {
                pools_[static_cast<std::size_t>(node)].dropBlock(
                    info.id);
                blockIndex_.erase(info.id);
            }
            // The node's local disks are gone with it: disk blocks are
            // lost too and must be recomputed from lineage.
            info.state = BlockState::Dropped;
            ++memory_.droppedBlocks;
        }
    }
}

MemoryMetrics
BlockManager::memoryMetrics() const
{
    MemoryMetrics totals = memory_;
    for (const MemoryManager &pool : pools_) {
        totals.poolBytes += pool.poolSize();
        totals.peakStorageBytes += pool.peakStorageUsed();
        totals.peakExecutionBytes += pool.peakExecutionUsed();
    }
    return totals;
}

void
BlockManager::setTraceCollector(trace::TraceCollector *collector)
{
    // Legacy mode has no simulator clock to stamp events with.
    collector_ = unified_ ? collector : nullptr;
}

void
BlockManager::tracePoolSample(int node)
{
    if (collector_ == nullptr)
        return;
    const MemoryManager &pool = pools_[static_cast<std::size_t>(node)];
    const Tick now = cluster_->simulator().now();
    collector_->counter(trace::nodePid(node), "memory",
                        "pool/execution_bytes", now,
                        static_cast<double>(pool.executionUsed()));
    collector_->counter(trace::nodePid(node), "memory",
                        "pool/storage_bytes", now,
                        static_cast<double>(pool.storageUsed()));
}

MemoryManager &
BlockManager::nodeMemory(int node)
{
    if (!unified_)
        fatal("BlockManager: nodeMemory in legacy mode");
    return pools_[static_cast<std::size_t>(node)];
}

void
BlockManager::reset()
{
    memoryUsed_ = 0;
    placements_.clear();
    shuffles_.clear();
    checkpointed_.clear();
    for (MemoryManager &pool : pools_)
        pool.reset();
    rdds_.clear();
    blockIndex_.clear();
    nextBlockId_ = 1;
    memory_ = MemoryMetrics{};
}

} // namespace doppio::spark
