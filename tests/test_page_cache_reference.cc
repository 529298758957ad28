/**
 * @file
 * Differential tests: oscache::PageCache (extents linked straight into
 * the LRU and dirty chains, split in place on partial writeback)
 * against ReferencePageCache (the (stream, offset)-keyed lists it
 * replaced). Both are driven by the same seeded open-loop schedules of
 * reads, writes and failure drops over several streams and both roles,
 * round after round with reset() in between. Every call and every
 * completion records the completion tick, the full PageCacheStats and
 * the cached/dirty byte levels; the two records must be identical.
 */

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.h"
#include "common/units.h"
#include "oscache/page_cache.h"
#include "reference_page_cache.h"
#include "sim/simulator.h"
#include "storage/disk_device.h"
#include "storage/io_request.h"

namespace doppio::oscache {
namespace {

enum class Kind { Read, Write, Drop };

struct Op
{
    Tick at;
    Kind kind;
    Role role;
    storage::IoOp op;
    std::uint64_t stream;
    Bytes offset;
    Bytes chunk;
    std::uint64_t count;
};

struct Plan
{
    PageCacheConfig config;
    std::vector<std::vector<Op>> rounds; //!< reset() between rounds
};

/** One observation: what happened, when, and the cache state after. */
struct Sample
{
    std::string what;
    Tick now;
    std::string stats;
    Bytes cached;
    Bytes dirty;

    bool operator==(const Sample &other) const
    {
        return what == other.what && now == other.now &&
               stats == other.stats && cached == other.cached &&
               dirty == other.dirty;
    }
};

std::ostream &
operator<<(std::ostream &os, const Sample &s)
{
    return os << s.what << " @" << s.now << " cached=" << s.cached
              << " dirty=" << s.dirty << " {" << s.stats << "}";
}

std::string
describe(const PageCacheStats &s)
{
    std::ostringstream os;
    os << s.reads << ' ' << s.readFullHits << ' ' << s.writes << ' '
       << s.throttledWrites << ' ' << s.flushRequests << ' '
       << s.readBytes << ' ' << s.hitBytes << ' ' << s.missBytes << ' '
       << s.readAheadBytes << ' ' << s.writeBytes << ' '
       << s.absorbedBytes << ' ' << s.writeAroundBytes << ' '
       << s.flushedBytes << ' ' << s.evictedBytes;
    return os.str();
}

/** A fast SSD-like device: flushes and fetches take milliseconds. */
storage::DiskParams
deviceParams()
{
    storage::DiskParams p;
    p.model = "diff";
    p.type = storage::DiskType::Ssd;
    p.readIops = 2000.0;
    p.writeIops = 1000.0;
    p.readLatency = usToTicks(100.0);
    p.writeLatency = usToTicks(200.0);
    p.readBandwidth = 40.0 * kMiB;
    p.writeBandwidth = 20.0 * kMiB;
    return p;
}

/**
 * One seeded plan. Capacities of a few MiB against writes of up to
 * 512 KiB make the cache evict, throttle and write around; a flush
 * chunk below most extent sizes forces partial writebacks; reads
 * revisit recent ranges (LRU touches, full hits) and continue streams
 * sequentially (read-ahead). A few plans drop the cache mid-round.
 */
Plan
makePlan(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    Plan plan;
    PageCacheConfig &config = plan.config;
    config.enabled = true;
    const Bytes capacities[] = {512 * kKiB, kMiB, 3 * kMiB};
    config.capacity = capacities[rng() % 3];
    config.memoryBandwidth = 2.0 * kGiB;
    if (rng() % 2 == 0) {
        config.dirtyBackgroundRatio = 0.1;
        config.dirtyRatio = 0.2;
    } else {
        config.dirtyBackgroundRatio = 0.3;
        config.dirtyRatio = 0.6;
    }
    config.readAhead = (rng() % 3 == 0) ? 0 : 64 * kKiB;
    const Bytes flushChunks[] = {16 * kKiB, 48 * kKiB, 256 * kKiB};
    config.flushChunk = flushChunks[rng() % 3];

    const storage::IoOp readOps[] = {storage::IoOp::HdfsRead,
                                     storage::IoOp::ShuffleRead,
                                     storage::IoOp::PersistRead};
    const storage::IoOp writeOps[] = {storage::IoOp::HdfsWrite,
                                      storage::IoOp::ShuffleWrite,
                                      storage::IoOp::PersistWrite};
    const Bytes granule = 16 * kKiB;
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r) {
        std::vector<Op> ops;
        std::vector<Bytes> next(8, 0); // per stream: sequential cursor
        Tick at = 0;
        const std::size_t n = 100 + rng() % 200;
        for (std::size_t i = 0; i < n; ++i) {
            // Bursts (same tick) and gaps up to a few flush times.
            at += (rng() % 4 == 0) ? 0 : usToTicks(rng() % 20000);
            Op op{};
            op.at = at;
            op.role = (rng() % 2 == 0) ? Role::Hdfs : Role::Local;
            op.stream = 1 + rng() % 4;
            op.chunk = granule * (1 + rng() % 8);
            op.count = 1 + rng() % 4;
            const std::uint64_t slot = (op.stream - 1) * 2 +
                                       static_cast<std::uint64_t>(op.role);
            const std::uint64_t roll = rng() % 100;
            if (roll < 45) {
                op.kind = Kind::Write;
                op.op = writeOps[rng() % 3];
                op.offset = granule * (rng() % 96);
            } else {
                op.kind = Kind::Read;
                op.op = readOps[rng() % 3];
                op.offset = (roll < 70) ? next[slot] : granule * (rng() % 96);
            }
            next[slot] = op.offset + op.chunk * op.count;
            ops.push_back(op);
            if (seed % 4 == 0 && i == n / 2) {
                Op drop{};
                drop.at = at;
                drop.kind = Kind::Drop;
                ops.push_back(drop);
            }
        }
        plan.rounds.push_back(std::move(ops));
    }
    return plan;
}

struct Record
{
    std::vector<Sample> samples;
    PageCacheStats totals; //!< summed over rounds (reset() clears)
};

/** Run @p plan through a fresh @p Cache and record every observation. */
template <typename Cache>
Record
drive(const Plan &plan)
{
    sim::Simulator sim;
    storage::DiskDevice hdfs(sim, deviceParams(), "hdfs");
    storage::DiskDevice local(sim, deviceParams(), "local");
    Cache cache(
        sim, plan.config,
        [&hdfs]() -> storage::DiskDevice & { return hdfs; },
        [&local]() -> storage::DiskDevice & { return local; },
        "diff/pagecache");

    Record record;
    auto observe = [&](std::string what) {
        record.samples.push_back(
            Sample{std::move(what), sim.now(), describe(cache.stats()),
                   cache.cachedBytes(), cache.dirtyBytes()});
    };
    for (std::size_t r = 0; r < plan.rounds.size(); ++r) {
        if (r > 0) {
            cache.reset();
            observe("reset");
        }
        const Tick base = sim.now();
        const auto &ops = plan.rounds[r];
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const Op op = ops[i];
            const std::string id =
                std::to_string(r) + "." + std::to_string(i);
            sim.scheduleAt(base + op.at, [&, op, id] {
                auto done = [&, id] { observe("done " + id); };
                switch (op.kind) {
                case Kind::Read:
                    cache.read(op.role, op.op, op.stream, op.offset,
                               op.chunk, op.count, done);
                    break;
                case Kind::Write:
                    cache.write(op.role, op.op, op.stream, op.offset,
                                op.chunk, op.count, done);
                    break;
                case Kind::Drop:
                    observe("drop " + id + " lost " +
                            std::to_string(cache.dropForFailure()));
                    return;
                }
                observe("call " + id);
            });
        }
        sim.run();
        observe("round end");
        record.totals += cache.stats();
    }
    return record;
}

TEST(PageCacheReference, SeededSchedulesMatchReference)
{
    PageCacheStats totals;
    for (std::uint64_t seed = 1; seed <= 48; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Plan plan = makePlan(seed);
        const Record expected = drive<ReferencePageCache>(plan);
        const Record actual = drive<PageCache>(plan);
        ASSERT_EQ(actual.samples.size(), expected.samples.size());
        for (std::size_t i = 0; i < expected.samples.size(); ++i) {
            ASSERT_EQ(actual.samples[i], expected.samples[i])
                << "observation " << i;
        }
        totals += expected.totals;
    }
    // The schedules reach every path of the cache.
    EXPECT_GT(totals.absorbedBytes, 0ULL);
    EXPECT_GT(totals.throttledWrites, 0ULL);
    EXPECT_GT(totals.writeAroundBytes, 0ULL);
    EXPECT_GT(totals.flushRequests, 0ULL);
    EXPECT_GT(totals.readFullHits, 0ULL);
    EXPECT_GT(totals.hitBytes, 0ULL);
    EXPECT_GT(totals.readAheadBytes, 0ULL);
    EXPECT_GT(totals.evictedBytes, 0ULL);
}

} // namespace
} // namespace doppio::oscache
