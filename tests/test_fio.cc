/**
 * @file
 * Unit and property tests for the fio-style profiler (paper Fig. 5).
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "cloud/gcp_disk.h"
#include "common/logging.h"
#include "common/units.h"
#include "service/planner.h"
#include "storage/fio.h"

namespace doppio::storage {
namespace {

TEST(Fio, MeasuredBandwidthMatchesClosedFormHdd)
{
    const DiskParams hdd = makeHddParams();
    const FioProfiler profiler(hdd);
    for (Bytes rs : {kib(4), kib(30), mib(1), mib(128)}) {
        const FioResult r = profiler.measure(IoKind::Read, rs);
        const double expected = hdd.effectiveBandwidth(IoKind::Read, rs);
        EXPECT_NEAR(r.bandwidth, expected, expected * 0.15)
            << "request size " << rs;
    }
}

TEST(Fio, MeasuredBandwidthMatchesClosedFormSsd)
{
    const DiskParams ssd = makeSsdParams();
    const FioProfiler profiler(ssd);
    for (Bytes rs : {kib(4), kib(30), mib(1), mib(128)}) {
        const FioResult r = profiler.measure(IoKind::Read, rs);
        const double expected = ssd.effectiveBandwidth(IoKind::Read, rs);
        EXPECT_NEAR(r.bandwidth, expected, expected * 0.15)
            << "request size " << rs;
    }
}

TEST(Fio, Paper30KAnchors)
{
    // Fig. 5: 15 MB/s (HDD) vs 480 MB/s (SSD) at 30 KB -> 32x.
    const FioProfiler hdd(makeHddParams());
    const FioProfiler ssd(makeSsdParams());
    const double hdd_bw = hdd.measure(IoKind::Read, kib(30)).bandwidth;
    const double ssd_bw = ssd.measure(IoKind::Read, kib(30)).bandwidth;
    EXPECT_NEAR(toMiBps(hdd_bw), 15.0, 2.0);
    EXPECT_NEAR(toMiBps(ssd_bw), 480.0, 30.0);
    EXPECT_NEAR(ssd_bw / hdd_bw, 32.0, 5.0);
}

TEST(Fio, IopsConsistentWithBandwidth)
{
    const FioProfiler profiler(makeHddParams());
    const FioResult r = profiler.measure(IoKind::Read, kib(30));
    EXPECT_NEAR(r.iops * static_cast<double>(kib(30)), r.bandwidth,
                r.bandwidth * 0.01);
}

TEST(Fio, SweepCoversAllSizes)
{
    const FioProfiler profiler(makeSsdParams());
    const auto sizes = FioProfiler::defaultSweepSizes();
    const auto results = profiler.sweep(IoKind::Read, sizes);
    ASSERT_EQ(results.size(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        EXPECT_EQ(results[i].requestSize, sizes[i]);
}

TEST(Fio, BandwidthTableMonotoneNondecreasing)
{
    const FioProfiler profiler(makeHddParams());
    const LookupTable table = profiler.bandwidthTable(IoKind::Read);
    double prev = 0.0;
    for (const auto &[x, y] : table.points()) {
        EXPECT_GE(y, prev * 0.99) << "at request size " << x;
        prev = y;
    }
}

TEST(Fio, WriteTableBelowOrEqualReadCeiling)
{
    const FioProfiler profiler(makeHddParams());
    const LookupTable write = profiler.bandwidthTable(IoKind::Write);
    EXPECT_NEAR(toMiBps(write.at(static_cast<double>(mib(365)))), 100.0,
                10.0);
}

TEST(Fio, InvalidConfigRejected)
{
    EXPECT_THROW(FioProfiler(makeHddParams(), {0, 64}), FatalError);
    EXPECT_THROW(FioProfiler(makeHddParams(), {32, 0}), FatalError);
    const FioProfiler ok(makeHddParams());
    EXPECT_THROW(ok.measure(IoKind::Read, 0), FatalError);
}

/**
 * Property sweep: for every request size, fio-measured bandwidth is
 * within 15% of the closed-form min(BW, IOPS * rs) oracle.
 */
class FioOracle : public ::testing::TestWithParam<Bytes>
{};

TEST_P(FioOracle, HddWithinTolerance)
{
    const DiskParams hdd = makeHddParams();
    const FioProfiler profiler(hdd);
    const Bytes rs = GetParam();
    const double expected = hdd.effectiveBandwidth(IoKind::Read, rs);
    const double measured =
        profiler.measure(IoKind::Read, rs).bandwidth;
    EXPECT_NEAR(measured, expected, expected * 0.15);
}

TEST_P(FioOracle, SsdWriteWithinTolerance)
{
    const DiskParams ssd = makeSsdParams();
    const FioProfiler profiler(ssd);
    const Bytes rs = GetParam();
    const double expected = ssd.effectiveBandwidth(IoKind::Write, rs);
    const double measured =
        profiler.measure(IoKind::Write, rs).bandwidth;
    EXPECT_NEAR(measured, expected, expected * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FioOracle,
                         ::testing::Values(kib(4), kib(8), kib(30),
                                           kib(128), mib(1), mib(27),
                                           mib(128), mib(365)));

/** The memoized table's points equal an uncached sweep's, bit for bit. */
void
expectTableMatchesSweep(const DiskParams &params, IoKind kind,
                        const std::vector<Bytes> &sizes)
{
    const FioProfiler profiler(params);
    const std::vector<FioResult> oracle = profiler.sweep(kind, sizes);
    const auto &points = profiler.bandwidthTable(kind, sizes).points();
    ASSERT_EQ(points.size(), oracle.size()) << params.model;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(points[i].first,
                  static_cast<double>(oracle[i].requestSize))
            << params.model << " point " << i;
        EXPECT_EQ(points[i].second, oracle[i].bandwidth)
            << params.model << " point " << i;
    }
}

TEST(FioMemo, TablesMatchUncachedSweep)
{
    std::vector<DiskParams> disks = {makeHddParams(), makeSsdParams(),
                                     makeNvmeParams()};
    for (const cloud::CloudDiskType type :
         {cloud::CloudDiskType::Standard, cloud::CloudDiskType::Ssd})
        for (const Bytes size : service::Planner::coarseSizeGrid())
            disks.push_back(cloud::makeCloudDiskParams(type, size));
    ASSERT_EQ(disks.size(), 15u);
    const std::vector<Bytes> sizes = FioProfiler::defaultSweepSizes();
    for (const DiskParams &disk : disks)
        for (const IoKind kind : {IoKind::Read, IoKind::Write})
            expectTableMatchesSweep(disk, kind, sizes);
}

TEST(FioMemo, KeyHoldsExactlyWhatTheSweepReads)
{
    const std::vector<Bytes> sizes = {kib(4), kib(30), mib(1)};
    const DiskParams base = makeSsdParams();
    const LookupTable &read = FioProfiler(base).bandwidthTable(
        IoKind::Read, sizes);

    // Fields a read sweep never touches share the entry.
    DiskParams unread = base;
    unread.model = "renamed";
    unread.type = DiskType::Hdd;
    unread.capacity *= 2;
    unread.writeIops *= 3;
    unread.writeLatency *= 3;
    unread.writeBandwidth *= 3;
    EXPECT_EQ(&FioProfiler(unread).bandwidthTable(IoKind::Read, sizes),
              &read);

    // Every field it does read gets its own entry.
    DiskParams iops = base;
    iops.readIops *= 2;
    DiskParams latency = base;
    latency.readLatency *= 2;
    DiskParams bandwidth = base;
    bandwidth.readBandwidth *= 2;
    for (const DiskParams &changed : {iops, latency, bandwidth})
        EXPECT_NE(
            &FioProfiler(changed).bandwidthTable(IoKind::Read, sizes),
            &read);
    EXPECT_NE(&FioProfiler(base, {16, 64}).bandwidthTable(IoKind::Read,
                                                          sizes),
              &read);
    EXPECT_NE(&FioProfiler(base, {32, 32}).bandwidthTable(IoKind::Read,
                                                          sizes),
              &read);
    EXPECT_NE(&FioProfiler(base).bandwidthTable(IoKind::Read,
                                                {kib(4), kib(30)}),
              &read);
    EXPECT_NE(&FioProfiler(base).bandwidthTable(IoKind::Write, sizes),
              &read);
}

TEST(FioMemo, RacingFillsAgreeWithUncachedSweep)
{
    // A key no other test uses, so every thread starts on a cold entry.
    DiskParams disk = makeHddParams();
    disk.readIops = 321.0;
    const std::vector<Bytes> sizes = {kib(8), kib(64), mib(4)};
    const std::vector<FioResult> oracle =
        FioProfiler(disk).sweep(IoKind::Read, sizes);

    constexpr int kThreads = 8;
    std::vector<const LookupTable *> got(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            got[t] = &FioProfiler(disk).bandwidthTable(IoKind::Read, sizes);
        });
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t], got[0]) << "thread " << t;
        const auto &points = got[t]->points();
        ASSERT_EQ(points.size(), oracle.size());
        for (std::size_t i = 0; i < oracle.size(); ++i)
            EXPECT_EQ(points[i].second, oracle[i].bandwidth)
                << "thread " << t << " point " << i;
    }
}

} // namespace
} // namespace doppio::storage
