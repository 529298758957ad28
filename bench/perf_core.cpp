/**
 * @file
 * Tracked performance harness for the simulator hot paths
 * (DESIGN.md §11). Unlike the figure benches, nothing here checks
 * accuracy — every scenario is already covered by golden-output tests
 * elsewhere — this binary only answers "how fast", in numbers stable
 * enough to diff across commits with tools/bench_diff.py:
 *
 *   - event_throughput: self-rescheduling handler chains through the
 *     pooled event queue (events/s).
 *   - fluidpipe_churn_{10,100,5000}: a pipe kept at a constant number
 *     of concurrent flows, each completion starting a replacement, so
 *     every completion pays one progressive-filling rebalance
 *     (flows/s).
 *   - event_schedule_run: a batch of events posted at scattered
 *     ticks, then drained (events/s).
 *   - fluidpipe_arrivals_1024: flows arriving every microsecond on
 *     one uncapped pipe, so depth ramps up and drains (flows/s).
 *   - disk_requests: 30 KiB reads submitted at once to one SSD
 *     (requests/s).
 *   - pagecache_writeback: writers holding one page cache over one
 *     SSD at its dirty limit, so the flusher never idles and the
 *     writers it admits evict clean bytes (flush requests/s).
 *   - stage_tasks: a 2048-task shuffle-read stage on the motivation
 *     cluster through TaskEngine (tasks/s).
 *   - terasort_e2e: full Terasort on the 3-slave bench cluster, wall
 *     seconds.
 *   - fio_profile: the uncached fio sweep, both directions, of the
 *     planning service's 12 coarse-grid cloud disks (tables/s) — the
 *     one-time profiling cost FioProfiler's table memo saves.
 *   - optimizer_grid_jobs{1,N}: the CLI `optimize` search over the
 *     default grid at one thread and at --jobs N, wall seconds (the
 *     outputs are byte-identical; only the clock may differ).
 *
 * Each scenario repeats until its repetitions add up to at least half
 * a second (one repetition under --smoke) and reports the median
 * repetition, so a scenario of a few tens of milliseconds is not
 * judged on one noisy sample.
 *
 * Flags: --smoke shrinks every scenario to CI size, --json FILE
 * writes the machine-readable BENCH_perf_core.json record, --jobs N
 * sets the parallel leg of the optimizer scenario (0 = one thread
 * per hardware core).
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "cloud_util.h"
#include "cluster/cluster.h"
#include "dfs/hdfs.h"
#include "oscache/page_cache.h"
#include "service/planner.h"
#include "sim/fluid_pipe.h"
#include "sim/simulator.h"
#include "spark/task_engine.h"
#include "storage/disk_device.h"
#include "storage/fio.h"
#include "workloads/terasort.h"

using namespace doppio;
using bench::kGB;

namespace {

/** One measured scenario. */
struct Result
{
    std::string name;
    std::string unit;  //!< "events/s", "flows/s" or "s"
    double value = 0.0;
    double seconds = 0.0; //!< wall clock of the measured region
    std::size_t reps = 1; //!< repetitions the median was taken over
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Event throughput: @p chains self-rescheduling handlers racing
 * through the queue until @p total events have fired. Exercises the
 * slot pool, the heap and the FIFO tie-break with a live queue depth
 * of @p chains. Two production patterns are baked in: callbacks
 * carry a payload the size of a typical engine completion (a couple
 * of pointers plus counters — larger than std::function's
 * small-buffer), and every firing supersedes a pending timeout
 * (cancel + re-post — exactly what FluidPipe does with its
 * completion event on every membership change), so cancellation cost
 * is measured too.
 */
Result
eventThroughput(std::uint64_t total, int chains)
{
    sim::Simulator sim;
    std::uint64_t fired = 0;
    std::uint64_t checksum = 0;
    sim::EventId timeout = 0;
    bool timeout_pending = false;
    struct Payload
    {
        std::uint64_t a, b, c, d;
    };
    std::function<void(Payload)> handler = [&](Payload p) {
        checksum += p.a ^ p.d;
        if (timeout_pending)
            sim.cancel(timeout);
        timeout = sim.schedule(1000, [&] { timeout_pending = false; });
        timeout_pending = true;
        if (++fired + sim.pendingEvents() < total) {
            const Payload next{fired, p.b + 1, p.c, fired * 31};
            sim.schedule(1 + fired % 7, [&, next] { handler(next); });
        }
    };
    const double start = now();
    for (int i = 0; i < chains; ++i) {
        const Payload seedp{static_cast<std::uint64_t>(i), 0, 7, 13};
        sim.schedule(1 + i, [&, seedp] { handler(seedp); });
    }
    sim.run();
    const double elapsed = now() - start;
    if (checksum == 42)
        std::cout << ""; // defeat dead-code elimination
    return {"event_throughput", "events/s",
            static_cast<double>(sim.firedEvents()) / elapsed, elapsed};
}

/**
 * FluidPipe churn: hold @p concurrent flows open on one pipe; every
 * completion immediately starts a replacement until @p total flows
 * have finished. Sizes are staggered so completions interleave and
 * each one triggers a full progressive-filling rebalance at depth
 * @p concurrent. Most flows carry a rate cap below the fair share —
 * the production pattern (every network flow is capped at the
 * sender's NIC rate, batched disk requests at the solo device rate),
 * and the case where rebalancing cost actually matters.
 */
Result
fluidPipeChurn(int concurrent, std::uint64_t total)
{
    sim::Simulator sim;
    const double capacity = 1e9;
    sim::FluidPipe pipe(sim, capacity, "bench");
    // Fair share at full depth; caps sit below it so capped flows
    // release bandwidth every rebalance round.
    const double fair = capacity / concurrent;
    std::uint64_t done = 0;
    std::uint64_t started = 0;
    std::function<void()> completion;
    auto launch = [&] {
        // Stagger sizes (1..2 MB) so completion ticks interleave.
        const Bytes bytes = 1000 * 1000 + (started % 97) * 10000;
        const double cap = (started % 4 == 3)
                               ? std::numeric_limits<double>::infinity()
                               : fair * (0.3 + 0.1 * (started % 5));
        ++started;
        pipe.startFlow(bytes, completion, cap);
    };
    completion = [&] {
        ++done;
        if (started < total)
            launch();
    };
    const double start = now();
    for (int i = 0; i < concurrent; ++i)
        launch();
    sim.run();
    const double elapsed = now() - start;
    return {"fluidpipe_churn_" + std::to_string(concurrent), "flows/s",
            static_cast<double>(done) / elapsed, elapsed};
}

/**
 * Event scheduling: @p reps rounds of posting @p events events at
 * scattered ticks into a fresh simulator and draining it — the heap
 * under a deep, unordered queue rather than a steady chain.
 */
Result
eventScheduleRun(int events, int reps)
{
    std::uint64_t fired = 0;
    const double start = now();
    for (int r = 0; r < reps; ++r) {
        sim::Simulator sim;
        for (int i = 0; i < events; ++i)
            sim.schedule(static_cast<Tick>((i * 7919) % 100000), [] {});
        sim.run();
        fired += sim.firedEvents();
    }
    const double elapsed = now() - start;
    return {"event_schedule_run", "events/s",
            static_cast<double>(fired) / elapsed, elapsed};
}

/**
 * FluidPipe arrivals: @p flows 1 MB uncapped flows arriving one per
 * microsecond, faster than the pipe drains them, so the depth ramps to
 * ~@p flows and then empties — no rate caps, unlike the churn cases.
 */
Result
fluidPipeArrivals(int flows, int reps)
{
    Bytes completed = 0;
    const double start = now();
    for (int r = 0; r < reps; ++r) {
        sim::Simulator sim;
        sim::FluidPipe pipe(sim, 1e9, "bench");
        for (int i = 0; i < flows; ++i) {
            sim.schedule(static_cast<Tick>(i) * 1000, [&pipe] {
                pipe.startFlow(1000000, [] {});
            });
        }
        sim.run();
        completed += pipe.bytesCompleted();
    }
    const double elapsed = now() - start;
    if (completed == 42)
        std::cout << ""; // defeat dead-code elimination
    return {"fluidpipe_arrivals_" + std::to_string(flows), "flows/s",
            static_cast<double>(flows) * reps / elapsed, elapsed};
}

/** Disk requests: @p requests 30 KiB reads submitted at once. */
Result
diskRequests(int requests, int reps)
{
    std::uint64_t served = 0;
    const double start = now();
    for (int r = 0; r < reps; ++r) {
        sim::Simulator sim;
        storage::DiskDevice dev(sim, storage::makeSsdParams(), "bench");
        for (int i = 0; i < requests; ++i)
            dev.submit(storage::IoOp::RawRead, kib(30), [] {});
        sim.run();
        served += dev.stats().totalRequests(storage::IoKind::Read);
    }
    const double elapsed = now() - start;
    return {"disk_requests", "requests/s",
            static_cast<double>(served) / elapsed, elapsed};
}

/**
 * Page-cache writeback: four writers append 1.5 MiB writes to their
 * own streams of one 16 GiB page cache over one SSD until @p total
 * bytes are written, each issuing its next write when the last is
 * accepted. Dirty bytes sit at the dirty limit, so the flusher never
 * idles: each 1 MiB writeback cleans the oldest dirty bytes (mostly a
 * partial extent), admits a parked writer and — once the cache is full
 * of clean fragments — evicts the least recently used ones.
 */
Result
pageCacheWriteback(Bytes total)
{
    sim::Simulator sim;
    storage::DiskDevice ssd(sim, storage::makeSsdParams(), "bench");
    oscache::PageCacheConfig config;
    config.enabled = true;
    config.capacity = 16 * kGiB;
    oscache::PageCache cache(
        sim, config, [&ssd]() -> storage::DiskDevice & { return ssd; },
        [&ssd]() -> storage::DiskDevice & { return ssd; }, "bench");
    const Bytes chunk = 512 * kKiB;
    const std::uint64_t count = 3;
    constexpr int kWriters = 4;
    Bytes written = 0;
    Bytes offsets[kWriters] = {};
    std::function<void(int)> writeNext = [&](int writer) {
        if (written >= total)
            return;
        written += chunk * count;
        const Bytes at = offsets[writer];
        offsets[writer] += chunk * count;
        cache.write(oscache::Role::Local, storage::IoOp::ShuffleWrite,
                    1 + static_cast<std::uint64_t>(writer), at, chunk,
                    count, [&writeNext, writer] { writeNext(writer); });
    };
    const double start = now();
    for (int w = 0; w < kWriters; ++w)
        writeNext(w);
    sim.run();
    const double elapsed = now() - start;
    if (cache.stats().evictedBytes == 0)
        std::cerr << "pagecache_writeback: nothing was evicted\n";
    return {"pagecache_writeback", "requests/s",
            static_cast<double>(cache.stats().flushRequests) / elapsed,
            elapsed};
}

/**
 * Stage execution: one shuffle-read stage of @p tasks tasks (27 MiB
 * each, 30 KiB requests, fan-in 976) on the motivation cluster.
 */
Result
stageTasks(int tasks, int reps)
{
    double sim_seconds = 0.0;
    const double start = now();
    for (int r = 0; r < reps; ++r) {
        sim::Simulator sim;
        cluster::Cluster cluster(
            sim, cluster::ClusterConfig::motivationCluster());
        dfs::Hdfs hdfs(cluster);
        spark::SparkConf conf;
        spark::TaskEngine engine(cluster, hdfs, conf);
        spark::StageSpec stage;
        stage.name = "bench";
        spark::IoPhaseSpec io;
        io.op = storage::IoOp::ShuffleRead;
        io.bytesPerTask = mib(27);
        io.requestSize = kib(30);
        io.fanIn = 976;
        stage.groups.push_back(
            spark::TaskGroupSpec{"g", tasks, {io}, mib(27)});
        sim_seconds += engine.runStage(stage).seconds();
    }
    const double elapsed = now() - start;
    if (sim_seconds == 42.0)
        std::cout << ""; // defeat dead-code elimination
    return {"stage_tasks", "tasks/s",
            static_cast<double>(tasks) * reps / elapsed, elapsed};
}

/**
 * End-to-end Terasort: the paper's 930 GiB sort on the 10-slave
 * evaluation cluster (fig12 setup). Reports wall seconds per run.
 */
Result
terasortEndToEnd()
{
    const workloads::Terasort workload;
    cluster::ClusterConfig config =
        cluster::ClusterConfig::evaluationCluster();
    spark::SparkConf conf;
    conf.executorCores = 36;
    const double start = now();
    const spark::AppMetrics metrics = workload.run(config, conf);
    (void)metrics;
    const double elapsed = now() - start;
    return {"terasort_e2e", "s", elapsed, elapsed};
}

/**
 * One-time disk profiling: the uncached fio sweep (sweep(), which
 * bypasses the table memo) of both directions over the planning
 * service's coarse-grid cloud disks, 24 tables.
 */
Result
fioProfile()
{
    const std::vector<Bytes> sizes =
        storage::FioProfiler::defaultSweepSizes();
    int tables = 0;
    double checksum = 0.0;
    const double start = now();
    for (const cloud::CloudDiskType type :
         {cloud::CloudDiskType::Standard, cloud::CloudDiskType::Ssd}) {
        for (const Bytes size : service::Planner::coarseSizeGrid()) {
            const storage::FioProfiler profiler(
                cloud::makeCloudDiskParams(type, size));
            for (const storage::IoKind kind :
                 {storage::IoKind::Read, storage::IoKind::Write}) {
                checksum += profiler.sweep(kind, sizes).back().bandwidth;
                ++tables;
            }
        }
    }
    const double elapsed = now() - start;
    if (checksum == 42.0)
        std::cout << ""; // defeat dead-code elimination
    return {"fio_profile", "tables/s", tables / elapsed, elapsed};
}

/** The CLI `optimize` grid search at a given thread count. */
Result
optimizerGrid(const model::AppModel &app, bool smoke, int jobs,
              const std::string &label)
{
    cloud::CostOptimizer::Options options;
    options.workers = 3;
    options.jobs = jobs;
    if (smoke) {
        options.localTypes = {cloud::CloudDiskType::Standard};
        options.sizeGrid = {100 * kGB, 400 * kGB, 1600 * kGB};
    }
    // Fresh optimizer per run: its evaluation memo starts cold. The
    // fio tables come from FioProfiler's process-wide memo, warmed
    // before the first leg, so every run times the same work.
    const cloud::CostOptimizer optimizer(app, cloud::GcpPricing{},
                                         options);
    const double start = now();
    const cloud::Evaluation best = optimizer.optimize();
    const double elapsed = now() - start;
    (void)best;
    return {label, "s", elapsed, elapsed};
}

/**
 * Run @p scenario until its repetitions add up to at least
 * @p minSeconds (at least once) and @return the median repetition.
 */
Result
medianRun(const std::function<Result()> &scenario, double minSeconds)
{
    std::vector<Result> runs;
    double total = 0.0;
    do {
        runs.push_back(scenario());
        total += runs.back().seconds;
    } while (total < minSeconds);
    std::sort(runs.begin(), runs.end(),
              [](const Result &a, const Result &b) {
                  return a.seconds < b.seconds;
              });
    Result median = runs[runs.size() / 2];
    median.reps = runs.size();
    return median;
}

void
writeJson(const std::string &path, const std::vector<Result> &results,
          bool smoke, int jobs)
{
    std::ofstream os(path);
    os.precision(6);
    os << "{\"bench\":\"perf_core\",\"mode\":\""
       << (smoke ? "smoke" : "full") << "\",\"jobs\":" << jobs
       << ",\"results\":[";
    bool first = true;
    for (const Result &r : results) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":\"" << r.name << "\",\"unit\":\"" << r.unit
           << "\",\"value\":" << r.value << ",\"seconds\":"
           << r.seconds << ",\"reps\":" << r.reps << "}";
    }
    os << "]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = bench::benchFlag(argc, argv, "--smoke");
    const int jobs_arg = bench::benchJobs(argc, argv);
    const int jobs = jobs_arg > 0
                         ? jobs_arg
                         : common::SweepRunner::hardwareJobs();
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            json_path = argv[i + 1];
    }

    std::vector<Result> results;
    const double min_seconds = smoke ? 0.0 : 0.5;
    const auto measure = [&](const std::function<Result()> &scenario) {
        results.push_back(medianRun(scenario, min_seconds));
    };
    measure([&] {
        return eventThroughput(smoke ? 200'000 : 2'000'000, 64);
    });
    measure([&] { return fluidPipeChurn(10, smoke ? 5'000 : 50'000); });
    measure([&] { return fluidPipeChurn(100, smoke ? 5'000 : 50'000); });
    measure([&] { return fluidPipeChurn(5000, smoke ? 6'000 : 15'000); });
    measure([&] { return eventScheduleRun(100'000, smoke ? 2 : 20); });
    measure([&] { return fluidPipeArrivals(1024, smoke ? 2 : 20); });
    measure([&] { return diskRequests(10'000, smoke ? 2 : 20); });
    measure([&] {
        return pageCacheWriteback(smoke ? 64 * kGiB : 1024 * kGiB);
    });
    measure([&] { return stageTasks(2048, smoke ? 1 : 5); });
    measure(terasortEndToEnd);
    measure(fioProfile);

    // Fit once and fill the fio-table memo once, so both optimizer
    // legs time the same evaluation work.
    const workloads::Gatk4 gatk4;
    const model::AppModel app = bench::fitCloudGatk4(gatk4);
    optimizerGrid(app, smoke, 1, "warm-up");
    measure([&] {
        return optimizerGrid(app, smoke, 1, "optimizer_grid_jobs1");
    });
    measure([&] {
        return optimizerGrid(app, smoke, jobs,
                             "optimizer_grid_jobs" + std::to_string(jobs));
    });

    TablePrinter table(std::string("perf_core (") +
                       (smoke ? "smoke" : "full") + ", parallel leg @ " +
                       std::to_string(jobs) + " jobs)");
    table.setHeader({"scenario", "value", "unit", "wall (s)", "reps"});
    for (const Result &r : results) {
        table.addRow({r.name,
                      TablePrinter::num(r.value, r.unit == "s" ? 3 : 0),
                      r.unit, TablePrinter::num(r.seconds, 3),
                      std::to_string(r.reps)});
    }
    table.print(std::cout);

    if (!json_path.empty()) {
        writeJson(json_path, results, smoke, jobs);
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}
