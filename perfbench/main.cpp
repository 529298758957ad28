/**
 * @file
 * perfbench: one measured run of one benchmark workload.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans FILE] [--reference FILE] [--write-reference FILE]
 *             [--setup-only]
 *
 * Repeats passes of the workload until S host seconds have elapsed
 * and prints one JSON object as its last stdout line: correct,
 * attempted, failed, failures and every metric with its unit. With
 * --trace 1 the passes alternate untraced and traced (at least one of
 * each): per-layer metrics come from the traced passes, and the wall
 * difference between the two kinds is the tracing overhead. Untraced
 * passes record no spans and attach no observers. --setup-only stops
 * after the set-up, so the caller can time it. On the default seed,
 * --reference compares every pass's simulated results with the file.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "workloads.h"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string spans;
    std::string reference;
    std::string writeReference;
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE] [--reference FILE] "
                 "[--write-reference FILE] [--setup-only]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            args.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty() || value[0] == '-')
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(args.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--spans") {
            args.spans = value;
        } else if (flag == "--reference") {
            args.reference = value;
        } else if (flag == "--write-reference") {
            args.writeReference = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    return args;
}

/** @return the median, NaN for no values. */
double
median(std::vector<double> values)
{
    if (values.empty())
        return std::nan("");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/** Median over passes of a per-pass value. */
template <typename F>
double
overPasses(const std::vector<PassResult> &passes, F &&value)
{
    std::vector<double> values;
    for (const PassResult &pass : passes)
        values.push_back(value(pass));
    return median(values);
}

/** Median host ms of one kind of operation, pooled over @p passes. */
double
opMs(const std::vector<PassResult> &passes, OpRecord::Kind kind)
{
    std::vector<double> ms;
    for (const PassResult &pass : passes)
        for (const OpRecord &op : pass.ops)
            if (op.kind == kind)
                ms.push_back(op.ms);
    return median(ms);
}

using Metrics = std::vector<std::pair<std::string, std::pair<double,
                                                             std::string>>>;

void
add(Metrics &metrics, const std::string &name, double value,
    const std::string &unit)
{
    metrics.push_back({name, {value, unit}});
}

/** End-to-end metrics, from untraced passes. */
void
endToEnd(const std::vector<PassResult> &passes, Metrics &metrics)
{
    using Kind = OpRecord::Kind;
    add(metrics, "wall_s",
        overPasses(passes, [](const PassResult &p) { return p.wallS; }),
        "s");
    add(metrics, "cold_op_ms", opMs(passes, Kind::Cold), "ms");
    // The planning service's own names, where the workload has them.
    if (!std::isnan(opMs(passes, Kind::Hit))) {
        add(metrics, "plan_cold_ms", opMs(passes, Kind::Cold), "ms");
        add(metrics, "plan_warm_ms", opMs(passes, Kind::Warm), "ms");
        add(metrics, "plan_qps",
            overPasses(passes,
                       [](const PassResult &p) {
                           return static_cast<double>(p.ops.size()) /
                                  p.wallS;
                       }),
            "1/s");
    }
    if (passes.front().modelErrorPct >= 0.0)
        add(metrics, "model_error_pct",
            overPasses(passes,
                       [](const PassResult &p) { return p.modelErrorPct; }),
            "%");
}

/** Median of a layer's samples; 0 for a layer the workload bypasses. */
double
orZero(const std::vector<double> &values)
{
    return values.empty() ? 0.0 : median(values);
}

/** Every per-layer metric, from traced passes. */
void
perLayer(const std::vector<PassResult> &traced,
         const std::vector<PassResult> &untraced, std::size_t spans,
         Metrics &metrics)
{
    const auto layer = [&](const std::string &name, const char *unit,
                           auto &&value) {
        add(metrics, name,
            overPasses(traced,
                       [&](const PassResult &p) {
                           return static_cast<double>(value(p.layers));
                       }),
            unit);
    };
    layer("sim.events", "count", [](const Layers &l) { return l.events; });
    layer("sim.cancel_ratio", "ratio", [](const Layers &l) {
        return l.scheduled ? 1.0 - static_cast<double>(l.events) /
                                       static_cast<double>(l.scheduled)
                           : 0.0;
    });
    layer("sim.ns_per_event", "ns", [](const Layers &l) {
        return l.events ? l.runJobWallS * 1e9 /
                              static_cast<double>(l.events)
                        : 0.0;
    });
    // Labelled application runs: the Table III configs, and the
    // terasort run under the CLI's page cache.
    for (const char *label :
         {"ssd-ssd", "hdd-ssd", "ssd-hdd", "hdd-hdd", "pc-ssd-ssd"}) {
        layer(std::string("sim.events.") + label, "count",
              [label](const Layers &l) {
                  const auto it = l.runEvents.find(label);
                  return it == l.runEvents.end() ? 0 : it->second;
              });
        layer(std::string("spark.run_s.") + label, "s",
              [label](const Layers &l) {
                  const auto it = l.runWallS.find(label);
                  return it == l.runWallS.end() ? 0.0 : it->second;
              });
    }
    layer("spark.tasks", "count", [](const Layers &l) { return l.tasks; });
    layer("spark.sim_s", "sim_s", [](const Layers &l) { return l.simS; });
    layer("storage.requests", "count",
          [](const Layers &l) { return l.requests; });
    layer("storage.bytes", "B", [](const Layers &l) { return l.bytes; });
    layer("storage.busy_s", "sim_s",
          [](const Layers &l) { return l.busySimS; });
    // What a caller of submit()/submitBatch() waits, queueing included.
    layer("storage.latency_ms", "sim_ms", [](const Layers &l) {
        return l.flows ? l.flowSimS * 1e3 / static_cast<double>(l.flows)
                       : 0.0;
    });
    layer("storage.inflight_mean", "flows",
          [](const Layers &l) { return l.inflightMax; });
    layer("net.remote_bytes", "B",
          [](const Layers &l) { return l.remoteBytes; });
    layer("oscache.reads", "count",
          [](const Layers &l) { return l.pageCache.reads; });
    layer("oscache.writes", "count",
          [](const Layers &l) { return l.pageCache.writes; });
    layer("oscache.hit_ratio", "ratio",
          [](const Layers &l) { return l.pageCache.hitRatio(); });
    layer("oscache.flush_requests", "count",
          [](const Layers &l) { return l.pageCache.flushRequests; });
    layer("oscache.flushed_gb", "GiB", [](const Layers &l) {
        return doppio::toGiB(l.pageCache.flushedBytes);
    });
    layer("oscache.throttled_writes", "count",
          [](const Layers &l) { return l.pageCache.throttledWrites; });
    layer("model.fit_s", "s", [](const Layers &l) { return l.fitWallS; });
    layer("model.sample_runs", "count",
          [](const Layers &l) { return l.sampleRuns; });
    layer("model.sample_run_s", "s",
          [](const Layers &l) { return l.sampleRunWallS; });
    layer("model.fit_self_s", "s", [](const Layers &l) {
        return l.fitWallS - l.sampleRunWallS;
    });
    layer("model.predict_us", "us",
          [](const Layers &l) { return orZero(l.predictUs); });
    add(metrics, "model.error_pct",
        overPasses(traced,
                   [](const PassResult &p) {
                       return std::max(0.0, p.modelErrorPct);
                   }),
        "%");
    layer("cloud.search_ms", "ms",
          [](const Layers &l) { return orZero(l.searchMs); });
    layer("cloud.cells_evaluated", "count",
          [](const Layers &l) { return l.cellsEvaluated; });
    layer("cloud.cells_pruned", "count",
          [](const Layers &l) { return l.cellsPruned; });
    layer("cloud.memo_hits", "count",
          [](const Layers &l) { return l.memoHits; });
    layer("cloud.fallbacks", "count",
          [](const Layers &l) { return l.fallbacks; });
    layer("service.hit_us", "us",
          [](const Layers &l) { return orZero(l.hitUs); });
    layer("service.cache_hit_ratio", "ratio",
          [](const Layers &l) { return l.cacheHitRatio; });
    layer("service.slow_path_runs", "count",
          [](const Layers &l) { return l.slowPathRuns; });
    layer("service.cells_memo_hit", "count",
          [](const Layers &l) { return l.cellsMemoHit; });
    layer("service.cold_split.profile_ms", "ms",
          [](const Layers &l) { return orZero(l.coldProfileMs); });
    layer("service.cold_split.search_ms", "ms",
          [](const Layers &l) { return orZero(l.coldSearchMs); });
    layer("service.cold_split.validate_ms", "ms",
          [](const Layers &l) { return orZero(l.coldValidateMs); });
    const auto wall = [](const PassResult &p) { return p.wallS; };
    add(metrics, "trace.overhead_s",
        overPasses(traced, wall) - overPasses(untraced, wall), "s");
    add(metrics, "trace.spans", static_cast<double>(spans), "count");
}

/**
 * Compare a pass's reference lines ("<op> <quantity> <value>") with
 * the expected ones; a mismatch fails the operation it belongs to.
 */
void
checkReference(PassResult &pass, const std::map<std::string,
                                                std::string> &expected)
{
    std::set<std::string> seen;
    for (const std::string &line : pass.reference) {
        const std::string key = line.substr(0, line.rfind(' '));
        seen.insert(key);
        const auto it = expected.find(key);
        if (it == expected.end() || it->second != line)
            pass.failures.push_back(
                line.substr(0, line.find(' ')) + ": reference expects '" +
                (it == expected.end() ? std::string("nothing")
                                      : it->second) +
                "', got '" + line + "'");
    }
    for (const auto &[key, line] : expected) {
        if (!seen.count(key))
            pass.failures.push_back("reference: '" + line +
                                    "' was not produced");
    }
}

/**
 * Fold the pass's failures into its operations: a failure names its
 * operation first; one that names none fails every operation.
 */
void
markFailedOps(PassResult &pass)
{
    for (const std::string &failure : pass.failures) {
        const std::string label = failure.substr(0, failure.find(':'));
        bool matched = false;
        for (OpRecord &op : pass.ops) {
            if (op.label == label) {
                op.ok = false;
                matched = true;
            }
        }
        if (!matched) {
            for (OpRecord &op : pass.ops)
                op.ok = false;
        }
    }
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    auto workload = makeBenchWorkload(args.workload, args.seed);
    if (workload == nullptr) {
        std::string names;
        for (const std::string &name : benchWorkloadNames())
            names += " " + name;
        usage("unknown workload '" + args.workload + "' (one of" + names +
              ")");
    }
    workload->prepare();
    if (args.setupOnly)
        return 0;

    std::map<std::string, std::string> expected;
    const bool checkRef =
        args.seed == kDefaultSeed && !args.reference.empty();
    if (checkRef) {
        std::ifstream in(args.reference);
        if (!in) {
            std::cerr << "perfbench: cannot read " << args.reference
                      << "\n";
            return 2;
        }
        for (std::string line; std::getline(in, line);) {
            if (!line.empty())
                expected[line.substr(0, line.rfind(' '))] = line;
        }
    }

    Tracer tracer;
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    const Clock::time_point start = Clock::now();
    bool nextTraced = false;
    do {
        const bool tracedPass = args.trace && nextTraced;
        tracer.setEnabled(tracedPass);
        PassResult pass = workload->pass(tracer, tracedPass);
        if (checkRef)
            checkReference(pass, expected);
        markFailedOps(pass);
        for (const std::string &failure : pass.failures)
            std::cerr << "FAILED " << failure << "\n";
        (tracedPass ? traced : untraced).push_back(std::move(pass));
        nextTraced = !nextTraced;
    } while (secondsSince(start) < args.seconds ||
             (args.trace && traced.empty()));

    if (!args.writeReference.empty()) {
        std::ofstream out(args.writeReference);
        for (const std::string &line : untraced.front().reference)
            out << line << "\n";
    }
    if (args.trace && !args.spans.empty() &&
        !tracer.writeJson(args.spans)) {
        std::cerr << "perfbench: cannot write " << args.spans << "\n";
        return 2;
    }

    Metrics metrics;
    endToEnd(untraced, metrics);
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    add(metrics, "peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
        "MB");
    if (args.trace)
        perLayer(traced, untraced, tracer.spans().size(), metrics);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    for (const auto *passes : {&untraced, &traced}) {
        for (const PassResult &pass : *passes) {
            for (const OpRecord &op : pass.ops) {
                ++attempted;
                failed += op.ok ? 0 : 1;
            }
            failures.insert(failures.end(), pass.failures.begin(),
                            pass.failures.end());
        }
    }

    std::string json = "{\"correct\":";
    json += failures.empty() ? "true" : "false";
    json += ",\"attempted\":" + std::to_string(attempted) +
            ",\"failed\":" + std::to_string(failed) +
            ",\"passes\":[" + std::to_string(untraced.size()) + "," +
            std::to_string(traced.size()) + "],\"failures\":[";
    for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
        if (i > 0)
            json += ',';
        json += jsonString(failures[i]);
    }
    json += "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      metrics[i].second.first);
        if (i > 0)
            json += ',';
        json += jsonString(metrics[i].first);
        json += ":{\"value\":";
        json += value;
        json += ",\"unit\":";
        json += jsonString(metrics[i].second.second);
        json += '}';
    }
    json += "}}";
    std::cout << json << std::endl;
    return failures.empty() ? 0 : 1;
}
