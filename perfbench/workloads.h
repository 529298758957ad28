/**
 * @file
 * The benchmark's three workloads. One pass replays a workload once
 * from its seed-generated inputs; main.cpp repeats passes for the
 * run's duration.
 */

#ifndef DOPPIO_PERFBENCH_WORKLOADS_H
#define DOPPIO_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/** The seed the paper binaries use (ClusterConfig's default). */
constexpr std::uint64_t kDefaultSeed = 42;

/** One operation: an application run, a model fit or a plan query. */
struct OpRecord
{
    enum class Kind { Cold, Warm, Hit };

    std::string label;
    Kind kind = Kind::Cold;
    double ms = 0.0; //!< host milliseconds
    bool ok = true;
};

/** What one pass measured and checked. */
struct PassResult
{
    double wallS = 0.0;
    std::vector<OpRecord> ops;
    Layers layers;
    std::vector<std::string> failures; //!< "<op>: <what failed>"
    /** "<op> <quantity> <value>" lines for the default-seed check. */
    std::vector<std::string> reference;
    double modelErrorPct = -1.0; //!< Eq. 1 vs exp; < 0 = not measured
};

/** A workload of the benchmark. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /**
     * Set-up before the first measured call: derive the inputs from
     * the seed and provision each simulated cluster once, so lazy
     * initialisation is not timed inside the first pass.
     */
    virtual void prepare() = 0;

    /** Run one pass; @p traced adds spans and storage observers. */
    virtual PassResult pass(Tracer &tracer, bool traced) = 0;
};

/** @return the workload called @p name, or nullptr if unknown. */
std::unique_ptr<BenchWorkload> makeBenchWorkload(const std::string &name,
                                                 std::uint64_t seed);

/** @return the names makeBenchWorkload() accepts. */
std::vector<std::string> benchWorkloadNames();

} // namespace perfbench

#endif // DOPPIO_PERFBENCH_WORKLOADS_H
