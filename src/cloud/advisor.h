/**
 * @file
 * Constraint-based provisioning advisor on top of the cost optimizer.
 *
 * The paper's case study minimizes unconstrained cost; real
 * provisioning decisions usually carry a deadline ("the batch must
 * finish overnight") or a budget ("at most $X per genome"). The
 * advisor answers both queries over the optimizer's search space.
 */

#ifndef DOPPIO_CLOUD_ADVISOR_H
#define DOPPIO_CLOUD_ADVISOR_H

#include <optional>

#include "cloud/optimizer.h"

namespace doppio::cloud {

/** Constraint queries over the optimizer's configuration space. */
class Advisor
{
  public:
    /** Owns a copy of the optimizer; its bandwidth tables come from
     *  FioProfiler's process-wide memo. */
    explicit Advisor(CostOptimizer optimizer)
        : optimizer_(std::move(optimizer))
    {}

    /**
     * @return the cheapest configuration whose predicted runtime is
     * at most @p deadlineSeconds, or nullopt when no grid point
     * satisfies the deadline.
     */
    std::optional<Evaluation>
    cheapestUnderDeadline(double deadlineSeconds) const;

    /**
     * @return the fastest configuration whose predicted cost is at
     * most @p budgetDollars, or nullopt when no grid point fits the
     * budget.
     */
    std::optional<Evaluation>
    fastestUnderBudget(double budgetDollars) const;

    /**
     * @return every Pareto-optimal (runtime, cost) configuration,
     * sorted by runtime: no other grid point is both faster and
     * cheaper.
     */
    std::vector<Evaluation> paretoFrontier() const;

  private:
    /** Enumerate every configuration in the optimizer's space. */
    std::vector<Evaluation> evaluateAll() const;

    CostOptimizer optimizer_;
};

} // namespace doppio::cloud

#endif // DOPPIO_CLOUD_ADVISOR_H
