#include "runtime/kernel_tuner.hh"

#include <atomic>
#include <cstring>
#include <sstream>

#include "blas/kernels.hh"
#include "util/logging.hh"

namespace mnnfast::runtime {

namespace {

std::atomic<const KernelPlan *> overridePlan{nullptr};

/** A strip off the kernels' 4-row register grid would be silently
 *  rounded: the caller would ask for one split and run another. */
KernelPlan
checkedPlan(KernelPlan plan)
{
    if (plan.stripRows % 4 != 0)
        fatal("PlanOverride strip of %zu rows is not a multiple of 4",
              plan.stripRows);
    return plan;
}

} // namespace

KernelPlan
kernelPlan(const char *sweep, size_t nq)
{
    if (const KernelPlan *p = overridePlan.load(std::memory_order_acquire))
        return *p;
    for (const PlanEntry &e : kPlanTable)
        if (std::strcmp(e.sweep, sweep) == 0)
            return nq <= 1 ? e.single : e.multi;
    panic("no kernel plan for sweep '%s'", sweep);
}

PlanOverride::PlanOverride(KernelPlan plan)
    : plan(checkedPlan(plan)),
      previous(overridePlan.exchange(&this->plan))
{}

PlanOverride::~PlanOverride() { overridePlan.store(previous); }

KernelTuner &
KernelTuner::instance()
{
    static KernelTuner tuner;
    return tuner;
}

std::string
KernelTuner::exportJson() const
{
    std::ostringstream os;
    os << "{\"backend\": \"" << blas::kernelBackendName()
       << "\", \"entries\": [";
    const char *sep = "";
    for (const PlanEntry &e : kPlanTable) {
        for (size_t nq : {size_t{1}, size_t{2}}) {
            const KernelPlan &p = nq == 1 ? e.single : e.multi;
            os << sep << "\n  {\"precision\": \"" << e.sweep
               << "\", \"ed\": null, \"nq\": " << nq
               << ", \"strip_rows\": ";
            if (p.stripRows == kWholeChunk)
                os << "\"chunk\"";
            else
                os << p.stripRows;
            os << ", \"prefetch_stride\": 0, \"lookahead_rows\": "
               << p.lookaheadRows << ", \"origin\": \"default\"}";
            sep = ",";
        }
    }
    os << "\n]}";
    return os.str();
}

} // namespace mnnfast::runtime
