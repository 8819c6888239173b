/**
 * @file
 * The fused knowledge-base sweeps' kernel plans: one constant table.
 *
 * The column and baseline engines sweep M_IN/M_OUT in strips of rows.
 * A plan fixes the rows per kernel call and, for the column engine's
 * streaming (EngineConfig::streaming), how many rows ahead of itself
 * each of the kernels' row tiles prefetches (blas::RowLookahead). Each
 * sweep — a storage precision, or the routing "bound" sweep over
 * chunk summaries — has one plan for single-question batches and one
 * for every larger batch. The entries come from one sweep of the real
 * ShardedEngine at KB sizes past the last-level cache
 * (bench/plan_sweep, BENCH_plans.json, DESIGN.md §10); nothing is
 * measured at run time.
 *
 * A plan never changes results: it only decides how a row sweep is
 * split into kernel calls and which rows are prefetched when, and the
 * kernels fix each (query, row) pair's accumulation order however a
 * sweep is split (blas/kernels.hh).
 */

#ifndef MNNFAST_RUNTIME_KERNEL_TUNER_HH
#define MNNFAST_RUNTIME_KERNEL_TUNER_HH

#include <cstddef>
#include <string>

namespace mnnfast::runtime {

/** stripRows value meaning "the whole chunk in one kernel call". */
inline constexpr size_t kWholeChunk = 0;

/**
 * How a fused sweep is split and streamed. stripRows is a multiple of
 * the kernels' 4-row register group (so no strip ends in a row tail)
 * or kWholeChunk; lookaheadRows is the kernels' row look-ahead
 * distance under streaming, 0 = none (the bound sweep ignores it).
 */
struct KernelPlan
{
    size_t stripRows;
    size_t lookaheadRows;
};

/** One sweep's plans: for nq == 1 and for nq >= 2. */
struct PlanEntry
{
    const char *sweep;
    KernelPlan single;
    KernelPlan multi;
};

/**
 * The table (BENCH_plans.json). Every precision sweeps whole chunks:
 * one call per chunk amortizes the per-call query packing and int8
 * query sums. The table has no kernel-tier key (DESIGN.md §10).
 */
inline constexpr PlanEntry kPlanTable[] = {
    {"f32", {kWholeChunk, 8}, {kWholeChunk, 8}},
    {"bf16", {kWholeChunk, 16}, {kWholeChunk, 16}},
    {"i8", {kWholeChunk, 32}, {kWholeChunk, 32}},
    {"bound", {kWholeChunk, 0}, {16, 0}},
};

/**
 * The plan for a sweep over `sweep` rows ("f32", "bf16", "i8" or
 * "bound") at `nq` questions; an unknown sweep name is fatal.
 */
KernelPlan kernelPlan(const char *sweep, size_t nq);

/**
 * While alive, every kernelPlan() lookup returns `plan`. For
 * bench/plan_sweep, which times candidate plans through the real
 * engines, and for tests that pin a split; set it between inference
 * calls, never during one. A strip that is neither kWholeChunk nor a
 * multiple of 4 is fatal.
 */
class PlanOverride
{
  public:
    explicit PlanOverride(KernelPlan plan);
    ~PlanOverride();
    PlanOverride(const PlanOverride &) = delete;
    PlanOverride &operator=(const PlanOverride &) = delete;

  private:
    KernelPlan plan;
    const KernelPlan *previous;
};

/**
 * The handle tools used when plans were measured at startup; kept so
 * they still build. Nothing is measured, so clear() has nothing to
 * drop.
 */
class KernelTuner
{
  public:
    static KernelTuner &instance();
    void clear() {}
    /**
     * kPlanTable as {"backend": ..., "entries": [{"precision": "f32",
     * "ed": null, "nq": 1, "strip_rows": 16, "prefetch_stride": 0,
     * "lookahead_rows": 16, "origin": "default"}, ...]}; "nq": 2
     * entries serve every nq >= 2, "ed": null every dimension, and
     * "strip_rows": "chunk" is kWholeChunk. "prefetch_stride" is
     * always 0: the engines no longer prefetch the next chunk (the
     * key stays for readers of older records).
     */
    std::string exportJson() const;
};

} // namespace mnnfast::runtime

#endif // MNNFAST_RUNTIME_KERNEL_TUNER_HH
