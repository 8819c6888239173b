/**
 * @file
 * The sweep behind the kernel plan table (runtime::kPlanTable,
 * DESIGN.md §10): times every candidate (strip rows, look-ahead rows)
 * plan through a real ShardedEngine at KB sizes past the last-level
 * cache and reports, per storage precision and batch size, the best
 * candidate, the table's entry and whether the entry is within noise
 * of the best.
 *
 * Workload (the serving benchmark's shapes): ed=128, 1024-row chunks,
 * 2 shards on 2 threads, streaming on, zero-skip 0.1; a topical KB
 * (runs of rows around a shared centroid) so attention is peaked and
 * zero-skip keeps few rows, as with a trained model. Every precision's
 * KB (M_IN + M_OUT) defaults to twice the LLC that sysfs reports, and
 * at least 512 MiB, so every candidate streams from DRAM; the record
 * states the LLC. Candidates: strip {16, 32, 64, whole chunk} x
 * look-ahead {0, 4, 8, 16, 32} rows, at nq {1, 2, 4, 8, 16}; each
 * sample is one batch, samples of all candidates are interleaved
 * round-robin so host drift hits them alike, and each cell reports the
 * median and quartiles of its samples. The routing bound sweep (no
 * look-ahead) is timed directly on one shard's chunk summaries.
 *
 * The picks: the single-question entry is the best median at nq=1;
 * the multi-question entry minimizes the worst ratio to the best
 * median over nq 2..16. An entry is "within noise" at an nq when its
 * median exceeds the best median by no more than the larger of the
 * two candidates' interquartile ranges.
 *
 * Usage: plan_sweep [--reps N] [--f32-mib M] [--bf16-mib M]
 *                   [--i8-mib M]   (KB MiB per precision)
 * Writes BENCH_plans.json (MNNFAST_BENCH_JSON overrides). Run from the
 * repository root of a Release build: the record names the build
 * type, kernel backend, core count and git revision.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "blas/kernels.hh"
#include "core/chunk_summary_index.hh"
#include "core/sharded_engine.hh"
#include "core/sharded_knowledge_base.hh"
#include "runtime/kernel_tuner.hh"
#include "util/rng.hh"
#include "util/timer.hh"

using namespace mnnfast;

namespace {

constexpr size_t kDim = 128;
constexpr size_t kChunk = 1024;
constexpr size_t kShards = 2;
constexpr float kSkip = 0.1f;
constexpr size_t kTopics = 64;
constexpr size_t kBatches = 8; ///< distinct question batches cycled
const size_t kNq[] = {1, 2, 4, 8, 16};
const size_t kStrips[] = {16, 32, 64, runtime::kWholeChunk};
const size_t kLookahead[] = {0, 4, 8, 16, 32};

/** Seeded topical rows: each run of 2 chunks shares a topic centroid. */
struct Topics
{
    std::vector<float> centroids; ///< kTopics x kDim

    explicit Topics(uint64_t seed)
    {
        XorShiftRng rng(seed);
        centroids.resize(kTopics * kDim);
        for (float &v : centroids)
            v = rng.uniformRange(-0.5f, 0.5f);
    }

    std::unique_ptr<core::KnowledgeBase>
    kb(core::Precision prec, size_t rows) const
    {
        auto kb = std::make_unique<core::KnowledgeBase>(kDim, prec, kChunk);
        kb->reserve(rows);
        XorShiftRng rng(7);
        std::vector<float> a(kDim), b(kDim);
        for (size_t r = 0; r < rows; ++r) {
            const float *c =
                centroids.data() + ((r / (2 * kChunk)) * 37 % kTopics) * kDim;
            for (size_t d = 0; d < kDim; ++d) {
                a[d] = c[d] + rng.uniformRange(-0.2f, 0.2f);
                b[d] = rng.uniformRange(-1.f, 1.f);
            }
            kb->addSentence(a.data(), b.data());
        }
        return kb;
    }

    /** kBatches x 16 questions, each a topic centroid plus noise. */
    std::vector<float>
    questions() const
    {
        XorShiftRng rng(9);
        std::vector<float> u(kBatches * 16 * kDim);
        for (size_t q = 0; q < kBatches * 16; ++q) {
            const float *c = centroids.data() + rng.below(kTopics) * kDim;
            for (size_t d = 0; d < kDim; ++d)
                u[q * kDim + d] = c[d] + rng.uniformRange(-0.1f, 0.1f);
        }
        return u;
    }
};

struct Stats
{
    double median = 0, q1 = 0, q3 = 0;
    double iqr() const { return q3 - q1; }
};

Stats
summarize(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    auto at = [&](double p) {
        const double x = p * double(v.size() - 1);
        const size_t i = static_cast<size_t>(x);
        const double f = x - double(i);
        return i + 1 < v.size() ? v[i] * (1 - f) + v[i + 1] * f : v[i];
    };
    return {at(0.5), at(0.25), at(0.75)};
}

struct Cell
{
    runtime::KernelPlan plan;
    std::vector<Stats> byNq; ///< parallel to kNq
};

void
writePlan(bench::JsonWriter &js, const runtime::KernelPlan &p)
{
    if (p.stripRows == runtime::kWholeChunk)
        js.field("strip", "chunk");
    else
        js.field("strip", p.stripRows);
    js.field("lookahead", p.lookaheadRows);
}

/** "16/la8", "chunk/la0": a plan for the console summary. */
std::string
planName(const runtime::KernelPlan &p)
{
    return (p.stripRows == runtime::kWholeChunk
                ? std::string("chunk")
                : std::to_string(p.stripRows))
         + "/la" + std::to_string(p.lookaheadRows);
}

bool
samePlan(const runtime::KernelPlan &a, const runtime::KernelPlan &b)
{
    return a.stripRows == b.stripRows
        && a.lookaheadRows == b.lookaheadRows;
}

/**
 * Per-nq verdicts for one sweep plus the picks; returns false if a
 * table entry is outside the noise band of the best candidate.
 */
bool
report(bench::JsonWriter &js, const char *sweep,
       const std::vector<Cell> &cells, size_t n_nq)
{
    bool all_within = true;
    js.key("by_nq");
    js.beginArray();
    std::vector<double> best(n_nq);
    for (size_t k = 0; k < n_nq; ++k) {
        const size_t nq = kNq[k];
        size_t b = 0, t = 0;
        const runtime::KernelPlan table = runtime::kernelPlan(sweep, nq);
        for (size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].byNq[k].median < cells[b].byNq[k].median)
                b = i;
            if (samePlan(cells[i].plan, table))
                t = i;
        }
        best[k] = cells[b].byNq[k].median;
        const Stats &sb = cells[b].byNq[k], &st = cells[t].byNq[k];
        const bool within =
            st.median - sb.median <= std::max(sb.iqr(), st.iqr());
        all_within &= within;
        js.beginObject();
        js.field("nq", nq);
        js.key("best");
        js.beginObject();
        writePlan(js, cells[b].plan);
        js.field("median_ms", sb.median * 1e3);
        js.field("iqr_ms", sb.iqr() * 1e3);
        js.endObject();
        js.key("table");
        js.beginObject();
        writePlan(js, cells[t].plan);
        js.field("median_ms", st.median * 1e3);
        js.field("iqr_ms", st.iqr() * 1e3);
        js.endObject();
        js.field("table_over_best", st.median / sb.median);
        js.field("table_within_noise", within);
        js.endObject();
        std::printf("  %-5s nq=%-2zu best %-9s %.3f ms (iqr %.3f)  "
                    "table %-9s %.3f ms x%.3f %s\n",
                    sweep, nq, planName(cells[b].plan).c_str(),
                    sb.median * 1e3, sb.iqr() * 1e3,
                    planName(cells[t].plan).c_str(), st.median * 1e3,
                    st.median / sb.median,
                    within ? "within noise" : "OUTSIDE NOISE");
    }
    js.endArray();

    // Picks: best at nq=1; minimax ratio over the multi-question nq.
    size_t single = 0, multi = 0;
    double multi_worst = 1e300;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].byNq[0].median < cells[single].byNq[0].median)
            single = i;
        double worst = 0;
        for (size_t k = 1; k < n_nq; ++k)
            worst = std::max(worst, cells[i].byNq[k].median / best[k]);
        if (worst < multi_worst) {
            multi_worst = worst;
            multi = i;
        }
    }
    js.key("picked");
    js.beginObject();
    js.key("single");
    js.beginObject();
    writePlan(js, cells[single].plan);
    js.endObject();
    js.key("multi");
    js.beginObject();
    writePlan(js, cells[multi].plan);
    js.field("worst_ratio_to_best", multi_worst);
    js.endObject();
    js.endObject();
    return all_within;
}

void
writeCells(bench::JsonWriter &js, const std::vector<Cell> &cells,
           size_t n_nq)
{
    js.key("cells");
    js.beginArray();
    for (const Cell &c : cells) {
        for (size_t k = 0; k < n_nq; ++k) {
            js.beginObject();
            js.field("nq", kNq[k]);
            writePlan(js, c.plan);
            js.field("median_ms", c.byNq[k].median * 1e3);
            js.field("q1_ms", c.byNq[k].q1 * 1e3);
            js.field("q3_ms", c.byNq[k].q3 * 1e3);
            js.endObject();
        }
    }
    js.endArray();
}

/** Sweep every candidate through a ShardedEngine over `kb`. */
std::vector<Cell>
sweepEngine(const core::KnowledgeBase &kb, const std::vector<float> &u,
            size_t reps, double &kept_frac)
{
    core::ShardedKnowledgeBase skb(kb, kChunk, kShards);
    core::EngineConfig cfg;
    cfg.chunkSize = kChunk;
    cfg.threads = kShards;
    cfg.streaming = true;
    cfg.skipThreshold = kSkip;
    core::ShardedEngine engine(skb, cfg);

    std::vector<Cell> cells;
    for (size_t s : kStrips)
        for (size_t la : kLookahead)
            cells.push_back({{s, la}, {}});
    std::vector<float> o(16 * kDim);
    Timer timer;
    for (size_t nq : kNq) {
        std::vector<std::vector<double>> samples(cells.size());
        for (size_t rep = 0; rep < reps + 1; ++rep) {
            // Rotate the candidate order every round; round 0 warms up.
            for (size_t j = 0; j < cells.size(); ++j) {
                const size_t i = (j + rep) % cells.size();
                const runtime::PlanOverride pin(cells[i].plan);
                const float *q = u.data() + (rep % kBatches) * 16 * kDim;
                timer.reset();
                engine.inferBatch(q, nq, o.data());
                if (rep > 0)
                    samples[i].push_back(timer.seconds());
            }
        }
        for (size_t i = 0; i < cells.size(); ++i)
            cells[i].byNq.push_back(summarize(samples[i]));
    }
    const uint64_t kept = engine.counters().value("rows_kept");
    const uint64_t skipped = engine.counters().value("rows_skipped");
    kept_frac = double(kept) / double(std::max<uint64_t>(1, kept + skipped));
    return cells;
}

/** Time the bound sweep's strip splits over one shard's summaries. */
std::vector<Cell>
sweepBound(const core::KnowledgeBase &kb, const std::vector<float> &u,
           size_t reps)
{
    // Shard 0's summaries: the rows one shard engine's bound sweep
    // scores per batch.
    const core::ChunkSummaryIndex index(kb, kChunk);
    const size_t n_g = kb.size() / kChunk / kShards;
    std::vector<Cell> cells;
    for (size_t s : kStrips)
        cells.push_back({{s, 0}, {}});
    std::vector<float> scores(16 * n_g);
    constexpr int kCallsPerSample = 64;
    Timer timer;
    for (size_t nq : kNq) {
        std::vector<std::vector<double>> samples(cells.size());
        for (size_t rep = 0; rep < reps + 1; ++rep) {
            for (size_t j = 0; j < cells.size(); ++j) {
                const size_t i = (j + rep) % cells.size();
                const size_t strip =
                    cells[i].plan.stripRows == runtime::kWholeChunk
                        ? n_g
                        : cells[i].plan.stripRows;
                timer.reset();
                for (int call = 0; call < kCallsPerSample; ++call)
                    for (size_t s0 = 0; s0 < n_g; s0 += strip)
                        blas::chunkBoundBatch(
                            u.data(), nq, kDim,
                            index.loData() + s0 * kDim,
                            index.hiData() + s0 * kDim,
                            std::min(strip, n_g - s0), kDim, kDim,
                            scores.data() + s0, n_g);
                if (rep > 0)
                    samples[i].push_back(timer.seconds()
                                         / kCallsPerSample);
            }
        }
        for (size_t i = 0; i < cells.size(); ++i)
            cells[i].byNq.push_back(summarize(samples[i]));
    }
    return cells;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const size_t reps = args.sizeOpt("reps", 21);
    const size_t llc = bench::llcBytes();
    const size_t def_mib =
        std::max<size_t>(512, (2 * llc + (1 << 20) - 1) >> 20);
    const size_t mib[] = {args.sizeOpt("f32-mib", def_mib),
                          args.sizeOpt("bf16-mib", def_mib),
                          args.sizeOpt("i8-mib", def_mib)};
    args.finish();
    const core::Precision precs[] = {core::Precision::F32,
                                     core::Precision::BF16,
                                     core::Precision::I8};

    const bench::StealClock steal;
    const Topics topics(3);
    const std::vector<float> u = topics.questions();
    bench::JsonWriter js(bench::benchJsonPath("BENCH_plans.json"));
    js.beginObject();
    js.field("bench", "plan_sweep");
    js.key("provenance");
    js.beginObject();
    js.field("build_type", MNNFAST_BUILD_TYPE);
    js.field("backend", blas::kernelBackendName());
    js.field("nproc", size_t{std::thread::hardware_concurrency()});
    js.field("git_revision", bench::gitRevision().c_str());
    js.field("worktree_dirty",
             !bench::shell("git status --porcelain --untracked-files=no "
                           "-- src bench 2>/dev/null")
                  .empty());
    js.field("source_digest", bench::sourceDigest().c_str());
    js.field("llc_bytes", llc);
    js.endObject();
    js.key("config");
    js.beginObject();
    js.field("ed", kDim);
    js.field("chunk", kChunk);
    js.field("shards", kShards);
    js.field("threads", kShards);
    js.field("zero_skip", double(kSkip));
    js.field("streaming", true);
    js.field("reps", reps);
    js.endObject();

    bool within = true;
    std::vector<Cell> bound;
    size_t bound_chunks = 0;
    js.key("sweeps");
    js.beginArray();
    for (size_t p = 0; p < 3; ++p) {
        const size_t elem = core::precisionBytes(precs[p]);
        const size_t rows =
            (mib[p] << 20) / (2 * kDim * elem) / (kShards * kChunk)
            * (kShards * kChunk);
        const char *name = core::precisionName(precs[p]);
        std::printf("%s: %zu MiB (%.2f x LLC), %zu rows\n", name, mib[p],
                    llc ? double(mib[p] << 20) / double(llc) : 0.0, rows);
        auto kb = topics.kb(precs[p], rows);
        double kept_frac = 0;
        const std::vector<Cell> cells = sweepEngine(*kb, u, reps, kept_frac);
        js.beginObject();
        js.field("precision", name);
        js.field("kb_mib", mib[p]);
        js.field("kb_over_llc",
                 llc ? double(mib[p] << 20) / double(llc) : 0.0);
        js.field("rows", rows);
        js.field("rows_kept_frac", kept_frac);
        within &= report(js, name, cells, std::size(kNq));
        writeCells(js, cells, std::size(kNq));
        js.endObject();
        if (precs[p] == core::Precision::F32) {
            bound_chunks = kb->size() / kChunk / kShards;
            std::printf("bound: %zu chunk summaries per shard\n",
                        bound_chunks);
            bound = sweepBound(*kb, u, reps);
        }
    }
    js.endArray();

    js.key("bound");
    js.beginObject();
    js.field("chunks_per_shard", bound_chunks);
    report(js, "bound", bound, std::size(kNq));
    writeCells(js, bound, std::size(kNq));
    js.endObject();

    js.raw("kernel_tuner", runtime::KernelTuner::instance().exportJson());
    js.field("table_within_noise", within);
    const double steal_frac = steal.frac();
    const bool comparable = steal_frac <= bench::kMaxStealFrac;
    js.field("cpu_steal_frac", steal_frac);
    js.field("comparable", comparable);
    js.endObject();
    std::printf("cpu steal %.1f%% of the run: %s\n", 100 * steal_frac,
                comparable ? "comparable"
                           : "NON-COMPARABLE (above the steal bound)");
    std::printf("table within noise of the best candidate (f32, bf16, i8): "
                "%s\nwrote %s\n",
                within ? "yes" : "NO", js.path().c_str());
    return 0;
}
