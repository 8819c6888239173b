/**
 * @file
 * Reproduces paper Figure 9: "Performance of column-based algorithm
 * on CPU."
 *
 *  (a) Per-operator latency breakdown (inner product / softmax /
 *      weighted sum / other) of the four real engines, measured on
 *      this machine single-threaded: inline, each phase's seconds are
 *      its wall-clock, whereas a pooled engine's phases overlap
 *      across workers and are only apportioned by the worker count.
 *      Thread scaling is part (b)'s job: 4 shared vCPUs cannot show
 *      the paper's 24-core curve (see EXPERIMENTS.md).
 *  (b) Speedup over the baseline vs. thread count, projected with the
 *      traffic + CPU timing model at 4 DRAM channels (paper: MnnFast
 *      reaches 5.38x at 20 threads, 4.02x on average).
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "core/baseline_engine.hh"
#include "core/column_engine.hh"
#include "sim/cpu_system.hh"
#include "sim/traffic.hh"
#include "stats/table.hh"
#include "util/rng.hh"
#include "util/timer.hh"

using namespace mnnfast;

int
main()
{
    bench::banner("Figure 9: column-based algorithm on CPU",
                  "(a) measured per-operator latency breakdown; "
                  "(b) projected thread scaling at 4 DRAM channels.");

    // ---- (a) Real engines, measured. ----
    const size_t ns = 1 << 18; // 262144 sentences
    const size_t ed = 48;      // Table 1 CPU column
    const size_t nq = 8;
    const size_t reps = 5;

    std::printf("\n(a) measured per-operator latency, ns=%zu ed=%zu "
                "nq=%zu, single thread, %zu reps\n\n",
                ns, ed, nq, reps);

    // Attention-realistic knowledge base: ~2% of the rows correlate
    // with the question batch (the sparsity a trained network shows,
    // Fig. 6), so zero-skipping keeps a realistic fraction of rows.
    XorShiftRng rng(4);
    std::vector<float> u(nq * ed), o(nq * ed);
    for (size_t e = 0; e < ed; ++e)
        u[e] = rng.uniformRange(-0.3f, 0.3f);
    for (size_t q = 1; q < nq; ++q)
        for (size_t e = 0; e < ed; ++e)
            u[q * ed + e] = u[e] + rng.uniformRange(-0.02f, 0.02f);
    const core::KnowledgeBase kb = bench::makeAttentionKb(
        ns, ed, u.data(), /*hot_fraction=*/0.02, /*hot_dot=*/4.0f,
        /*cold_dot=*/-2.0f, /*seed=*/3);

    struct Variant
    {
        const char *name;
        std::unique_ptr<core::InferenceEngine> engine;
    };
    std::vector<Variant> variants;
    {
        core::EngineConfig cfg;
        cfg.chunkSize = 1000; // paper: 1000-sentence chunks
        variants.push_back(
            {"baseline",
             std::make_unique<core::BaselineEngine>(kb, cfg)});
        variants.push_back(
            {"column", std::make_unique<core::ColumnEngine>(kb, cfg)});
        core::EngineConfig scfg = cfg;
        scfg.streaming = true;
        variants.push_back(
            {"column+stream",
             std::make_unique<core::ColumnEngine>(kb, scfg)});
        core::EngineConfig mcfg = scfg;
        mcfg.skipThreshold = 0.1f;
        variants.push_back(
            {"mnnfast",
             std::make_unique<core::ColumnEngine>(kb, mcfg)});
    }

    // Warm every engine once, then interleave the measured reps
    // round-robin so slow drift on a shared host hits all variants
    // equally.
    std::vector<double> totals(variants.size(), 0.0);
    for (auto &v : variants) {
        v.engine->inferBatch(u.data(), nq, o.data());
        v.engine->clearBreakdown();
    }
    for (size_t r = 0; r < reps; ++r) {
        for (size_t i = 0; i < variants.size(); ++i) {
            Timer t;
            variants[i].engine->inferBatch(u.data(), nq, o.data());
            totals[i] += t.seconds();
        }
    }

    stats::Table breakdown({"engine", "inner (ms)", "softmax (ms)",
                            "wsum (ms)", "other (ms)", "total (ms)",
                            "speedup"});
    const double baseline_total = totals[0];
    for (size_t i = 0; i < variants.size(); ++i) {
        const auto &bd = variants[i].engine->breakdown();
        const double scale = 1e3 / reps;
        breakdown.addRow(
            {variants[i].name,
             stats::Table::num(bd.innerProduct * scale, 2),
             stats::Table::num(bd.softmax * scale, 2),
             stats::Table::num(bd.weightedSum * scale, 2),
             stats::Table::num(bd.other * scale, 2),
             stats::Table::num(totals[i] * 1e3 / reps, 2),
             stats::Table::num(baseline_total / totals[i], 2)});
    }
    breakdown.print();

    const auto &mnn = *variants.back().engine;
    const uint64_t kept = mnn.counters().value("rows_kept");
    const uint64_t skipped = mnn.counters().value("rows_skipped");
    std::printf("\nmnnfast zero-skipping: %.2f%% of weighted-sum rows "
                "skipped (%llu kept of %llu; at ns=%zu only a handful "
                "of rows can carry p >= 0.1)\n",
                100.0 * double(skipped) / double(kept + skipped),
                static_cast<unsigned long long>(kept),
                static_cast<unsigned long long>(kept + skipped), ns);

    // ---- (b) Thread-scaling projection. ----
    std::printf("\n(b) projected speedup over baseline (same thread "
                "count), 4 DRAM channels\n\n");

    sim::WorkloadParams wp;
    wp.ns = 1 << 17;
    wp.ed = 48;
    wp.nq = 32;
    wp.chunkSize = 1000;
    sim::CacheConfig llc;
    llc.sizeBytes = 30ull << 20;
    llc.associativity = 20;

    const auto t_base =
        sim::simulateDataflow(sim::Dataflow::Baseline, wp, llc);
    const auto t_col =
        sim::simulateDataflow(sim::Dataflow::Column, wp, llc);
    const auto t_str =
        sim::simulateDataflow(sim::Dataflow::ColumnStreaming, wp, llc);
    auto wp_skip = wp;
    wp_skip.zskipKeepFraction = 0.1;
    const auto t_mnn =
        sim::simulateDataflow(sim::Dataflow::MnnFast, wp_skip, llc);

    sim::CpuSystemConfig scfg;
    scfg.dram.channels = 4;
    sim::CpuSystemModel cpu(scfg);

    stats::Table scaling({"threads", "column", "column+stream",
                          "mnnfast"});
    double speedup_sum = 0.0;
    size_t speedup_count = 0;
    double speedup_max = 0.0;
    for (size_t t : {1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}) {
        const double base_cycles = cpu.executionCycles(t_base, t);
        const double s_col = base_cycles / cpu.executionCycles(t_col, t);
        const double s_str = base_cycles / cpu.executionCycles(t_str, t);
        const double s_mnn = base_cycles / cpu.executionCycles(t_mnn, t);
        scaling.addRow({std::to_string(t), stats::Table::num(s_col, 2),
                        stats::Table::num(s_str, 2),
                        stats::Table::num(s_mnn, 2)});
        speedup_sum += s_mnn;
        speedup_max = std::max(speedup_max, s_mnn);
        ++speedup_count;
    }
    scaling.print();
    std::printf("\nmnnfast vs baseline: max %.2fx, mean %.2fx "
                "(paper: up to 5.38x, mean 4.02x)\n",
                speedup_max, speedup_sum / speedup_count);
    return 0;
}
