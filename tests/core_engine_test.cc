/**
 * @file
 * Tests for the inference engines: algebraic equivalence of the
 * column-based lazy softmax with the baseline dataflow, chunk-size
 * invariance, streaming equivalence, zero-skipping safety, online
 * normalization, threading, and the per-engine statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "blas/kernels.hh"
#include "core/baseline_engine.hh"
#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
#include "util/bf16.hh"
#include "util/rng.hh"
#include "util/timer.hh"

namespace mnnfast::core {
namespace {

/** Build a KB of ns random sentences with small-magnitude values. */
KnowledgeBase
randomKb(size_t ns, size_t ed, uint64_t seed, float scale = 0.5f,
         Precision prec = Precision::F32,
         size_t i8_chunk_rows = kI8ChunkRowsDefault)
{
    KnowledgeBase kb(ed, prec, i8_chunk_rows);
    kb.reserve(ns);
    XorShiftRng rng(seed);
    std::vector<float> min_row(ed), mout_row(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            min_row[e] = rng.uniformRange(-scale, scale);
            mout_row[e] = rng.uniformRange(-scale, scale);
        }
        kb.addSentence(min_row.data(), mout_row.data());
    }
    return kb;
}

std::vector<float>
randomBatch(size_t nq, size_t ed, uint64_t seed, float scale = 0.5f)
{
    XorShiftRng rng(seed);
    std::vector<float> u(nq * ed);
    for (float &x : u)
        x = rng.uniformRange(-scale, scale);
    return u;
}

/** Reference: direct softmax-weighted sum in double precision. */
std::vector<float>
referenceOutput(const KnowledgeBase &kb, const float *u, size_t nq)
{
    const size_t ns = kb.size();
    const size_t ed = kb.dim();
    std::vector<float> out(nq * ed, 0.f);
    std::vector<double> p(ns);
    for (size_t q = 0; q < nq; ++q) {
        double s = 0.0;
        for (size_t i = 0; i < ns; ++i) {
            double dot = 0.0;
            for (size_t e = 0; e < ed; ++e)
                dot += double(u[q * ed + e]) * kb.minRow(i)[e];
            p[i] = std::exp(dot);
            s += p[i];
        }
        for (size_t i = 0; i < ns; ++i) {
            const double w = p[i] / s;
            for (size_t e = 0; e < ed; ++e)
                out[q * ed + e] +=
                    static_cast<float>(w * kb.moutRow(i)[e]);
        }
    }
    return out;
}

void
expectClose(const std::vector<float> &a, const std::vector<float> &b,
            double tol = 1e-4)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(a[i], b[i], tol) << "index " << i;
}

TEST(BaselineEngine, MatchesReference)
{
    const size_t ns = 500, ed = 16, nq = 3;
    const KnowledgeBase kb = randomKb(ns, ed, 1);
    const auto u = randomBatch(nq, ed, 2);

    EngineConfig cfg;
    BaselineEngine engine(kb, cfg);
    std::vector<float> o(nq * ed);
    engine.inferBatch(u.data(), nq, o.data());

    expectClose(o, referenceOutput(kb, u.data(), nq));
}

TEST(BaselineEngine, EmptyKbPanics)
{
    KnowledgeBase kb(8);
    EngineConfig cfg;
    BaselineEngine engine(kb, cfg);
    std::vector<float> u(8, 0.f), o(8);
    EXPECT_DEATH(engine.inferBatch(u.data(), 1, o.data()), "empty");
}

struct ColumnCase
{
    size_t ns;
    size_t ed;
    size_t nq;
    size_t chunk;
    size_t threads;
};

class ColumnEquivalence : public ::testing::TestWithParam<ColumnCase>
{};

TEST_P(ColumnEquivalence, MatchesBaselineDataflow)
{
    const auto c = GetParam();
    const KnowledgeBase kb = randomKb(c.ns, c.ed, 3);
    const auto u = randomBatch(c.nq, c.ed, 4);

    EngineConfig base_cfg;
    BaselineEngine baseline(kb, base_cfg);
    std::vector<float> o_base(c.nq * c.ed);
    baseline.inferBatch(u.data(), c.nq, o_base.data());

    EngineConfig col_cfg;
    col_cfg.chunkSize = c.chunk;
    col_cfg.threads = c.threads;
    ColumnEngine column(kb, col_cfg);
    std::vector<float> o_col(c.nq * c.ed);
    column.inferBatch(u.data(), c.nq, o_col.data());

    expectClose(o_base, o_col);
}

TEST_P(ColumnEquivalence, StreamingDoesNotChangeResults)
{
    const auto c = GetParam();
    const KnowledgeBase kb = randomKb(c.ns, c.ed, 5);
    const auto u = randomBatch(c.nq, c.ed, 6);

    EngineConfig plain_cfg;
    plain_cfg.chunkSize = c.chunk;
    plain_cfg.threads = c.threads;
    ColumnEngine plain(kb, plain_cfg);

    EngineConfig stream_cfg = plain_cfg;
    stream_cfg.streaming = true;
    ColumnEngine streaming(kb, stream_cfg);

    std::vector<float> o_plain(c.nq * c.ed), o_stream(c.nq * c.ed);
    plain.inferBatch(u.data(), c.nq, o_plain.data());
    streaming.inferBatch(u.data(), c.nq, o_stream.data());
    expectClose(o_plain, o_stream, 1e-6);
}

TEST_P(ColumnEquivalence, OnlineNormalizeMatchesPlain)
{
    const auto c = GetParam();
    const KnowledgeBase kb = randomKb(c.ns, c.ed, 7);
    const auto u = randomBatch(c.nq, c.ed, 8);

    EngineConfig plain_cfg;
    plain_cfg.chunkSize = c.chunk;
    plain_cfg.threads = c.threads;
    ColumnEngine plain(kb, plain_cfg);

    EngineConfig online_cfg = plain_cfg;
    online_cfg.onlineNormalize = true;
    ColumnEngine online(kb, online_cfg);

    std::vector<float> o_plain(c.nq * c.ed), o_online(c.nq * c.ed);
    plain.inferBatch(u.data(), c.nq, o_plain.data());
    online.inferBatch(u.data(), c.nq, o_online.data());
    expectClose(o_plain, o_online, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ColumnEquivalence,
    ::testing::Values(ColumnCase{100, 8, 1, 100, 0},   // one chunk
                      ColumnCase{100, 8, 1, 7, 0},     // ragged chunks
                      ColumnCase{1000, 16, 4, 128, 0}, // batch
                      ColumnCase{1000, 16, 4, 128, 3}, // threads
                      ColumnCase{997, 25, 2, 100, 2},  // prime ns
                      ColumnCase{64, 48, 8, 1, 0}));   // chunk of 1

TEST(ColumnEngine, ChunkSizeInvariance)
{
    const size_t ns = 777, ed = 12, nq = 2;
    const KnowledgeBase kb = randomKb(ns, ed, 9);
    const auto u = randomBatch(nq, ed, 10);

    std::vector<float> first;
    for (size_t chunk : {1ul, 10ul, 100ul, 777ul, 10000ul}) {
        EngineConfig cfg;
        cfg.chunkSize = chunk;
        ColumnEngine engine(kb, cfg);
        std::vector<float> o(nq * ed);
        engine.inferBatch(u.data(), nq, o.data());
        if (first.empty())
            first = o;
        else
            expectClose(first, o, 1e-5);
    }
}

TEST(ColumnEngine, ThreadCountInvariance)
{
    const size_t ns = 2048, ed = 16, nq = 3;
    const KnowledgeBase kb = randomKb(ns, ed, 11);
    const auto u = randomBatch(nq, ed, 12);

    std::vector<float> first;
    for (size_t threads : {0ul, 1ul, 2ul, 5ul}) {
        EngineConfig cfg;
        cfg.chunkSize = 100;
        cfg.threads = threads;
        ColumnEngine engine(kb, cfg);
        std::vector<float> o(nq * ed);
        engine.inferBatch(u.data(), nq, o.data());
        if (first.empty())
            first = o;
        else
            expectClose(first, o, 1e-5);
    }
}

TEST(ColumnEngine, OnlineNormalizeSurvivesLargeLogits)
{
    // Scale 8 gives dot products around +-100: raw exp overflows to
    // inf, online rescaling must stay finite and match a double-
    // precision stable reference.
    const size_t ns = 300, ed = 16, nq = 2;
    const KnowledgeBase kb = randomKb(ns, ed, 13, /*scale=*/8.f);
    const auto u = randomBatch(nq, ed, 14, /*scale=*/8.f);

    EngineConfig cfg;
    cfg.chunkSize = 64;
    cfg.onlineNormalize = true;
    ColumnEngine engine(kb, cfg);
    std::vector<float> o(nq * ed);
    engine.inferBatch(u.data(), nq, o.data());

    // Stable double-precision reference with max subtraction.
    const size_t q = 0;
    std::vector<double> dots(ns);
    double m = -1e300;
    for (size_t i = 0; i < ns; ++i) {
        double d = 0.0;
        for (size_t e = 0; e < ed; ++e)
            d += double(u[q * ed + e]) * kb.minRow(i)[e];
        dots[i] = d;
        m = std::max(m, d);
    }
    double s = 0.0;
    for (size_t i = 0; i < ns; ++i)
        s += std::exp(dots[i] - m);
    std::vector<double> ref(ed, 0.0);
    for (size_t i = 0; i < ns; ++i) {
        const double w = std::exp(dots[i] - m) / s;
        for (size_t e = 0; e < ed; ++e)
            ref[e] += w * kb.moutRow(i)[e];
    }
    for (size_t e = 0; e < ed; ++e) {
        ASSERT_TRUE(std::isfinite(o[e]));
        ASSERT_NEAR(o[e], ref[e], 1e-3);
    }
}

TEST(ColumnEngine, ZeroSkipIsConservative)
{
    // Every row skipped by the engine must have true probability
    // below the threshold (the running-sum test can only under-skip).
    const size_t ns = 2000, ed = 16, nq = 1;
    const KnowledgeBase kb = randomKb(ns, ed, 15, /*scale=*/1.5f);
    const auto u = randomBatch(nq, ed, 16, /*scale=*/1.5f);
    const float th = 0.001f;

    EngineConfig cfg;
    cfg.chunkSize = 100;
    cfg.skipThreshold = th;
    ColumnEngine engine(kb, cfg);
    std::vector<float> o(nq * ed);
    engine.inferBatch(u.data(), nq, o.data());

    const uint64_t skipped = engine.counters().value("rows_skipped");
    const uint64_t kept = engine.counters().value("rows_kept");
    EXPECT_EQ(skipped + kept, ns);
    EXPECT_GT(skipped, 0u) << "test needs some skipping to be useful";

    // Count rows whose true probability is >= th; the engine must
    // have kept at least all of them.
    std::vector<double> p(ns);
    double s = 0.0;
    for (size_t i = 0; i < ns; ++i) {
        double d = 0.0;
        for (size_t e = 0; e < ed; ++e)
            d += double(u[e]) * kb.minRow(i)[e];
        p[i] = std::exp(d);
        s += p[i];
    }
    uint64_t must_keep = 0;
    for (size_t i = 0; i < ns; ++i)
        must_keep += p[i] / s >= th;
    EXPECT_GE(kept, must_keep);
}

TEST(ColumnEngine, ZeroSkipOutputStaysCloseToExact)
{
    const size_t ns = 2000, ed = 16, nq = 2;
    const KnowledgeBase kb = randomKb(ns, ed, 17, 1.5f);
    const auto u = randomBatch(nq, ed, 18, 1.5f);

    EngineConfig exact_cfg;
    exact_cfg.chunkSize = 100;
    ColumnEngine exact(kb, exact_cfg);
    std::vector<float> o_exact(nq * ed);
    exact.inferBatch(u.data(), nq, o_exact.data());

    EngineConfig skip_cfg = exact_cfg;
    skip_cfg.skipThreshold = 1e-4f;
    ColumnEngine skip(kb, skip_cfg);
    std::vector<float> o_skip(nq * ed);
    skip.inferBatch(u.data(), nq, o_skip.data());

    // Dropped mass is at most ns * th of the total, so outputs agree
    // to roughly that order.
    expectClose(o_exact, o_skip, 0.3);
}

TEST(ColumnEngine, DivisionCountIsEmbeddingDimensional)
{
    const size_t ns = 4096, ed = 24, nq = 2;
    const KnowledgeBase kb = randomKb(ns, ed, 19);
    const auto u = randomBatch(nq, ed, 20);

    EngineConfig base_cfg;
    BaselineEngine baseline(kb, base_cfg);
    std::vector<float> o(nq * ed);
    baseline.inferBatch(u.data(), nq, o.data());
    EXPECT_EQ(baseline.counters().value("div_ops"), nq * ns);

    EngineConfig col_cfg;
    ColumnEngine column(kb, col_cfg);
    column.inferBatch(u.data(), nq, o.data());
    EXPECT_EQ(column.counters().value("div_ops"), nq * ed);
}

TEST(ColumnEngine, IntermediateFootprintIsChunkSized)
{
    const size_t ns = 50000, ed = 16, nq = 4;
    const KnowledgeBase kb = randomKb(ns, ed, 21);
    const auto u = randomBatch(nq, ed, 22);
    std::vector<float> o(nq * ed);

    EngineConfig base_cfg;
    BaselineEngine baseline(kb, base_cfg);
    baseline.inferBatch(u.data(), nq, o.data());

    EngineConfig col_cfg;
    col_cfg.chunkSize = 1000;
    ColumnEngine column(kb, col_cfg);
    column.inferBatch(u.data(), nq, o.data());

    const uint64_t base_bytes =
        baseline.counters().value("intermediate_bytes");
    const uint64_t col_bytes =
        column.counters().value("intermediate_bytes");
    // Both engines report their full retained scratch. The baseline
    // spills three nq x ns buffers plus its step-3 accumulators; the
    // column engine's footprint is the chunk tile plus the (small)
    // per-group partials — chunk-sized, never ns-sized.
    const uint64_t tile_bytes = uint64_t(nq) * 1000 * sizeof(float);
    EXPECT_GE(base_bytes, 3ull * nq * ns * sizeof(float));
    EXPECT_GE(col_bytes, tile_bytes);
    EXPECT_LE(col_bytes, 2 * tile_bytes);
    EXPECT_LT(col_bytes * 10, base_bytes);

    // The arenas are persistent: a second call at the same batch size
    // reuses the retained capacity, so the reported footprint is
    // stable (no per-call growth).
    column.inferBatch(u.data(), nq, o.data());
    EXPECT_EQ(column.counters().value("intermediate_bytes"), col_bytes);
}

TEST(ColumnEngine, ChunkSizeIsClampedToKbSize)
{
    const size_t ns = 100, ed = 8;
    const KnowledgeBase kb = randomKb(ns, ed, 71);

    EngineConfig cfg;
    cfg.chunkSize = 100000; // far larger than the KB
    ColumnEngine engine(kb, cfg);
    EXPECT_EQ(engine.chunkSize(), ns);

    const auto u = randomBatch(1, ed, 72);
    std::vector<float> o(ed);
    engine.inferBatch(u.data(), 1, o.data());
    EXPECT_EQ(engine.counters().value("chunks_processed"), 1u);
    // Scratch reflects the clamped chunk, not the requested one.
    EXPECT_LT(engine.counters().value("intermediate_bytes"),
              100000 * sizeof(float));

    // A chunk not exceeding the KB is left alone.
    cfg.chunkSize = 64;
    EXPECT_EQ(ColumnEngine(kb, cfg).chunkSize(), 64u);

    // Zero stays fatal.
    cfg.chunkSize = 0;
    EXPECT_DEATH(ColumnEngine(kb, cfg), "nonzero");
}

TEST(ColumnEngine, ChunkCounterMatchesGeometry)
{
    const size_t ns = 1050;
    const KnowledgeBase kb = randomKb(ns, 8, 23);
    const auto u = randomBatch(1, 8, 24);
    std::vector<float> o(8);

    EngineConfig cfg;
    cfg.chunkSize = 100;
    ColumnEngine engine(kb, cfg);
    engine.inferBatch(u.data(), 1, o.data());
    EXPECT_EQ(engine.counters().value("chunks_processed"), 11u);
}

TEST(ColumnEngine, NamesReflectConfiguration)
{
    const KnowledgeBase kb = randomKb(10, 4, 25);
    EngineConfig cfg;
    EXPECT_STREQ(ColumnEngine(kb, cfg).name(), "column");
    cfg.streaming = true;
    EXPECT_STREQ(ColumnEngine(kb, cfg).name(), "column+streaming");
    cfg.skipThreshold = 0.1f;
    EXPECT_STREQ(ColumnEngine(kb, cfg).name(), "mnnfast");
    cfg.streaming = false;
    EXPECT_STREQ(ColumnEngine(kb, cfg).name(), "column+zskip");
}

TEST(ColumnEngine, BreakdownCoversAllPhases)
{
    const KnowledgeBase kb = randomKb(20000, 32, 26);
    const auto u = randomBatch(2, 32, 27);
    std::vector<float> o(2 * 32);

    EngineConfig cfg;
    cfg.chunkSize = 500;
    ColumnEngine engine(kb, cfg);
    engine.inferBatch(u.data(), 2, o.data());

    const OpBreakdown &bd = engine.breakdown();
    EXPECT_GT(bd.innerProduct, 0.0);
    EXPECT_GT(bd.softmax, 0.0);
    EXPECT_GT(bd.weightedSum, 0.0);
    EXPECT_GT(bd.total(), 0.0);

    engine.clearBreakdown();
    EXPECT_EQ(engine.breakdown().total(), 0.0);
}

TEST(ColumnEngine, DynamicAndStaticSchedulesAreBitIdentical)
{
    // The group decomposition (and thus every partial accumulation
    // and the merge order) is a pure function of the config, so the
    // scheduling policy must not change a single output bit.
    const size_t ns = 2048, ed = 24, nq = 3;
    const KnowledgeBase kb = randomKb(ns, ed, 61);
    const auto u = randomBatch(nq, ed, 62);

    for (bool online : {false, true}) {
        EngineConfig cfg;
        cfg.chunkSize = 100;
        cfg.threads = 3;
        cfg.scheduleGroups = 8;
        cfg.streaming = true;
        cfg.skipThreshold = 0.05f;
        cfg.onlineNormalize = online;

        cfg.schedule = Schedule::Dynamic;
        std::vector<float> o_dyn(nq * ed);
        ColumnEngine(kb, cfg).inferBatch(u.data(), nq, o_dyn.data());

        cfg.schedule = Schedule::Static;
        std::vector<float> o_sta(nq * ed);
        ColumnEngine(kb, cfg).inferBatch(u.data(), nq, o_sta.data());

        for (size_t i = 0; i < o_dyn.size(); ++i)
            ASSERT_EQ(o_dyn[i], o_sta[i])
                << "online=" << online << " index " << i;
    }
}

TEST(ColumnEngine, ScheduleCountersMatchAcrossPolicies)
{
    const size_t ns = 3000, ed = 16, nq = 2;
    const KnowledgeBase kb = randomKb(ns, ed, 63);
    const auto u = randomBatch(nq, ed, 64);
    std::vector<float> o(nq * ed);

    uint64_t kept[2], skipped[2];
    const Schedule policies[] = {Schedule::Dynamic, Schedule::Static};
    for (int i = 0; i < 2; ++i) {
        EngineConfig cfg;
        cfg.chunkSize = 128;
        cfg.threads = 2;
        cfg.scheduleGroups = 6;
        cfg.skipThreshold = 0.1f;
        cfg.schedule = policies[i];
        ColumnEngine engine(kb, cfg);
        engine.inferBatch(u.data(), nq, o.data());
        kept[i] = engine.counters().value("rows_kept");
        skipped[i] = engine.counters().value("rows_skipped");
    }
    EXPECT_EQ(kept[0], kept[1]);
    EXPECT_EQ(skipped[0], skipped[1]);
    EXPECT_EQ(kept[0] + skipped[0], uint64_t(nq) * ns);
}

TEST(ColumnEngine, ObserverSeesEveryChunkOnce)
{
    const size_t ns = 1050, ed = 8, nq = 1;
    const KnowledgeBase kb = randomKb(ns, ed, 65);
    const auto u = randomBatch(nq, ed, 66);
    std::vector<float> o(nq * ed);

    EngineConfig cfg;
    cfg.chunkSize = 100; // 11 chunks, last one short
    cfg.threads = 2;
    std::mutex mu;
    std::vector<int> seen(11, 0);
    cfg.chunkObserver = [&](size_t worker, size_t chunk) {
        std::lock_guard<std::mutex> lock(mu);
        ASSERT_LT(chunk, seen.size());
        ASSERT_LT(worker, 2u);
        ++seen[chunk];
    };
    ColumnEngine(kb, cfg).inferBatch(u.data(), nq, o.data());
    for (size_t c = 0; c < seen.size(); ++c)
        EXPECT_EQ(seen[c], 1) << "chunk " << c;
}

TEST(ColumnEngine, DynamicSchedulingBalancesStalledWorkers)
{
    // Engine-level load-balance check under zero-skipping. The first
    // worker to finish a chunk stalls on a latch until the other
    // workers have drained the chunk cursor, so dynamic scheduling must
    // hand every other chunk to them: the stalled worker takes exactly
    // its one chunk (a static split would leave it a quarter). Nothing
    // is timed, so CPU contention cannot flip the outcome.
    constexpr size_t kWorkers = 4, kChunks = 64;
    const size_t ns = 6400, ed = 8, nq = 1; // 64 chunks of 100
    const KnowledgeBase kb = randomKb(ns, ed, 67);
    const auto u = randomBatch(nq, ed, 68);
    std::vector<float> o(nq * ed);

    EngineConfig cfg;
    cfg.chunkSize = 100;
    cfg.threads = kWorkers;
    cfg.scheduleGroups = kChunks; // one chunk per group: max slack
    cfg.skipThreshold = 0.1f;
    cfg.schedule = Schedule::Dynamic;
    std::mutex mu;
    std::condition_variable drained;
    std::vector<size_t> per_worker(kWorkers, 0);
    size_t stalled = kWorkers; // none yet
    size_t others = 0;         // chunks the other workers finished
    bool released = true;
    cfg.chunkObserver = [&](size_t worker, size_t) {
        std::unique_lock<std::mutex> lock(mu);
        ++per_worker[worker];
        if (stalled == kWorkers) {
            stalled = worker;
            // A generous bound, not a timing assumption: it only turns
            // a scheduler that never drains into a failure, not a hang.
            released = drained.wait_for(lock, std::chrono::seconds(60),
                                        [&] { return others == kChunks - 1; });
        } else if (++others == kChunks - 1) {
            drained.notify_all();
        }
    };
    ColumnEngine(kb, cfg).inferBatch(u.data(), nq, o.data());

    ASSERT_TRUE(released) << "the other workers never drained the cursor";
    ASSERT_LT(stalled, kWorkers);
    size_t total = 0;
    for (size_t c : per_worker)
        total += c;
    EXPECT_EQ(total, kChunks);
    EXPECT_EQ(per_worker[stalled], 1u)
        << "the stalled worker took chunks the others could have run";
}

TEST(ColumnEngine, BatchSizeSweepMatchesBaseline)
{
    // The query-blocked dataflow must agree with the baseline at
    // every batch size that exercises a different register-tile
    // shape: odd/even nq, nq crossing the 2-query tile, and nq
    // crossing the kWsumQueryTile dispatch split (16), under every
    // schedule x zero-skip x online-normalize combination.
    const size_t ns = 600, ed = 32, max_nq = 17;
    const KnowledgeBase kb = randomKb(ns, ed, 81);
    const auto u = randomBatch(max_nq, ed, 82);

    for (size_t nq = 1; nq <= max_nq; ++nq) {
        EngineConfig base_cfg;
        BaselineEngine baseline(kb, base_cfg);
        std::vector<float> o_base(nq * ed);
        baseline.inferBatch(u.data(), nq, o_base.data());

        for (Schedule sched : {Schedule::Static, Schedule::Dynamic}) {
            for (bool zskip : {false, true}) {
                for (bool online : {false, true}) {
                    EngineConfig cfg;
                    cfg.chunkSize = 64;
                    cfg.threads = 2;
                    cfg.schedule = sched;
                    cfg.skipThreshold = zskip ? 1e-5f : 0.f;
                    cfg.onlineNormalize = online;
                    ColumnEngine column(kb, cfg);
                    std::vector<float> o_col(nq * ed);
                    column.inferBatch(u.data(), nq, o_col.data());
                    // Zero-skipping drops at most ns * th of the
                    // probability mass; exact paths agree to float
                    // accumulation tolerance.
                    const double tol = zskip ? 5e-2 : 1e-4;
                    for (size_t i = 0; i < o_col.size(); ++i)
                        ASSERT_NEAR(o_base[i], o_col[i], tol)
                            << "nq=" << nq << " sched=" << int(sched)
                            << " zskip=" << zskip
                            << " online=" << online << " index " << i;
                }
            }
        }
    }
}

TEST(ColumnEngine, RepeatedCallsAreBitIdenticalAcrossArenaReuse)
{
    // The scratch arenas persist across inferBatch calls (and get
    // rewound, grown, and coalesced as the batch size moves around);
    // none of that lifecycle may leak into results: the same inputs
    // must produce the same output bits on every call.
    const size_t ns = 1500, ed = 24, nq = 5;
    const KnowledgeBase kb = randomKb(ns, ed, 83);
    const auto u = randomBatch(nq, ed, 84);

    EngineConfig cfg;
    cfg.chunkSize = 128;
    cfg.threads = 2;
    cfg.streaming = true;
    cfg.skipThreshold = 0.01f;
    ColumnEngine engine(kb, cfg);

    std::vector<float> first(nq * ed), again(nq * ed);
    engine.inferBatch(u.data(), nq, first.data());

    // Interleave other batch sizes so the arenas are exercised at
    // several claim layouts, including growth past the first call.
    std::vector<float> other(2 * nq * ed);
    const auto u2 = randomBatch(2 * nq, ed, 85);
    for (size_t n : {1ul, 2 * nq, 3ul}) {
        engine.inferBatch(u2.data(), n, other.data());
    }

    for (int call = 0; call < 3; ++call) {
        engine.inferBatch(u.data(), nq, again.data());
        for (size_t i = 0; i < first.size(); ++i)
            ASSERT_EQ(first[i], again[i])
                << "call " << call << " index " << i;
    }
}

TEST(KnowledgeBase, GrowsAndPreservesRows)
{
    KnowledgeBase kb(4);
    std::vector<float> a = {1, 2, 3, 4}, b = {5, 6, 7, 8};
    for (int i = 0; i < 100; ++i) {
        kb.addSentence(a.data(), b.data());
        a[0] += 1.f;
    }
    EXPECT_EQ(kb.size(), 100u);
    EXPECT_FLOAT_EQ(kb.minRow(0)[0], 1.f);
    EXPECT_FLOAT_EQ(kb.minRow(99)[0], 100.f);
    EXPECT_FLOAT_EQ(kb.moutRow(50)[3], 8.f);
    kb.clear();
    EXPECT_EQ(kb.size(), 0u);
}

TEST(KnowledgeBase, RowOutOfRangePanics)
{
    KnowledgeBase kb(4);
    EXPECT_DEATH(kb.minRow(0), "out of range");
}

TEST(KnowledgeBaseBf16, BytesReflectElementSize)
{
    const size_t ns = 64, ed = 48;
    const KnowledgeBase f32 = randomKb(ns, ed, 91);
    const KnowledgeBase b16 =
        randomKb(ns, ed, 91, 0.5f, Precision::BF16);
    EXPECT_EQ(f32.bytes(), 2 * ns * ed * sizeof(float));
    EXPECT_EQ(b16.bytes(), 2 * ns * ed * sizeof(uint16_t));
    EXPECT_EQ(b16.bytes() * 2, f32.bytes());
    EXPECT_EQ(f32.elemBytes(), sizeof(float));
    EXPECT_EQ(b16.elemBytes(), sizeof(uint16_t));
    EXPECT_STREQ(precisionName(f32.precision()), "f32");
    EXPECT_STREQ(precisionName(b16.precision()), "bf16");
}

TEST(KnowledgeBaseBf16, RowsAreRoundedStorageOfInputs)
{
    // Stored rows must be exactly the round-to-nearest-even bf16 of
    // the added fp32 values, surviving buffer growth.
    const size_t ed = 5;
    KnowledgeBase kb(ed, Precision::BF16);
    XorShiftRng rng(93);
    std::vector<float> min_row(ed), mout_row(ed);
    std::vector<float> all_min, all_mout;
    for (size_t i = 0; i < 100; ++i) { // forces several grows
        for (size_t e = 0; e < ed; ++e) {
            min_row[e] = rng.uniformRange(-2.f, 2.f);
            mout_row[e] = rng.uniformRange(-2.f, 2.f);
        }
        all_min.insert(all_min.end(), min_row.begin(), min_row.end());
        all_mout.insert(all_mout.end(), mout_row.begin(),
                        mout_row.end());
        kb.addSentence(min_row.data(), mout_row.data());
    }
    for (size_t i = 0; i < kb.size(); ++i) {
        for (size_t e = 0; e < ed; ++e) {
            ASSERT_EQ(kb.minRow16(i)[e],
                      bf16FromFloat(all_min[i * ed + e]))
                << "row " << i << " elem " << e;
            ASSERT_EQ(kb.moutRow16(i)[e],
                      bf16FromFloat(all_mout[i * ed + e]))
                << "row " << i << " elem " << e;
        }
    }
}

TEST(KnowledgeBaseBf16, WrongPrecisionAccessorPanics)
{
    KnowledgeBase b16 = randomKb(4, 4, 95, 0.5f, Precision::BF16);
    KnowledgeBase f32 = randomKb(4, 4, 95);
    EXPECT_DEATH(b16.minRow(0), "non-F32");
    EXPECT_DEATH(b16.moutData(), "non-F32");
    EXPECT_DEATH(f32.minRow16(0), "non-BF16");
    EXPECT_DEATH(f32.moutData16(), "non-BF16");
}

TEST(Bf16Engines, ColumnMatchesBaselineOnSameStorage)
{
    // Both engines read the identical bf16 rows, so they only differ
    // in accumulation order — the same tolerance as the fp32
    // column-vs-baseline equivalence applies.
    const size_t ns = 3000, ed = 24, nq = 4;
    const KnowledgeBase kb =
        randomKb(ns, ed, 31, 0.5f, Precision::BF16);
    const auto u = randomBatch(nq, ed, 32);

    EngineConfig cfg;
    BaselineEngine baseline(kb, cfg);
    ColumnEngine column(kb, cfg);
    std::vector<float> ob(nq * ed), oc(nq * ed);
    baseline.inferBatch(u.data(), nq, ob.data());
    column.inferBatch(u.data(), nq, oc.data());
    expectClose(ob, oc);
}

TEST(Bf16Engines, OutputStaysCloseToF32Engine)
{
    // End-to-end deviation bound: rounding every KB element to bf16
    // perturbs each dot by O(|u| |m| ed 2^-8) and each output element
    // by O(scale 2^-8) plus the softmax reweighting. For this
    // geometry the empirical deviation is ~5e-3; 0.02 gives margin
    // while still catching a broken kernel (which is off by O(1)).
    const size_t ns = 4000, ed = 32, nq = 5;
    const KnowledgeBase f32 = randomKb(ns, ed, 33, 0.3f);
    const KnowledgeBase b16 =
        randomKb(ns, ed, 33, 0.3f, Precision::BF16);
    const auto u = randomBatch(nq, ed, 34);

    for (float threshold : {0.0f, 1e-3f}) {
        EngineConfig cfg;
        cfg.skipThreshold = threshold;
        ColumnEngine ef(f32, cfg);
        ColumnEngine eb(b16, cfg);
        std::vector<float> of(nq * ed), ob(nq * ed);
        ef.inferBatch(u.data(), nq, of.data());
        eb.inferBatch(u.data(), nq, ob.data());
        for (size_t i = 0; i < of.size(); ++i)
            ASSERT_NEAR(of[i], ob[i], 0.02)
                << "th=" << threshold << " i=" << i;
    }
}

TEST(Bf16Engines, RepeatedCallsAreBitIdentical)
{
    // Arena reuse and scheduling must stay result-neutral in bf16
    // mode exactly as in fp32 mode.
    const size_t ns = 5000, ed = 16, nq = 3;
    EngineConfig cfg;
    cfg.chunkSize = 512;
    cfg.skipThreshold = 0.05f;
    const KnowledgeBase kb =
        randomKb(ns, ed, 35, 0.5f, Precision::BF16);
    const auto u = randomBatch(nq, ed, 36);

    ColumnEngine engine(kb, cfg);
    std::vector<float> first(nq * ed), again(nq * ed);
    engine.inferBatch(u.data(), nq, first.data());
    for (int rep = 0; rep < 3; ++rep) {
        engine.inferBatch(u.data(), nq, again.data());
        for (size_t i = 0; i < first.size(); ++i)
            ASSERT_EQ(first[i], again[i]) << "rep=" << rep;
    }
}

// ---------------------------------------------------------------------
// int8 knowledge bases: per-chunk affine quantization at append time,
// precision-guarded accessors, and engine equivalence. See DESIGN.md
// §10 for the storage format.
// ---------------------------------------------------------------------

TEST(KnowledgeBaseI8, BytesReflectElementSize)
{
    const size_t ns = 64, ed = 48;
    const KnowledgeBase f32 = randomKb(ns, ed, 91);
    const KnowledgeBase i8 = randomKb(ns, ed, 91, 0.5f, Precision::I8);
    EXPECT_EQ(i8.bytes(), 2 * ns * ed * sizeof(int8_t));
    EXPECT_EQ(i8.bytes() * 4, f32.bytes());
    EXPECT_EQ(i8.elemBytes(), sizeof(int8_t));
    EXPECT_STREQ(precisionName(i8.precision()), "i8");
    EXPECT_EQ(precisionBytes(Precision::I8), sizeof(int8_t));
}

TEST(KnowledgeBaseI8, StorageMatchesBatchQuantization)
{
    // Rows are quantized at append time with tail-chunk requantization
    // when the running range grows, so the stored bytes must equal
    // quantizing each full chunk against its final [lo, hi] — for
    // M_IN and M_OUT independently. Small qchunk forces several
    // chunks including a partial tail.
    const size_t ed = 7, ns = 29, qchunk = 8;
    KnowledgeBase kb(ed, Precision::I8, qchunk);
    XorShiftRng rng(141);
    std::vector<float> all_min, all_mout, min_row(ed), mout_row(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            min_row[e] = rng.uniformRange(-2.f, 3.f);
            mout_row[e] = rng.uniformRange(-1.f, 0.5f);
        }
        all_min.insert(all_min.end(), min_row.begin(), min_row.end());
        all_mout.insert(all_mout.end(), mout_row.begin(),
                        mout_row.end());
        kb.addSentence(min_row.data(), mout_row.data());
    }
    EXPECT_EQ(kb.i8ChunkRows(), qchunk);

    auto check = [&](const std::vector<float> &src,
                     auto rowAccessor, auto scaleAt, auto zeroAt) {
        for (size_t c0 = 0; c0 < ns; c0 += qchunk) {
            const size_t c1 = std::min(c0 + qchunk, ns);
            float lo = src[c0 * ed], hi = src[c0 * ed];
            for (size_t i = c0 * ed; i < c1 * ed; ++i) {
                lo = std::min(lo, src[i]);
                hi = std::max(hi, src[i]);
            }
            const float scale = (hi - lo) / 255.f;
            const float zero = lo + 128.f * scale;
            ASSERT_FLOAT_EQ(scaleAt(c0), scale) << "chunk@" << c0;
            ASSERT_FLOAT_EQ(zeroAt(c0), zero) << "chunk@" << c0;
            for (size_t i = c0; i < c1; ++i) {
                for (size_t e = 0; e < ed; ++e) {
                    const float x = src[i * ed + e];
                    long q = std::lrintf((x - zero) * (1.f / scale));
                    q = std::min(127l, std::max(-128l, q));
                    ASSERT_EQ(long(rowAccessor(i)[e]), q)
                        << "row " << i << " elem " << e;
                    // The documented error bound of the format.
                    const float back = scale * float(q) + zero;
                    ASSERT_LE(std::abs(back - x),
                              scale / 2 + 1e-6f)
                        << "row " << i << " elem " << e;
                }
            }
        }
    };
    check(all_min, [&](size_t i) { return kb.minRow8(i); },
          [&](size_t i) { return kb.minScale(i); },
          [&](size_t i) { return kb.minZero(i); });
    check(all_mout, [&](size_t i) { return kb.moutRow8(i); },
          [&](size_t i) { return kb.moutScale(i); },
          [&](size_t i) { return kb.moutZero(i); });
}

TEST(KnowledgeBaseI8, WrongPrecisionAccessorPanics)
{
    KnowledgeBase i8 = randomKb(4, 4, 95, 0.5f, Precision::I8);
    KnowledgeBase f32 = randomKb(4, 4, 95);
    KnowledgeBase b16 = randomKb(4, 4, 95, 0.5f, Precision::BF16);
    EXPECT_DEATH(i8.minRow(0), "non-F32");
    EXPECT_DEATH(i8.moutData(), "non-F32");
    EXPECT_DEATH(i8.minRow16(0), "non-BF16");
    EXPECT_DEATH(f32.minRow8(0), "non-I8");
    EXPECT_DEATH(f32.moutData8(), "non-I8");
    EXPECT_DEATH(f32.minScale(0), "non-I8");
    EXPECT_DEATH(b16.minData8(), "non-I8");
    EXPECT_DEATH(b16.moutZero(0), "non-I8");
    EXPECT_DEATH(b16.i8GroupEnd(0), "non-I8");
}

TEST(KnowledgeBaseI8, ViewsResolveParentScalesAndGroups)
{
    // A view at an arbitrary row offset must hand back the parent's
    // quantization parameters for its rows, and i8GroupEnd must cut
    // at the parent's chunk boundaries shifted by the view offset.
    const size_t ed = 4, ns = 40, qchunk = 8;
    const KnowledgeBase kb =
        randomKb(ns, ed, 143, 0.5f, Precision::I8, qchunk);
    const KnowledgeBase v = kb.view(5, 25);
    ASSERT_EQ(v.size(), 20u);
    for (size_t i = 0; i < v.size(); ++i) {
        ASSERT_FLOAT_EQ(v.minScale(i), kb.minScale(5 + i)) << i;
        ASSERT_FLOAT_EQ(v.minZero(i), kb.minZero(5 + i)) << i;
        ASSERT_FLOAT_EQ(v.moutScale(i), kb.moutScale(5 + i)) << i;
        for (size_t e = 0; e < ed; ++e)
            ASSERT_EQ(v.minRow8(i)[e], kb.minRow8(5 + i)[e]) << i;
    }
    // Parent chunks end at rows 8, 16, 24, ... → view rows 3, 11, 19.
    EXPECT_EQ(v.i8GroupEnd(0), 3u);
    EXPECT_EQ(v.i8GroupEnd(2), 3u);
    EXPECT_EQ(v.i8GroupEnd(3), 11u);
    EXPECT_EQ(v.i8GroupEnd(12), 19u);
    EXPECT_EQ(v.i8GroupEnd(19), 20u); // clamped to the view size
}

TEST(I8Engines, ColumnMatchesBaselineOnSameStorage)
{
    // Both engines read the identical int8 rows and scales, so they
    // only differ in accumulation order — the same tolerance as the
    // fp32 column-vs-baseline equivalence applies.
    const size_t ns = 3000, ed = 24, nq = 4;
    const KnowledgeBase kb = randomKb(ns, ed, 41, 0.5f, Precision::I8);
    const auto u = randomBatch(nq, ed, 42);

    EngineConfig cfg;
    BaselineEngine baseline(kb, cfg);
    ColumnEngine column(kb, cfg);
    std::vector<float> ob(nq * ed), oc(nq * ed);
    baseline.inferBatch(u.data(), nq, ob.data());
    column.inferBatch(u.data(), nq, oc.data());
    expectClose(ob, oc);
}

TEST(I8Engines, OutputStaysCloseToF32Engine)
{
    // End-to-end deviation bound: per-chunk affine quantization
    // perturbs each element by at most scale/2 (see DESIGN.md §10),
    // each dot by O(|u| ed scale/2), and each output element by the
    // softmax reweighting of that logit shift. Same 0.02 envelope as
    // the bf16 engine test at this geometry.
    const size_t ns = 4000, ed = 32, nq = 5;
    const KnowledgeBase f32 = randomKb(ns, ed, 43, 0.3f);
    const KnowledgeBase i8 =
        randomKb(ns, ed, 43, 0.3f, Precision::I8);
    const auto u = randomBatch(nq, ed, 44);

    for (float threshold : {0.0f, 1e-3f}) {
        EngineConfig cfg;
        cfg.skipThreshold = threshold;
        ColumnEngine ef(f32, cfg);
        ColumnEngine ei(i8, cfg);
        std::vector<float> of(nq * ed), oi(nq * ed);
        ef.inferBatch(u.data(), nq, of.data());
        ei.inferBatch(u.data(), nq, oi.data());
        for (size_t i = 0; i < of.size(); ++i)
            ASSERT_NEAR(of[i], oi[i], 0.02)
                << "th=" << threshold << " i=" << i;
    }
}

TEST(I8Engines, RepeatedCallsAreBitIdentical)
{
    const size_t ns = 5000, ed = 16, nq = 3;
    EngineConfig cfg;
    cfg.chunkSize = 512;
    cfg.skipThreshold = 0.05f;
    const KnowledgeBase kb = randomKb(ns, ed, 45, 0.5f, Precision::I8);
    const auto u = randomBatch(nq, ed, 46);

    ColumnEngine engine(kb, cfg);
    std::vector<float> first(nq * ed), again(nq * ed);
    engine.inferBatch(u.data(), nq, first.data());
    for (int rep = 0; rep < 3; ++rep) {
        engine.inferBatch(u.data(), nq, again.data());
        for (size_t i = 0; i < first.size(); ++i)
            ASSERT_EQ(first[i], again[i]) << "rep=" << rep;
    }
}

TEST(I8Engines, ChunkSizeCrossingQuantGroupsIsBitInvariant)
{
    // Engine chunk/group boundaries land anywhere relative to the
    // quantization chunks; the sweep splitter must make the result
    // independent of that alignment. Everything here is the same
    // arithmetic in a different call decomposition, so the outputs
    // must match bit-for-bit, not just approximately.
    const size_t ns = 1000, ed = 12, nq = 4, qchunk = 96;
    const KnowledgeBase kb =
        randomKb(ns, ed, 47, 0.5f, Precision::I8, qchunk);
    const auto u = randomBatch(nq, ed, 48);

    std::vector<float> ref(nq * ed);
    {
        EngineConfig cfg;
        cfg.chunkSize = ns; // one chunk spanning every quant group
        ColumnEngine(kb, cfg).inferBatch(u.data(), nq, ref.data());
    }
    for (size_t chunk : {size_t(64), size_t(96), size_t(100),
                         size_t(97), size_t(3)}) {
        EngineConfig cfg;
        cfg.chunkSize = chunk;
        cfg.scheduleGroups = 1; // isolate chunking from group merge
        ColumnEngine engine(kb, cfg);
        std::vector<float> o(nq * ed);
        engine.inferBatch(u.data(), nq, o.data());
        for (size_t i = 0; i < o.size(); ++i)
            ASSERT_EQ(o[i], ref[i]) << "chunk=" << chunk << " i=" << i;
    }
}

// ---------------------------------------------------------------------
// Kernel-plan invariance: every strip in the plan table, and the
// extremes (4 rows, 8 rows, the whole chunk), yield bit-identical
// engine output — with and without the streaming prefetch.
// ---------------------------------------------------------------------

TEST(TunedPlans, EngineOutputBitIdenticalAcrossPlanVariants)
{
    // Sweep nq across register-tile and dispatch-split boundaries
    // (1..17), both schedules, zero-skipping and streaming, comparing
    // every strip against the table's plan — per storage precision.
    const size_t ns = 600, ed = 32, max_nq = 17, chunk = 64;
    const auto u = randomBatch(max_nq, ed, 61);

    std::vector<size_t> strips = {4, 8, chunk};
    for (const runtime::PlanEntry &e : runtime::kPlanTable)
        for (const runtime::KernelPlan &p : {e.single, e.multi})
            if (p.stripRows != runtime::kWholeChunk
                && std::find(strips.begin(), strips.end(), p.stripRows)
                       == strips.end())
                strips.push_back(p.stripRows);

    for (Precision prec :
         {Precision::F32, Precision::BF16, Precision::I8}) {
        const KnowledgeBase kb = randomKb(ns, ed, 62, 0.5f, prec);
        for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(7),
                          size_t(8), size_t(15), size_t(16),
                          size_t(17)}) {
            for (Schedule sched : {Schedule::Static, Schedule::Dynamic}) {
                for (bool zskip : {false, true}) {
                    for (bool streaming : {false, true}) {
                        EngineConfig cfg;
                        cfg.chunkSize = chunk;
                        cfg.threads = 2;
                        cfg.schedule = sched;
                        cfg.skipThreshold = zskip ? 1e-4f : 0.f;
                        cfg.streaming = streaming;
                        std::vector<float> ref(nq * ed);
                        ColumnEngine(kb, cfg).inferBatch(u.data(), nq,
                                                         ref.data());
                        for (size_t strip : strips) {
                            EngineConfig vcfg = cfg;
                            vcfg.stripRows = strip;
                            std::vector<float> o(nq * ed);
                            ColumnEngine(kb, vcfg).inferBatch(
                                u.data(), nq, o.data());
                            for (size_t i = 0; i < o.size(); ++i)
                                ASSERT_EQ(o[i], ref[i])
                                    << precisionName(prec)
                                    << " nq=" << nq
                                    << " sched=" << int(sched)
                                    << " zskip=" << zskip
                                    << " streaming=" << streaming
                                    << " strip=" << strip << " i=" << i;
                        }
                    }
                }
            }
        }
    }
}

TEST(PlanTable, BuildingEnginesMeasuresNothing)
{
    // Plans are constants: constructing engines of every precision
    // times no candidate plan, leaves the exported table as it was,
    // and takes far less than the 0.25 s or more a startup sweep
    // of even one precision used to.
    const std::string before =
        runtime::KernelTuner::instance().exportJson();
    std::vector<KnowledgeBase> kbs;
    for (Precision prec :
         {Precision::F32, Precision::BF16, Precision::I8})
        kbs.push_back(randomKb(256, 64, 63, 0.5f, prec));
    EngineConfig cfg;
    cfg.threads = 2;
    cfg.streaming = true;
    Timer timer;
    for (const KnowledgeBase &kb : kbs) {
        ColumnEngine column(kb, cfg);
        BaselineEngine baseline(kb, cfg);
    }
    EXPECT_LT(timer.seconds(), 0.5);
    EXPECT_EQ(runtime::KernelTuner::instance().exportJson(), before);
}

} // namespace
} // namespace mnnfast::core
