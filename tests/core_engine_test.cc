/**
 * @file
 * Tests for the inference engines: algebraic equivalence of the
 * column-based lazy softmax with the baseline dataflow, chunk-size
 * invariance, streaming equivalence, zero-skipping safety, the
 * numeric contract (large logits stay finite through every layer),
 * threading, and the per-engine statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "blas/kernels.hh"
#include "core/baseline_engine.hh"
#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
#include "core/sharded_engine.hh"
#include "core/sharded_knowledge_base.hh"
#include "net/cluster_frontend.hh"
#include "net/loopback_transport.hh"
#include "node_set.hh"
#include "serve/live_server.hh"
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

/** M_IN (or M_OUT) of kb through its typed accessor. */
const void *
typedRows(const KnowledgeBase &kb, bool in)
{
    switch (kb.precision()) {
      case Precision::F32:
        return in ? kb.minData() : kb.moutData();
      case Precision::BF16:
        return in ? kb.minData16() : kb.moutData16();
      case Precision::I8:
        return in ? kb.minData8() : kb.moutData8();
    }
    return nullptr;
}

uint32_t
bitsOf(float x)
{
    return std::bit_cast<uint32_t>(x);
}

/** Reference: max-shifted softmax-weighted sum in double precision. */
std::vector<float>
referenceOutput(const KnowledgeBase &kb, const float *u, size_t nq)
{
    const size_t ns = kb.size();
    const size_t ed = kb.dim();
    std::vector<float> out(nq * ed, 0.f);
    std::vector<double> p(ns);
    for (size_t q = 0; q < nq; ++q) {
        double m = -HUGE_VAL;
        for (size_t i = 0; i < ns; ++i) {
            double dot = 0.0;
            for (size_t e = 0; e < ed; ++e)
                dot += double(u[q * ed + e]) * kb.minRow(i)[e];
            p[i] = dot;
            m = std::max(m, dot);
        }
        double s = 0.0;
        for (size_t i = 0; i < ns; ++i) {
            p[i] = std::exp(p[i] - m);
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

TEST(ColumnEngine, RunningShiftIsExactAcrossChunkSizes)
{
    // The running shift moves by powers of two and the rescale is
    // exact, so where chunk boundaries fall (hence when the shift
    // rises) cannot change a bit, with or without zero-skipping.
    // Logits of a few tens make the shift rise often.
    const size_t ns = 777, ed = 16, nq = 3;
    const KnowledgeBase kb = randomKb(ns, ed, 15, /*scale=*/2.f);
    const auto u = randomBatch(nq, ed, 16, /*scale=*/2.f);

    for (float zskip : {0.f, 1e-3f}) {
        std::vector<float> first;
        for (size_t chunk : {ns, size_t(1), size_t(7), size_t(64)}) {
            EngineConfig cfg;
            cfg.chunkSize = chunk;
            cfg.scheduleGroups = 1; // isolate chunking from the merge
            cfg.skipThreshold = zskip;
            ColumnEngine engine(kb, cfg);
            std::vector<float> o(nq * ed);
            engine.inferBatch(u.data(), nq, o.data());
            if (first.empty())
                first = o;
            for (size_t i = 0; i < o.size(); ++i)
                ASSERT_EQ(o[i], first[i])
                    << "zskip=" << zskip << " chunk=" << chunk
                    << " i=" << i;
        }
    }
}

TEST(ColumnEngine, ThreadCountInvariance)
{
    // With scheduleGroups defaulted the group count follows the
    // worker count, so outputs agree only to rounding; at a fixed
    // group count they agree bit for bit (next two tests).
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

TEST(NumericContract, LargeLogitsStayFiniteThroughEveryLayer)
{
    // Scale 8 gives logits around +-100: an unshifted e^x overflows
    // float past ~88.7 and the answer turns into inf/inf = NaN. Every
    // layer runs at its default config (no numeric option is set) and
    // must match the double-precision stable reference.
    const size_t ns = 300, ed = 16, nq = 2, chunk = 64, shards = 2;
    const KnowledgeBase kb = randomKb(ns, ed, 13, /*scale=*/8.f);
    const auto u = randomBatch(nq, ed, 14, /*scale=*/8.f);
    const std::vector<float> ref = referenceOutput(kb, u.data(), nq);
    const auto check = [&](const std::vector<float> &o,
                           const std::string &layer) {
        ASSERT_EQ(o.size(), ref.size()) << layer;
        for (size_t i = 0; i < o.size(); ++i) {
            ASSERT_TRUE(std::isfinite(o[i])) << layer << " index " << i;
            ASSERT_NEAR(o[i], ref[i], 1e-3) << layer << " index " << i;
        }
    };

    EngineConfig cfg;
    cfg.chunkSize = chunk;
    for (size_t threads : {size_t(0), size_t(2)}) {
        EngineConfig tcfg = cfg;
        tcfg.threads = threads;
        ColumnEngine engine(kb, tcfg);
        std::vector<float> o(nq * ed);
        engine.inferBatch(u.data(), nq, o.data());
        check(o, "column threads=" + std::to_string(threads));
    }

    const ShardedKnowledgeBase skb(kb, chunk, shards);
    {
        ShardedEngine engine(skb, cfg);
        std::vector<float> o(nq * ed);
        engine.inferBatch(u.data(), nq, o.data());
        check(o, "sharded");
    }

    {
        net::LoopbackNetwork netns;
        net::LoopbackTransport transport(netns);
        NodeSet nodes;
        net::ClusterConfig ccfg;
        ccfg.requestTimeoutSeconds = 30.0; // sanitizer slack
        for (size_t s = 0; s < skb.shardCount(); ++s) {
            const std::string ep = "shard" + std::to_string(s);
            nodes.add(skb.shard(s), cfg, static_cast<uint32_t>(s),
                      transport, ep);
            ccfg.replicas.push_back({ep});
        }
        net::ClusterFrontEnd fe(transport, ccfg);
        std::vector<float> o(nq * ed);
        ASSERT_TRUE(fe.inferBatch(u.data(), nq, ed, o.data()).complete);
        check(o, "cluster");
    }

    serve::LiveServerConfig lcfg;
    lcfg.shards = shards;
    lcfg.workers = shards;
    lcfg.engine = cfg;
    serve::LiveServer server(kb, lcfg);
    std::vector<std::future<serve::Answer>> answers;
    for (size_t q = 0; q < nq; ++q) {
        serve::Ticket t = server.submit(u.data() + q * ed);
        ASSERT_TRUE(t.accepted());
        answers.push_back(std::move(t.answer));
    }
    std::vector<float> o;
    for (auto &a : answers) {
        const serve::Answer ans = a.get();
        o.insert(o.end(), ans.o.begin(), ans.o.end());
    }
    check(o, "live server sharded");
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

TEST(ColumnEngine, InlineAndPooledGroupWalksAreBitIdentical)
{
    // The group sequence (and thus every partial accumulation and the
    // merge order) is a pure function of the chunk count and
    // scheduleGroups; workers only decide who claims which group and
    // when. threads = 0 walks the groups in order on the caller (the
    // static sequence); every pool size claims them dynamically, and
    // neither that nor a repeated call may change a single output bit.
    const size_t ns = 2048, ed = 24, nq = 3;
    const KnowledgeBase kb = randomKb(ns, ed, 61);
    const auto u = randomBatch(nq, ed, 62);

    std::vector<float> in_order;
    for (size_t threads : {0ul, 1ul, 2ul, 3ul, 5ul}) {
        EngineConfig cfg;
        cfg.chunkSize = 100;
        cfg.threads = threads;
        cfg.scheduleGroups = 8;
        cfg.streaming = true;
        cfg.skipThreshold = 0.05f;
        ColumnEngine engine(kb, cfg);
        for (int call = 0; call < 2; ++call) {
            std::vector<float> o(nq * ed);
            engine.inferBatch(u.data(), nq, o.data());
            if (in_order.empty())
                in_order = o;
            for (size_t i = 0; i < o.size(); ++i)
                ASSERT_EQ(o[i], in_order[i])
                    << "threads=" << threads << " call=" << call
                    << " index " << i;
        }
    }
}

TEST(ColumnEngine, ScheduleCountersMatchAcrossThreadCounts)
{
    // Zero-skip decisions are per row and per question, so the in-order
    // walk (threads = 0) and every dynamic pool keep and skip the same
    // rows, on every call.
    const size_t ns = 3000, ed = 16, nq = 2;
    const KnowledgeBase kb = randomKb(ns, ed, 63);
    const auto u = randomBatch(nq, ed, 64);
    std::vector<float> o(nq * ed);

    uint64_t first_kept = 0, first_skipped = 0;
    for (size_t threads : {0ul, 2ul, 5ul}) {
        EngineConfig cfg;
        cfg.chunkSize = 128;
        cfg.threads = threads;
        cfg.scheduleGroups = 6;
        cfg.skipThreshold = 0.1f;
        ColumnEngine engine(kb, cfg);
        uint64_t kept = 0, skipped = 0;
        for (int call = 0; call < 2; ++call) {
            engine.inferBatch(u.data(), nq, o.data());
            const uint64_t k = engine.counters().value("rows_kept");
            const uint64_t sk = engine.counters().value("rows_skipped");
            if (threads == 0 && call == 0) {
                first_kept = k;
                first_skipped = sk;
                EXPECT_GT(sk, 0u) << "zero-skip never fired";
                EXPECT_EQ(k + sk, uint64_t(nq) * ns);
            }
            EXPECT_EQ(k - kept, first_kept)
                << "threads=" << threads << " call=" << call;
            EXPECT_EQ(sk - skipped, first_skipped)
                << "threads=" << threads << " call=" << call;
            kept = k;
            skipped = sk;
        }
    }
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
    // crossing the kWsumQueryTile dispatch split (16), with and
    // without zero-skip.
    const size_t ns = 600, ed = 32, max_nq = 17;
    const KnowledgeBase kb = randomKb(ns, ed, 81);
    const auto u = randomBatch(max_nq, ed, 82);

    for (size_t nq = 1; nq <= max_nq; ++nq) {
        EngineConfig base_cfg;
        BaselineEngine baseline(kb, base_cfg);
        std::vector<float> o_base(nq * ed);
        baseline.inferBatch(u.data(), nq, o_base.data());

        for (bool zskip : {false, true}) {
            EngineConfig cfg;
            cfg.chunkSize = 64;
            cfg.threads = 2;
            cfg.skipThreshold = zskip ? 1e-5f : 0.f;
            ColumnEngine column(kb, cfg);
            std::vector<float> o_col(nq * ed);
            column.inferBatch(u.data(), nq, o_col.data());
            // Zero-skipping drops at most ns * th of the probability
            // mass; exact paths agree to float accumulation tolerance.
            const double tol = zskip ? 5e-2 : 1e-4;
            for (size_t i = 0; i < o_col.size(); ++i)
                ASSERT_NEAR(o_base[i], o_col[i], tol)
                    << "nq=" << nq << " zskip=" << zskip << " index "
                    << i;
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

    // Every precision: grown one row at a time without reserve, the
    // KB holds the bytes (and, for int8, the codes) of a reserved
    // twin, and its typed rows are 64-byte aligned after every growth.
    // The small KB grows through capacities 16, 32, 64 and 128 rows.
    // The large one doubles up to 65536 rows of ed 64: each precision's
    // row store crosses AlignedBuffer's 2 MiB huge-page threshold
    // (exactly 2 MiB at 8192 f32, 16384 bf16 and 32768 int8 rows).
    struct Shape
    {
        size_t ns, ed, qchunk, growths;
    };
    for (const Shape &sh : {Shape{100, 12, 7, 4}, Shape{40000, 64, 1000, 13}})
        for (Precision prec :
             {Precision::F32, Precision::BF16, Precision::I8}) {
            const size_t ns = sh.ns, ed = sh.ed;
            const char *pname = precisionName(prec);
            const KnowledgeBase twin =
                randomKb(ns, ed, 97, 0.5f, prec, sh.qchunk);
            KnowledgeBase grown(ed, prec, sh.qchunk);
            XorShiftRng rng(97); // randomKb's row sequence
            std::vector<float> min_row(ed), mout_row(ed);
            const void *base = nullptr;
            size_t growths = 0;
            for (size_t i = 0; i < ns; ++i) {
                for (size_t e = 0; e < ed; ++e) {
                    min_row[e] = rng.uniformRange(-0.5f, 0.5f);
                    mout_row[e] = rng.uniformRange(-0.5f, 0.5f);
                }
                grown.addSentence(min_row.data(), mout_row.data());
                if (typedRows(grown, true) == base)
                    continue;
                base = typedRows(grown, true);
                ++growths;
                for (bool in : {true, false})
                    ASSERT_EQ(reinterpret_cast<uintptr_t>(
                                  typedRows(grown, in))
                                  % kCacheLineBytes,
                              0u)
                        << pname << " row " << i;
            }
            EXPECT_EQ(growths, sh.growths) << pname << " ns " << ns;
            for (bool in : {true, false})
                EXPECT_EQ(std::memcmp(typedRows(grown, in),
                                      typedRows(twin, in),
                                      ns * ed * grown.elemBytes()),
                          0)
                    << pname << " ns " << ns << (in ? " M_IN" : " M_OUT");
            if (prec != Precision::I8)
                continue;
            for (size_t i = 0; i < ns; ++i) {
                ASSERT_EQ(bitsOf(grown.minScale(i)),
                          bitsOf(twin.minScale(i)));
                ASSERT_EQ(bitsOf(grown.minZero(i)), bitsOf(twin.minZero(i)));
                ASSERT_EQ(bitsOf(grown.moutScale(i)),
                          bitsOf(twin.moutScale(i)));
                ASSERT_EQ(bitsOf(grown.moutZero(i)),
                          bitsOf(twin.moutZero(i)));
            }
        }
}

/** FNV-1a 64 over the bytes of n objects at p, folded into h. */
uint64_t
fnv1a(uint64_t h, const void *p, size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i)
        h = (h ^ b[i]) * 1099511628211ull;
    return h;
}

/**
 * Digest of an int8 KB built row by row without reserve: both
 * matrices' codes, then every quantization chunk's M_IN and M_OUT
 * scale and zero.
 */
uint64_t
i8IngestDigest()
{
    const size_t ns = 5000, ed = 100, qchunk = 1000;
    KnowledgeBase kb(ed, Precision::I8, qchunk);
    XorShiftRng rng(2029);
    std::vector<float> min_row(ed), mout_row(ed);
    for (size_t i = 0; i < ns; ++i) {
        // A range that widens along each chunk forces requantizations;
        // every 7th row is constant, a constant chunk starts at 3000.
        const float amp = 0.25f + 1e-4f * float(i % qchunk);
        for (size_t e = 0; e < ed; ++e) {
            min_row[e] = rng.uniformRange(-amp, amp);
            mout_row[e] = i % 7 == 0 ? 0.125f : rng.uniformRange(-amp, 2 * amp);
            if (i >= 3000 && i < 4000)
                min_row[e] = -1.5f;
        }
        kb.addSentence(min_row.data(), mout_row.data());
    }
    uint64_t h = 14695981039346656037ull;
    h = fnv1a(h, kb.minData8(), ns * ed);
    h = fnv1a(h, kb.moutData8(), ns * ed);
    for (size_t i = 0; i < ns; i += qchunk) {
        const float codes[] = {kb.minScale(i), kb.minZero(i),
                               kb.moutScale(i), kb.moutZero(i)};
        h = fnv1a(h, codes, sizeof codes);
    }
    return h;
}

TEST(KnowledgeBase, I8IngestBytesAreUnchanged)
{
    // The stored codes, scales and zeros of a row-by-row int8 ingest
    // (single-row quantization, tail-chunk requantization, a constant
    // chunk, ed 100 so the vector kernels run a tail) equal those the
    // scalar lrintf encoder wrote before ingest went through
    // blas::quantizeI8, under every kernel tier.
    EXPECT_EQ(i8IngestDigest(), 0xa6db5d69159bb605ull);
}

TEST(KnowledgeBase, ViewOfViewResolvesToParentRows)
{
    // A view of a view windows its root's rows: root rows [5, 45),
    // then that view's rows [4, 35), i.e. root rows [9, 40). Both
    // offsets fall inside an 8-row int8 quantization chunk.
    const size_t ed = 12, nq = 3, qchunk = 8, off = 9, n = 31;
    const auto u = randomBatch(nq, ed, 157);
    XorShiftRng rng(158);
    std::vector<float> e(nq * n);
    for (float &x : e)
        x = rng.uniformRange(0.f, 1.f);

    for (Precision prec :
         {Precision::F32, Precision::BF16, Precision::I8}) {
        const char *pname = precisionName(prec);
        const KnowledgeBase kb =
            randomKb(48, ed, 159, 0.5f, prec, qchunk);
        const KnowledgeBase outer = kb.view(5, 45);
        const KnowledgeBase inner = outer.view(4, 4 + n);
        ASSERT_TRUE(inner.isView());
        ASSERT_EQ(inner.size(), n);

        // The same typed rows, not copies.
        const size_t row_bytes = ed * kb.elemBytes();
        for (bool in : {true, false}) {
            const auto *root =
                static_cast<const std::byte *>(typedRows(kb, in));
            EXPECT_EQ(typedRows(inner, in), root + off * row_bytes)
                << pname;
            EXPECT_EQ(typedRows(outer, in), root + 5 * row_bytes)
                << pname;
        }

        if (prec == Precision::I8) {
            for (size_t i = 0; i < n; ++i) {
                ASSERT_EQ(bitsOf(inner.minScale(i)),
                          bitsOf(kb.minScale(off + i))) << i;
                ASSERT_EQ(bitsOf(inner.minZero(i)),
                          bitsOf(kb.minZero(off + i))) << i;
                ASSERT_EQ(bitsOf(inner.moutScale(i)),
                          bitsOf(kb.moutScale(off + i))) << i;
                ASSERT_EQ(bitsOf(inner.moutZero(i)),
                          bitsOf(kb.moutZero(off + i))) << i;
                ASSERT_EQ(inner.i8GroupEnd(i),
                          std::min(kb.i8GroupEnd(off + i), off + n)
                              - off) << i;
            }
            // Root chunks end at rows 16, 24, 32 -> inner rows 7,
            // 15, 23; the last group is clamped to the view.
            EXPECT_EQ(inner.i8GroupEnd(0), 7u);
            EXPECT_EQ(inner.i8GroupEnd(7), 15u);
            EXPECT_EQ(inner.i8GroupEnd(23), n);
        }

        std::vector<float> dot(nq * n), dot_ref(nq * n);
        inner.dotMin(u.data(), nq, 0, n, dot.data(), n);
        kb.dotMin(u.data(), nq, off, off + n, dot_ref.data(), n);
        for (size_t i = 0; i < dot.size(); ++i)
            ASSERT_EQ(bitsOf(dot[i]), bitsOf(dot_ref[i]))
                << pname << " i=" << i;

        std::vector<float> acc(nq * ed, 0.f), acc_ref(nq * ed, 0.f);
        std::vector<double> sums(nq, 0.0), sums_ref(nq, 0.0);
        uint64_t kept = 0, skipped = 0, kept_ref = 0, skipped_ref = 0;
        inner.weightedSumMout(e.data(), nq, n, 0, n, 0.1f, sums.data(),
                              acc.data(), kept, skipped);
        kb.weightedSumMout(e.data(), nq, n, off, off + n, 0.1f,
                           sums_ref.data(), acc_ref.data(), kept_ref,
                           skipped_ref);
        EXPECT_EQ(kept, kept_ref) << pname;
        EXPECT_EQ(skipped, skipped_ref) << pname;
        for (size_t q = 0; q < nq; ++q)
            ASSERT_EQ(sums[q], sums_ref[q]) << pname << " q=" << q;
        for (size_t i = 0; i < acc.size(); ++i)
            ASSERT_EQ(bitsOf(acc[i]), bitsOf(acc_ref[i]))
                << pname << " i=" << i;
    }
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

TEST(KnowledgeBaseI8, NonFiniteElementIsFatal)
{
    // Anywhere in either row, not only as the row's extreme: a NaN
    // between finite elements is neither its minimum nor its maximum.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    for (float bad : {nan, inf, -inf}) {
        for (size_t at : {size_t(0), size_t(5), size_t(10)}) {
            std::vector<float> good(11, 0.25f), row(11, 0.25f);
            row[at] = bad;
            KnowledgeBase kb(11, Precision::I8);
            kb.addSentence(good.data(), good.data());
            EXPECT_DEATH(kb.addSentence(row.data(), good.data()),
                         "finite embeddings")
                << bad << " at " << at;
            EXPECT_DEATH(kb.addSentence(good.data(), row.data()),
                         "finite embeddings")
                << bad << " at " << at;
        }
    }
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

TEST(KnowledgeBase, RowSweepsMatchDirectKernelCalls)
{
    // The two row sweeps are the only callers of the fused kernels in
    // the engines: over a view range that crosses int8 group ends
    // (view rows [1, 19) with ends at 3 and 11), each must equal the
    // direct blas calls bit for bit — one call for f32 and bf16, one
    // per quantization group for int8 — with or without a named
    // look-ahead.
    const size_t ed = 12, nq = 3, qchunk = 8;
    const size_t begin = 1, end = 19, n = end - begin;
    const size_t ends[] = {3, 11, end};
    const auto u = randomBatch(nq, ed, 149);
    XorShiftRng rng(150);
    std::vector<float> e(nq * n);
    for (float &x : e)
        x = rng.uniformRange(0.f, 1.f);

    for (Precision prec :
         {Precision::F32, Precision::BF16, Precision::I8}) {
        const KnowledgeBase kb =
            randomKb(40, ed, 151, 0.5f, prec, qchunk);
        const KnowledgeBase v = kb.view(5, 25);
        const char *pname = precisionName(prec);

        std::vector<float> ref(nq * n);
        switch (prec) {
          case Precision::F32:
            blas::dotBatchMulti(u.data(), nq, ed, v.minRow(begin), n,
                                ed, ed, ref.data(), n);
            break;
          case Precision::BF16:
            blas::dotBatchMultiBf16(u.data(), nq, ed, v.minRow16(begin),
                                    n, ed, ed, ref.data(), n);
            break;
          case Precision::I8:
            ASSERT_EQ(v.i8GroupEnd(begin), ends[0]);
            ASSERT_EQ(v.i8GroupEnd(ends[0]), ends[1]);
            for (size_t g0 = begin, k = 0; g0 < end; g0 = ends[k++])
                blas::dotBatchMultiI8(
                    u.data(), nq, ed, v.minRow8(g0), ends[k] - g0, ed,
                    ed, v.minScale(g0), v.minZero(g0),
                    ref.data() + (g0 - begin), n);
            break;
        }
        for (const auto ahead :
             {std::optional<blas::RowLookahead>{},
              std::optional<blas::RowLookahead>{{4, 1}}}) {
            std::vector<float> out(nq * n);
            v.dotMin(u.data(), nq, begin, end, out.data(), n, ahead);
            for (size_t i = 0; i < out.size(); ++i)
                ASSERT_EQ(out[i], ref[i]) << pname << " i=" << i;
        }

        for (float th : {0.1f, 0.f}) {
            std::vector<float> acc_ref(nq * ed, 0.25f);
            std::vector<double> sums_ref(nq, 0.0);
            uint64_t kept_ref = 0, skipped_ref = 0;
            switch (prec) {
              case Precision::F32:
                blas::weightedSumSkipMulti(
                    e.data(), nq, n, v.moutRow(begin), n, ed, ed, th,
                    sums_ref.data(), acc_ref.data(), ed, kept_ref,
                    skipped_ref);
                break;
              case Precision::BF16:
                blas::weightedSumSkipMultiBf16(
                    e.data(), nq, n, v.moutRow16(begin), n, ed, ed, th,
                    sums_ref.data(), acc_ref.data(), ed, kept_ref,
                    skipped_ref);
                break;
              case Precision::I8:
                for (size_t g0 = begin, k = 0; g0 < end; g0 = ends[k++])
                    blas::weightedSumSkipMultiI8(
                        e.data() + (g0 - begin), nq, n, v.moutRow8(g0),
                        ends[k] - g0, ed, ed, v.moutScale(g0),
                        v.moutZero(g0), th, sums_ref.data(),
                        acc_ref.data(), ed, kept_ref, skipped_ref);
                break;
            }
            std::vector<float> acc(nq * ed, 0.25f);
            std::vector<double> sums(nq, 0.0);
            uint64_t kept = 0, skipped = 0;
            v.weightedSumMout(e.data(), nq, n, begin, end, th,
                              sums.data(), acc.data(), kept, skipped);
            EXPECT_EQ(kept, kept_ref) << pname << " th=" << th;
            EXPECT_EQ(skipped, skipped_ref) << pname << " th=" << th;
            EXPECT_EQ(skipped > 0, th > 0.f) << pname << " th=" << th;
            for (size_t q = 0; q < nq; ++q)
                ASSERT_EQ(sums[q], sums_ref[q]) << pname << " q=" << q;
            for (size_t i = 0; i < acc.size(); ++i)
                ASSERT_EQ(acc[i], acc_ref[i])
                    << pname << " th=" << th << " i=" << i;
        }
    }
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
    // (1..17), zero-skipping and streaming, pinning every strip with a
    // PlanOverride that keeps the table's look-ahead, and comparing
    // against the table's plan — per storage precision.
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
            const size_t lookahead =
                runtime::kernelPlan(precisionName(prec), nq)
                    .lookaheadRows;
            for (bool zskip : {false, true}) {
                for (bool streaming : {false, true}) {
                    EngineConfig cfg;
                    cfg.chunkSize = chunk;
                    cfg.threads = 2;
                    cfg.skipThreshold = zskip ? 1e-4f : 0.f;
                    cfg.streaming = streaming;
                    std::vector<float> ref(nq * ed);
                    ColumnEngine(kb, cfg).inferBatch(u.data(), nq,
                                                     ref.data());
                    for (size_t strip : strips) {
                        const runtime::PlanOverride pin({strip, lookahead});
                        std::vector<float> o(nq * ed);
                        ColumnEngine(kb, cfg).inferBatch(u.data(), nq,
                                                         o.data());
                        for (size_t i = 0; i < o.size(); ++i)
                            ASSERT_EQ(o[i], ref[i])
                                << precisionName(prec) << " nq=" << nq
                                << " zskip=" << zskip
                                << " streaming=" << streaming
                                << " strip=" << strip << " i=" << i;
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
