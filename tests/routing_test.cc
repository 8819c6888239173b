/**
 * @file
 * Tests for coarse-then-fine candidate routing (DESIGN.md §11): the
 * chunkBoundBatch kernel, the ChunkSummaryIndex, the column engine's
 * RoutePolicy selection (including the exactness anchors — k = all
 * chunks and threshold 0 bit-identical to the unrouted engine),
 * composition with sharding and live serving, the trainer-side
 * forwardTopK, the traffic simulator's routed replay, and the
 * engine-config fail-fast validation added alongside.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "blas/kernels.hh"
#include "core/chunk_summary_index.hh"
#include "core/column_engine.hh"
#include "core/sharded_engine.hh"
#include "core/sharded_knowledge_base.hh"
#include "node_set.hh"
#include "runtime/kernel_tuner.hh"
#include "serve/live_server.hh"
#include "sim/traffic.hh"
#include "train/model.hh"
#include "train/trainer.hh"
#include "util/bf16.hh"
#include "util/rng.hh"

namespace mnnfast::core {
namespace {

KnowledgeBase
randomKb(size_t ns, size_t ed, uint64_t seed, float scale = 0.5f,
         Precision prec = Precision::F32)
{
    KnowledgeBase kb(ed, prec);
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

bool
bitIdentical(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size()
        && std::memcmp(a.data(), b.data(), a.size() * sizeof(float))
               == 0;
}

// ---------------------------------------------------------------------
// The fused bound kernel.
// ---------------------------------------------------------------------

TEST(ChunkBoundKernel, ScalarAndDispatchedAreBitIdentical)
{
    // The dispatched (possibly AVX2) kernel must reproduce the scalar
    // reference bit-for-bit — the canonical-accumulation contract all
    // fused kernels in this codebase share.
    for (size_t ed : {7, 8, 48, 129}) {
        const size_t nx = 5, count = 9;
        XorShiftRng rng(77 + ed);
        std::vector<float> x(nx * ed), lo(count * ed), hi(count * ed);
        for (float &v : x)
            v = rng.uniformRange(-2.f, 2.f);
        for (size_t i = 0; i < count * ed; ++i) {
            const float a = rng.uniformRange(-2.f, 2.f);
            const float b = rng.uniformRange(-2.f, 2.f);
            lo[i] = std::min(a, b);
            hi[i] = std::max(a, b);
        }
        std::vector<float> out_d(nx * count, -1.f);
        std::vector<float> out_s(nx * count, -2.f);
        blas::chunkBoundBatch(x.data(), nx, ed, lo.data(), hi.data(),
                              count, ed, ed, out_d.data(), count);
        blas::scalar::chunkBoundBatch(x.data(), nx, ed, lo.data(),
                                      hi.data(), count, ed, ed,
                                      out_s.data(), count);
        for (size_t i = 0; i < nx * count; ++i)
            ASSERT_EQ(out_d[i], out_s[i]) << "ed " << ed << " i " << i;
    }
}

TEST(ChunkBoundKernel, BoundsEveryInnerProductInTheEnvelope)
{
    // For rows inside [lo, hi] the score must upper-bound x . m. The
    // kernel's sum order differs from a straight dot, so allow
    // rounding-level slack.
    const size_t ed = 48, rows = 64, nx = 8;
    XorShiftRng rng(3);
    std::vector<float> m(rows * ed), lo(ed), hi(ed);
    for (float &v : m)
        v = rng.uniformRange(-1.f, 1.f);
    for (size_t e = 0; e < ed; ++e) {
        lo[e] = m[e];
        hi[e] = m[e];
        for (size_t i = 1; i < rows; ++i) {
            lo[e] = std::min(lo[e], m[i * ed + e]);
            hi[e] = std::max(hi[e], m[i * ed + e]);
        }
    }
    const std::vector<float> x = randomBatch(nx, ed, 4, 1.5f);
    std::vector<float> bound(nx);
    blas::chunkBoundBatch(x.data(), nx, ed, lo.data(), hi.data(), 1, ed,
                          ed, bound.data(), 1);
    for (size_t q = 0; q < nx; ++q) {
        for (size_t i = 0; i < rows; ++i) {
            double dot = 0.0;
            for (size_t e = 0; e < ed; ++e)
                dot += double(x[q * ed + e]) * m[i * ed + e];
            EXPECT_LE(dot, double(bound[q]) + 1e-4)
                << "q " << q << " row " << i;
        }
    }
}

// ---------------------------------------------------------------------
// ChunkSummaryIndex.
// ---------------------------------------------------------------------

TEST(ChunkSummaryIndex, EnvelopeContainsEveryStoredRow)
{
    // For each precision, the envelope must contain the rows *as the
    // kernels stream them* (decoded bf16, dequantized i8) — that
    // containment is what makes the bound valid.
    for (Precision prec :
         {Precision::F32, Precision::BF16, Precision::I8}) {
        const size_t ns = 103, ed = 20, chunk = 16;
        const KnowledgeBase kb = randomKb(ns, ed, 5, 0.5f, prec);
        const ChunkSummaryIndex idx(kb, chunk);
        EXPECT_EQ(idx.chunks(), (ns + chunk - 1) / chunk);
        EXPECT_EQ(idx.rows(), ns);
        EXPECT_EQ(idx.dim(), ed);

        std::vector<float> row(ed);
        for (size_t i = 0; i < ns; ++i) {
            switch (kb.precision()) {
            case Precision::F32:
                std::memcpy(row.data(), kb.minRow(i),
                            ed * sizeof(float));
                break;
            case Precision::BF16:
                for (size_t e = 0; e < ed; ++e)
                    row[e] = bf16ToFloat(kb.minRow16(i)[e]);
                break;
            case Precision::I8:
                for (size_t e = 0; e < ed; ++e)
                    row[e] = kb.minScale(i)
                                 * float(kb.minRow8(i)[e])
                             + kb.minZero(i);
                break;
            }
            const size_t c = i / chunk;
            for (size_t e = 0; e < ed; ++e) {
                EXPECT_LE(idx.lo(c)[e], row[e])
                    << precisionName(prec) << " row " << i;
                EXPECT_GE(idx.hi(c)[e], row[e])
                    << precisionName(prec) << " row " << i;
            }
        }
    }
}

TEST(ChunkSummaryIndex, ViewIndexEqualsParentSlice)
{
    // An index over a chunk-aligned view must equal the matching
    // slice of the parent's index — the property routed sharding
    // stands on (each shard engine indexes its shard view).
    const size_t ns = 96, ed = 12, chunk = 16;
    const KnowledgeBase kb = randomKb(ns, ed, 7);
    const ChunkSummaryIndex whole(kb, chunk);
    const KnowledgeBase half = kb.view(32, 96);
    const ChunkSummaryIndex sliced(half, chunk);
    ASSERT_EQ(sliced.chunks() + 2, whole.chunks());
    for (size_t c = 0; c < sliced.chunks(); ++c) {
        EXPECT_EQ(std::memcmp(sliced.lo(c), whole.lo(c + 2),
                              ed * sizeof(float)),
                  0);
        EXPECT_EQ(std::memcmp(sliced.hi(c), whole.hi(c + 2),
                              ed * sizeof(float)),
                  0);
    }
}

TEST(ChunkSummaryIndex, RejectsEmptyKbAndZeroChunk)
{
    const KnowledgeBase kb = randomKb(8, 4, 8);
    EXPECT_EXIT(ChunkSummaryIndex(kb, 0),
                ::testing::ExitedWithCode(1), "chunk");
    KnowledgeBase empty(4);
    EXPECT_EXIT(ChunkSummaryIndex(empty, 4),
                ::testing::ExitedWithCode(1), "empty");
}

// ---------------------------------------------------------------------
// Routed engine: exactness anchors and sanity.
// ---------------------------------------------------------------------

TEST(RoutedEngine, KeepAllSelectionsAreBitIdenticalToUnrouted)
{
    // k >= chunk count and threshold 0 must reproduce the unrouted
    // engine bit-for-bit, across precision x threads x zskip. This is
    // the guarantee that makes routing a pure perf knob at the exact
    // operating point.
    const size_t ns = 640, ed = 24, nq = 5, chunk = 64;
    const std::vector<float> u = randomBatch(nq, ed, 21);
    std::vector<float> ref(nq * ed), out(nq * ed);

    for (Precision prec :
         {Precision::F32, Precision::BF16, Precision::I8}) {
        const KnowledgeBase kb = randomKb(ns, ed, 22, 0.5f, prec);
        for (size_t threads : {size_t{0}, size_t{3}}) {
            for (float zskip : {0.f, 1e-3f}) {
                EngineConfig cfg;
                cfg.chunkSize = chunk;
                cfg.threads = threads;
                cfg.skipThreshold = zskip;
                cfg.streaming = true;
                ColumnEngine plain(kb, cfg);
                plain.inferBatch(u.data(), nq, ref.data());

                EngineConfig topk = cfg;
                topk.routePolicy = RoutePolicy::TopK;
                topk.routeTopK = ns; // >= every group's chunk count
                ColumnEngine routed_k(kb, topk);
                routed_k.inferBatch(u.data(), nq, out.data());
                EXPECT_TRUE(bitIdentical(ref, out))
                    << precisionName(prec) << " threads " << threads
                    << " zskip " << zskip;

                EngineConfig th = cfg;
                th.routePolicy = RoutePolicy::BoundThreshold;
                th.routeBoundThreshold = 0.f; // ln 0 = -inf: keep all
                ColumnEngine routed_th(kb, th);
                routed_th.inferBatch(u.data(), nq, out.data());
                EXPECT_TRUE(bitIdentical(ref, out))
                    << precisionName(prec) << " threads " << threads
                    << " zskip " << zskip << " (threshold)";
            }
        }
    }
}

TEST(RoutedEngine, RepeatedRoutedCallsAreBitIdentical)
{
    // Arena reuse, the lazily built index, and the compacted
    // sub-batch path must leave no call-to-call state behind.
    const size_t ns = 512, ed = 16, nq = 4;
    const KnowledgeBase kb = randomKb(ns, ed, 23);
    EngineConfig cfg;
    cfg.chunkSize = 64;
    cfg.routePolicy = RoutePolicy::TopK;
    cfg.routeTopK = 3;
    ColumnEngine engine(kb, cfg);
    const std::vector<float> u = randomBatch(nq, ed, 24);
    std::vector<float> first(nq * ed), again(nq * ed);
    engine.inferBatch(u.data(), nq, first.data());
    for (int rep = 0; rep < 3; ++rep) {
        engine.inferBatch(u.data(), nq, again.data());
        EXPECT_TRUE(bitIdentical(first, again)) << "rep " << rep;
    }
}

TEST(RoutedEngine, ReusedEngineFollowsKbChanges)
{
    // An engine outlives changes to its knowledge base: growth that
    // changes the chunk and group counts, and a clear and refill to the
    // same row count (MnnFastSystem::clearStory, then
    // addStorySentence). After either, a reused engine must answer as
    // a fresh one over the same rows, bit for bit — its groups and
    // routing summaries follow the rows, not just their count.
    const size_t ed = 16, nq = 3, chunk = 64;
    const std::vector<float> u = randomBatch(nq, ed, 91);
    const auto fill = [&](KnowledgeBase &kb, size_t ns, uint64_t seed) {
        XorShiftRng rng(seed);
        std::vector<float> a(ed), b(ed);
        while (kb.size() < ns) {
            for (size_t e = 0; e < ed; ++e) {
                a[e] = rng.uniformRange(-1.f, 1.f);
                b[e] = rng.uniformRange(-1.f, 1.f);
            }
            kb.addSentence(a.data(), b.data());
        }
    };

    for (bool routed : {false, true})
    for (size_t threads : {size_t{0}, size_t{2}}) {
        SCOPED_TRACE(::testing::Message()
                     << "routed=" << routed << " threads=" << threads);
        EngineConfig cfg;
        cfg.chunkSize = chunk;
        cfg.threads = threads;
        cfg.streaming = true;
        if (routed) {
            cfg.routePolicy = RoutePolicy::TopK;
            cfg.routeTopK = 1;
        }
        KnowledgeBase kb(ed);
        fill(kb, 256, 92); // 4 chunks: 1 group, or 4 with threads
        ColumnEngine reused(kb, cfg);
        std::vector<float> out(nq * ed), ref(nq * ed);
        reused.inferBatch(u.data(), nq, out.data());

        const auto expectFresh = [&](const char *leg) {
            reused.inferBatch(u.data(), nq, out.data());
            ColumnEngine fresh(kb, cfg);
            fresh.inferBatch(u.data(), nq, ref.data());
            EXPECT_TRUE(bitIdentical(ref, out)) << leg;
        };
        fill(kb, 640, 93); // 10 chunks: 1 group, or 8 with threads
        expectFresh("growth");
        kb.clear();
        fill(kb, 640, 94);
        expectFresh("clear and refill");
    }
}

TEST(RoutedEngine, TopKRecoversConcentratedAttention)
{
    // Plant one hot row the probe strongly matches; background rows
    // are near-orthogonal. Routing to a small k must keep the answer
    // close to exact (the hot chunk's bound dominates) while the
    // counters prove most of the KB was never streamed.
    const size_t ns = 1024, ed = 32, chunk = 64, hot = 700;
    KnowledgeBase kb(ed);
    kb.reserve(ns);
    XorShiftRng rng(31);
    std::vector<float> probe(ed), a(ed), b(ed);
    for (float &x : probe)
        x = rng.uniformRange(-1.f, 1.f);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            a[e] = rng.uniformRange(-0.05f, 0.05f)
                 + (i == hot ? 1.5f * probe[e] : 0.f);
            b[e] = rng.uniformRange(-0.5f, 0.5f);
        }
        kb.addSentence(a.data(), b.data());
    }

    EngineConfig exact_cfg;
    exact_cfg.chunkSize = chunk;
    ColumnEngine exact(kb, exact_cfg);
    std::vector<float> ref(ed), out(ed);
    exact.inferBatch(probe.data(), 1, ref.data());

    EngineConfig cfg = exact_cfg;
    cfg.routePolicy = RoutePolicy::TopK;
    cfg.routeTopK = 2;
    ColumnEngine routed(kb, cfg);
    routed.inferBatch(probe.data(), 1, out.data());

    double dev = 0.0, scale = 0.0;
    for (size_t e = 0; e < ed; ++e) {
        dev = std::max(dev, std::abs(double(ref[e]) - out[e]));
        scale = std::max(scale, std::abs(double(ref[e])));
    }
    EXPECT_LT(dev, 0.05 * std::max(scale, 1e-6));

    // 2 of 16 chunks streamed; the rest bypassed and counted so.
    EXPECT_EQ(routed.counters().value("rows_routed"), 2 * chunk);
    EXPECT_EQ(routed.counters().value("chunks_bypassed"),
              ns / chunk - 2);
    EXPECT_GT(routed.counters().value("flops_route"), 0u);
    EXPECT_STREQ(routed.name(), "column+routed");
}

TEST(RoutedEngine, BoundThresholdOneKeepsOnlyTopChunks)
{
    // threshold = 1 keeps only chunks tied with the group's best
    // bound — with distinct random scores, exactly one chunk per
    // question.
    const size_t ns = 256, ed = 16, chunk = 32, nq = 3;
    const KnowledgeBase kb = randomKb(ns, ed, 41);
    EngineConfig cfg;
    cfg.chunkSize = chunk;
    cfg.routePolicy = RoutePolicy::BoundThreshold;
    cfg.routeBoundThreshold = 1.f;
    ColumnEngine engine(kb, cfg);
    const std::vector<float> u = randomBatch(nq, ed, 42);
    std::vector<float> out(nq * ed);
    engine.inferBatch(u.data(), nq, out.data());
    EXPECT_EQ(engine.counters().value("rows_routed"), nq * chunk);
}

// ---------------------------------------------------------------------
// Composition: sharding and live serving.
// ---------------------------------------------------------------------

TEST(RoutedSharding, ShardedRoutedMatchesGroupedSingleEngineBitwise)
{
    // Routed shard views (what S shard nodes compute, merged in shard
    // order) must answer bit-identically to a routed single engine
    // with scheduleGroups = S: selection is per chunk group, and
    // shard view s IS group s (sharded_engine.hh).
    const size_t ns = 768, ed = 20, nq = 4, chunk = 64;
    const std::vector<float> u = randomBatch(nq, ed, 51);
    std::vector<float> ref(nq * ed), out(nq * ed);

    for (Precision prec :
         {Precision::F32, Precision::BF16, Precision::I8}) {
        const KnowledgeBase kb = randomKb(ns, ed, 52, 0.5f, prec);
        for (size_t shards : {size_t{2}, size_t{4}}) {
            EngineConfig cfg;
            cfg.chunkSize = chunk;
            cfg.streaming = true;
            cfg.routePolicy = RoutePolicy::TopK;
            cfg.routeTopK = 2;

            EngineConfig single = cfg;
            single.scheduleGroups = shards;
            ColumnEngine mono(kb, single);
            mono.inferBatch(u.data(), nq, ref.data());

            const ShardedKnowledgeBase skb(kb, chunk, shards);
            ShardViews views(skb, cfg);
            views.inferBatch(u.data(), nq, out.data());
            EXPECT_TRUE(bitIdentical(ref, out))
                << precisionName(prec) << " shards " << shards;
            // The grouped engine's routing counters are the sums of
            // its groups', which are the shard views' own.
            for (const char *name : {"rows_routed", "chunks_bypassed"})
                EXPECT_EQ(mono.counters().value(name), views.counter(name))
                    << name << " " << precisionName(prec) << " shards "
                    << shards;
            EXPECT_LT(mono.counters().value("rows_routed"),
                      uint64_t(nq) * ns);
        }
    }
}

// ---------------------------------------------------------------------
// Streaming's row look-ahead (blas::RowLookahead) is a prefetch hint:
// no distance, strip split or streaming setting may change an answer.
// ---------------------------------------------------------------------

TEST(RowLookahead, EngineOutputBitIdenticalAcrossDistances)
{
    // Distances 0, the plan table's and 32 (past an 8-row strip and a
    // 28-row last chunk) in whole-chunk and 8-row strips, streaming on
    // and off, for a column engine, a sharded engine and a routed
    // top-1 engine that bypasses chunks; each must match its own
    // engine without streaming bit for bit.
    const size_t ns = 700, ed = 24, chunk = 32, max_nq = 16;
    const std::vector<float> u = randomBatch(max_nq, ed, 71);
    enum Kind { kColumn, kSharded, kRouted };

    for (Precision prec :
         {Precision::F32, Precision::BF16, Precision::I8}) {
        const KnowledgeBase kb = randomKb(ns, ed, 72, 0.5f, prec);
        const ShardedKnowledgeBase skb(kb, chunk, 2);
        for (size_t nq : {size_t{1}, size_t{5}, size_t{16}}) {
            const size_t table =
                runtime::kernelPlan(precisionName(prec), nq).lookaheadRows;
            for (float zskip : {0.f, 1e-3f}) {
                for (Kind kind : {kColumn, kSharded, kRouted}) {
                    EngineConfig cfg;
                    cfg.chunkSize = chunk;
                    cfg.threads = 2;
                    cfg.skipThreshold = zskip;
                    if (kind == kRouted) {
                        cfg.scheduleGroups = 1;
                        cfg.routePolicy = RoutePolicy::TopK;
                        cfg.routeTopK = 1;
                    }
                    const auto run = [&](bool streaming) {
                        EngineConfig c = cfg;
                        c.streaming = streaming;
                        std::vector<float> o(nq * ed);
                        if (kind == kSharded) {
                            ShardedEngine(skb, c).inferBatch(u.data(), nq,
                                                             o.data());
                        } else {
                            ColumnEngine engine(kb, c);
                            engine.inferBatch(u.data(), nq, o.data());
                            if (kind == kRouted) {
                                EXPECT_GT(engine.counters().value(
                                              "chunks_bypassed"),
                                          0u);
                            }
                        }
                        return o;
                    };
                    const std::vector<float> ref = run(false);
                    for (size_t strip : {runtime::kWholeChunk, size_t{8}})
                        for (size_t ahead : {size_t{0}, table, size_t{32}})
                            for (bool streaming : {false, true}) {
                                const runtime::PlanOverride pin(
                                    {strip, ahead});
                                EXPECT_TRUE(bitIdentical(ref, run(streaming)))
                                    << precisionName(prec) << " nq " << nq
                                    << " zskip " << zskip << " kind "
                                    << kind << " strip " << strip
                                    << " ahead " << ahead << " streaming "
                                    << streaming;
                            }
                }
            }
        }
    }
}

} // namespace
} // namespace mnnfast::core

namespace mnnfast::serve {
namespace {

TEST(LiveServerRouted, RoutedAnswersMatchARoutedReferenceEngine)
{
    // Routing flows through LiveServerConfig::engine; every answer
    // must equal a lone call on an identically-configured engine.
    const size_t ns = 320, ed = 16, n_requests = 12;
    core::KnowledgeBase kb(ed);
    kb.reserve(ns);
    XorShiftRng rng(61);
    std::vector<float> a(ed), b(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            a[e] = rng.uniformRange(-0.5f, 0.5f);
            b[e] = rng.uniformRange(-0.5f, 0.5f);
        }
        kb.addSentence(a.data(), b.data());
    }

    LiveServerConfig cfg;
    cfg.maxBatch = 4;
    cfg.batchTimeout = 1e-3;
    cfg.workers = 2;
    cfg.engine.chunkSize = 64;
    cfg.engine.routePolicy = core::RoutePolicy::TopK;
    cfg.engine.routeTopK = 2;
    core::ColumnEngine reference(kb, cfg.engine);

    LiveServer server(kb, cfg);
    std::vector<std::vector<float>> questions(n_requests);
    std::vector<std::future<Answer>> futures;
    for (auto &q : questions) {
        q.resize(ed);
        for (float &x : q)
            x = rng.uniformRange(-1.f, 1.f);
        Ticket t = server.submit(q.data());
        ASSERT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }
    server.shutdown();

    std::vector<float> expected(ed);
    for (size_t i = 0; i < n_requests; ++i) {
        Answer ans = futures[i].get();
        ASSERT_EQ(ans.o.size(), ed);
        EXPECT_FALSE(ans.failed);
        EXPECT_EQ(ans.shardMask, 0b1u);
        reference.infer(questions[i].data(), expected.data());
        for (size_t e = 0; e < ed; ++e)
            EXPECT_EQ(ans.o[e], expected[e]) << "request " << i;
    }
}

} // namespace
} // namespace mnnfast::serve

// ---------------------------------------------------------------------
// Trainer-side routing.
// ---------------------------------------------------------------------

namespace mnnfast::train {
namespace {

data::Example
makeExample(size_t ns, size_t sentence_len, size_t vocab,
            uint64_t seed)
{
    XorShiftRng rng(seed);
    data::Example ex;
    ex.story.resize(ns);
    for (auto &s : ex.story) {
        s.resize(sentence_len);
        for (auto &w : s)
            w = data::WordId(rng.next() % vocab);
    }
    ex.question.resize(sentence_len);
    for (auto &w : ex.question)
        w = data::WordId(rng.next() % vocab);
    ex.answer = data::WordId(rng.next() % vocab);
    return ex;
}

TEST(ForwardTopK, KeepAllIsBitIdenticalToForward)
{
    ModelConfig mc;
    mc.vocabSize = 40;
    mc.embeddingDim = 16;
    mc.hops = 2;
    mc.maxStory = 24;
    const MemNnModel model(mc, 9);
    const data::Example ex = makeExample(20, 4, mc.vocabSize, 10);

    ForwardState exact, routed;
    model.forward(ex, exact);
    uint64_t kept = 0, total = 0;
    model.forwardTopK(ex, /*chunk_rows=*/4, /*topk_chunks=*/5, routed,
                      kept, total);
    EXPECT_EQ(total, uint64_t(mc.hops) * 20);
    EXPECT_EQ(kept, total); // every chunk selected
    ASSERT_EQ(exact.logits.size(), routed.logits.size());
    for (size_t v = 0; v < exact.logits.size(); ++v)
        ASSERT_EQ(exact.logits[v], routed.logits[v]) << "logit " << v;
    for (size_t h = 0; h < mc.hops; ++h)
        for (size_t i = 0; i < exact.p[h].size(); ++i)
            ASSERT_EQ(exact.p[h][i], routed.p[h][i])
                << "hop " << h << " p " << i;
}

TEST(ForwardTopK, SmallKDropsRowsAndRenormalizesOverKeptSet)
{
    ModelConfig mc;
    mc.vocabSize = 40;
    mc.embeddingDim = 16;
    mc.hops = 1;
    mc.maxStory = 24;
    const MemNnModel model(mc, 11);
    const data::Example ex = makeExample(20, 4, mc.vocabSize, 12);

    ForwardState state;
    uint64_t kept = 0, total = 0;
    model.forwardTopK(ex, /*chunk_rows=*/4, /*topk_chunks=*/2, state,
                      kept, total);
    EXPECT_EQ(total, 20u);
    EXPECT_EQ(kept, 8u); // 2 chunks x 4 rows

    // Exactly the selected rows carry probability, and the kept
    // probabilities form a full softmax over the kept logits.
    size_t nonzero = 0;
    double mass = 0.0;
    for (float p : state.p[0]) {
        if (p > 0.f)
            ++nonzero;
        mass += p;
    }
    EXPECT_LE(nonzero, 8u);
    EXPECT_NEAR(mass, 1.0, 1e-5);
}

TEST(EvaluateAccuracyRouted, LargeKMatchesExactAccuracy)
{
    data::Vocabulary vocab;
    data::BabiGenerator gen(data::TaskType::SingleSupportingFact, vocab,
                            71);
    const data::Dataset set = gen.generateSet(40, 12);
    ModelConfig mc;
    mc.vocabSize = vocab.size();
    mc.embeddingDim = 16;
    mc.hops = 1;
    mc.maxStory = 16;
    const MemNnModel model(mc, 72);

    const double exact = evaluateAccuracy(model, set);
    uint64_t kept = 0, total = 0;
    const double routed =
        evaluateAccuracyRouted(model, set, /*chunk_rows=*/4,
                               /*topk_chunks=*/1000, kept, total);
    EXPECT_DOUBLE_EQ(exact, routed);
    EXPECT_EQ(kept, total);
}

} // namespace
} // namespace mnnfast::train

// ---------------------------------------------------------------------
// Traffic simulator: routed replay.
// ---------------------------------------------------------------------

namespace mnnfast::sim {
namespace {

WorkloadParams
routedWorkload()
{
    WorkloadParams wp;
    wp.ns = 8192;
    wp.ed = 16;
    wp.nq = 8;
    wp.chunkSize = 256;
    return wp;
}

CacheConfig
smallLlc()
{
    CacheConfig cfg;
    cfg.sizeBytes = 256 << 10;
    cfg.associativity = 16;
    return cfg;
}

TEST(RoutedTraffic, FractionOneReplaysUnroutedStreamExactly)
{
    // routeChunkFraction = 1 must be byte-identical to the unrouted
    // replay — same phases, same counts — so existing figures never
    // move.
    const auto wp = routedWorkload();
    auto routed = wp;
    routed.routeChunkFraction = 1.0;
    for (Dataflow df : {Dataflow::Column, Dataflow::ColumnStreaming,
                        Dataflow::MnnFast}) {
        const auto base = simulateDataflow(df, wp, smallLlc());
        const auto same = simulateDataflow(df, routed, smallLlc());
        ASSERT_EQ(base.phases.size(), same.phases.size());
        for (size_t i = 0; i < base.phases.size(); ++i) {
            EXPECT_EQ(base.phases[i].name, same.phases[i].name);
            EXPECT_EQ(base.phases[i].accesses, same.phases[i].accesses);
            EXPECT_EQ(base.phases[i].demandMisses,
                      same.phases[i].demandMisses);
            EXPECT_EQ(base.phases[i].prefetchedLines,
                      same.phases[i].prefetchedLines);
            EXPECT_DOUBLE_EQ(base.phases[i].flops,
                             same.phases[i].flops);
        }
        EXPECT_EQ(base.dramLines(), same.dramLines());
    }
}

TEST(RoutedTraffic, PartialFractionCutsTrafficAndAddsScorePhase)
{
    const auto wp = routedWorkload();
    auto routed = wp;
    routed.routeChunkFraction = 0.25;
    const auto base =
        simulateDataflow(Dataflow::ColumnStreaming, wp, smallLlc());
    const auto cut =
        simulateDataflow(Dataflow::ColumnStreaming, routed, smallLlc());

    // The routed replay appends a route_score phase accounting the
    // coarse index reads and score writes.
    ASSERT_EQ(cut.phases.size(), base.phases.size() + 1);
    EXPECT_EQ(cut.phases.back().name, "route_score");
    EXPECT_GT(cut.phases.back().accesses, 0u);
    EXPECT_GT(cut.phases.back().flops, 0.0);

    // Streaming only a quarter of the (question, chunk) pairs must
    // cut compute flops and total DRAM traffic well below the exact
    // replay, even after paying for the index.
    EXPECT_LT(cut.flops(), 0.7 * base.flops());
    EXPECT_LT(cut.dramLines(), base.dramLines());
}

TEST(RoutedTraffic, FractionOutsideUnitIntervalIsFatal)
{
    auto wp = routedWorkload();
    wp.routeChunkFraction = 0.0;
    EXPECT_EXIT(simulateDataflow(Dataflow::Column, wp, smallLlc()),
                ::testing::ExitedWithCode(1), "routeChunkFraction");
    wp.routeChunkFraction = 1.5;
    EXPECT_EXIT(simulateDataflow(Dataflow::Column, wp, smallLlc()),
                ::testing::ExitedWithCode(1), "routeChunkFraction");
}

} // namespace
} // namespace mnnfast::sim

// ---------------------------------------------------------------------
// Fail-fast EngineConfig validation.
// ---------------------------------------------------------------------

namespace mnnfast::core {
namespace {

TEST(EngineConfigValidation, RejectsMisalignedStripRowsPin)
{
    // A strip is pinned with runtime::PlanOverride, not EngineConfig;
    // a strip off the kernels' 4-row register group still stops the
    // process before an engine can run a split nobody asked for.
    const KnowledgeBase kb = randomKb(64, 8, 81);
    const std::vector<float> u = randomBatch(1, 8, 82);
    std::vector<float> o(8);
    EXPECT_EXIT(
        {
            runtime::PlanOverride pin({6, 0});
            ColumnEngine(kb, EngineConfig{}).inferBatch(u.data(), 1,
                                                        o.data());
        },
        ::testing::ExitedWithCode(1), "strip of 6 rows");
}

TEST(EngineConfigValidation, RejectsInvalidRoutingKnobs)
{
    const KnowledgeBase kb = randomKb(64, 8, 84);
    EngineConfig topk;
    topk.routePolicy = RoutePolicy::TopK;
    topk.routeTopK = 0;
    EXPECT_EXIT(ColumnEngine(kb, topk), ::testing::ExitedWithCode(1),
                "routeTopK");

    EngineConfig th;
    th.routePolicy = RoutePolicy::BoundThreshold;
    th.routeBoundThreshold = 1.5f;
    EXPECT_EXIT(ColumnEngine(kb, th), ::testing::ExitedWithCode(1),
                "routeBoundThreshold");
    th.routeBoundThreshold = -0.1f;
    EXPECT_EXIT(ColumnEngine(kb, th), ::testing::ExitedWithCode(1),
                "routeBoundThreshold");

    // Checked before any row is seen, and by the sharded server's scan
    // rings as by its engines.
    const KnowledgeBase empty(8);
    EXPECT_EXIT(ColumnEngine(empty, topk), ::testing::ExitedWithCode(1),
                "routeTopK");
    serve::LiveServerConfig sharded;
    sharded.shards = 2;
    sharded.engine = topk;
    sharded.engine.chunkSize = 16;
    EXPECT_EXIT(serve::LiveServer(kb, sharded),
                ::testing::ExitedWithCode(1), "routeTopK");
    sharded.engine = th;
    sharded.engine.chunkSize = 16;
    sharded.engine.routeBoundThreshold = 1.5f;
    EXPECT_EXIT(serve::LiveServer(kb, sharded),
                ::testing::ExitedWithCode(1), "routeBoundThreshold");
}

TEST(EngineConfigValidation, RoutePolicyNamesAreStable)
{
    EXPECT_STREQ(routePolicyName(RoutePolicy::None), "none");
    EXPECT_STREQ(routePolicyName(RoutePolicy::TopK), "topk");
    EXPECT_STREQ(routePolicyName(RoutePolicy::BoundThreshold),
                 "bound-threshold");
}

} // namespace
} // namespace mnnfast::core
