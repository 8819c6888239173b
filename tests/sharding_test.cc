/**
 * @file
 * Sharded knowledge base + scatter/gather engine tests: chunk-aligned
 * partition geometry, the shard-view contract (merged single-group
 * partials over the shard views equal the grouped engine, bits and
 * counters) across shard counts x zero-skipping x precision,
 * canonical merge order under a concurrent group walk, and the
 * LiveServer sharded serving mode (correctness, drain, rejection
 * split).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <vector>

#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
#include "core/sharded_engine.hh"
#include "core/sharded_knowledge_base.hh"
#include "node_set.hh"
#include "serve/live_server.hh"
#include "util/rng.hh"

namespace mnnfast {
namespace {

core::KnowledgeBase
makeKb(size_t ns, size_t ed,
       core::Precision prec = core::Precision::F32, uint64_t seed = 11)
{
    core::KnowledgeBase kb(ed, prec);
    kb.reserve(ns);
    XorShiftRng rng(seed);
    std::vector<float> a(ed), b(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            a[e] = rng.uniformRange(-0.5f, 0.5f);
            b[e] = rng.uniformRange(-0.5f, 0.5f);
        }
        kb.addSentence(a.data(), b.data());
    }
    return kb;
}

std::vector<float>
makeQuestions(size_t nq, size_t ed, uint64_t seed = 23)
{
    XorShiftRng rng(seed);
    std::vector<float> u(nq * ed);
    for (float &x : u)
        x = rng.uniformRange(-1.f, 1.f);
    return u;
}

// ---------------------------------------------------------------
// ShardedKnowledgeBase: partition geometry
// ---------------------------------------------------------------

TEST(ShardedKnowledgeBase, PartitionIsChunkAlignedAndCoversKb)
{
    const size_t ns = 1000, ed = 8, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const core::ShardedKnowledgeBase skb(kb, chunk, 4);

    ASSERT_GE(skb.shardCount(), 2u);
    ASSERT_LE(skb.shardCount(), 4u);
    EXPECT_EQ(skb.chunkSize(), chunk);

    size_t expected_begin = 0;
    for (size_t s = 0; s < skb.shardCount(); ++s) {
        const runtime::Range r = skb.rows(s);
        EXPECT_EQ(r.begin, expected_begin); // contiguous, ordered
        EXPECT_GT(r.end, r.begin);
        // Interior boundaries land on chunk multiples.
        EXPECT_EQ(r.begin % chunk, 0u);
        if (s + 1 < skb.shardCount()) {
            EXPECT_EQ(r.end % chunk, 0u);
        }
        // The view window is the right rows of the parent.
        const core::KnowledgeBase &v = skb.shard(s);
        ASSERT_EQ(v.size(), r.end - r.begin);
        EXPECT_EQ(v.dim(), ed);
        EXPECT_EQ(v.minData(), kb.minData() + r.begin * ed);
        EXPECT_EQ(v.moutData(), kb.moutData() + r.begin * ed);
        expected_begin = r.end;
    }
    EXPECT_EQ(expected_begin, ns); // full coverage, no overlap
}

TEST(ShardedKnowledgeBase, ClampsShardCountToChunkCount)
{
    const core::KnowledgeBase kb = makeKb(100, 8);
    // 100 rows / chunk 64 -> 2 chunks: at most 2 shards exist.
    const core::ShardedKnowledgeBase skb(kb, 64, 8);
    EXPECT_EQ(skb.shardCount(), 2u);
    EXPECT_EQ(skb.rows(0).begin, 0u);
    EXPECT_EQ(skb.rows(1).end, 100u);
}

TEST(ShardedKnowledgeBase, SingleShardIsTheWholeKb)
{
    const core::KnowledgeBase kb = makeKb(200, 8);
    const core::ShardedKnowledgeBase skb(kb, 64, 1);
    ASSERT_EQ(skb.shardCount(), 1u);
    EXPECT_EQ(skb.rows(0).begin, 0u);
    EXPECT_EQ(skb.rows(0).end, 200u);
    EXPECT_EQ(skb.shard(0).size(), 200u);
}

// ---------------------------------------------------------------
// ShardedEngine: bit-identity, merge order, concurrency, counters
// ---------------------------------------------------------------

/**
 * The shard-view contract: the shard nodes' partials (single-group
 * engines over skb.shard(s), merged in shard order) are bit-identical
 * to the ShardedEngine, one ColumnEngine with scheduleGroups =
 * shardCount, across shard counts x zero-skipping x precision.
 */
TEST(ShardedEngine, BitIdenticalToSingleEngineAcrossConfigs)
{
    const size_t ns = 700, ed = 16, nq = 5, chunk = 64;
    const std::vector<float> u = makeQuestions(nq, ed);

    for (core::Precision prec :
         {core::Precision::F32, core::Precision::BF16,
          core::Precision::I8}) {
        const core::KnowledgeBase kb = makeKb(ns, ed, prec);
        for (float zskip : {0.0f, 0.05f}) {
            for (size_t shards : {size_t(1), size_t(2), size_t(4),
                                  size_t(8)}) {
                core::EngineConfig cfg;
                cfg.chunkSize = chunk;
                cfg.streaming = true;
                cfg.skipThreshold = zskip;

                const core::ShardedKnowledgeBase skb(kb, chunk, shards);
                ShardViews views(skb, cfg);
                core::EngineConfig scfg = cfg;
                scfg.threads = 2;
                core::ShardedEngine sharded(skb, scfg);

                std::vector<float> o_sharded(nq * ed, -1.f);
                std::vector<float> o_ref(nq * ed, -2.f);
                sharded.inferBatch(u.data(), nq, o_sharded.data());
                views.inferBatch(u.data(), nq, o_ref.data());
                for (size_t i = 0; i < o_ref.size(); ++i)
                    ASSERT_EQ(o_sharded[i], o_ref[i])
                        << "prec=" << core::precisionName(prec)
                        << " zskip=" << zskip << " shards=" << shards
                        << " elem=" << i;
            }
        }
    }
}

/**
 * The streaming sweep behind a threaded scatter pool (the running-max
 * merge with rescaled partials) is bit-identical too, at another KB
 * size and batch.
 */
TEST(ShardedEngine, StreamingThreadedScatterIsBitIdentical)
{
    const size_t ns = 500, ed = 16, nq = 4, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> u = makeQuestions(nq, ed);

    core::EngineConfig cfg;
    cfg.chunkSize = chunk;
    cfg.streaming = true;
    for (size_t shards : {size_t(2), size_t(4)}) {
        const core::ShardedKnowledgeBase skb(kb, chunk, shards);
        core::EngineConfig scfg = cfg;
        scfg.threads = 2;
        core::ShardedEngine sharded(skb, scfg);
        core::EngineConfig rcfg = cfg;
        rcfg.scheduleGroups = skb.shardCount();
        core::ColumnEngine reference(kb, rcfg);

        std::vector<float> o_sharded(nq * ed), o_ref(nq * ed);
        sharded.inferBatch(u.data(), nq, o_sharded.data());
        reference.inferBatch(u.data(), nq, o_ref.data());
        for (size_t i = 0; i < o_ref.size(); ++i)
            ASSERT_EQ(o_sharded[i], o_ref[i]) << "shards=" << shards;
    }
}

/**
 * Merge order is canonical (shard index), not completion order: with
 * a multi-threaded scatter pool and dynamic shard handout, shard
 * completion order varies run to run, yet every run must produce the
 * same bits as the inline (threads = 0) scatter.
 */
TEST(ShardedEngine, GatherOrderIsIndependentOfCompletionOrder)
{
    const size_t ns = 1024, ed = 16, nq = 4, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> u = makeQuestions(nq, ed);
    const core::ShardedKnowledgeBase skb(kb, chunk, 8);
    ASSERT_EQ(skb.shardCount(), 8u);

    core::EngineConfig inline_cfg;
    inline_cfg.chunkSize = chunk;
    inline_cfg.threads = 0; // sequential scatter: canonical order
    core::ShardedEngine inline_engine(skb, inline_cfg);
    std::vector<float> o_inline(nq * ed);
    inline_engine.inferBatch(u.data(), nq, o_inline.data());

    core::EngineConfig pool_cfg = inline_cfg;
    pool_cfg.threads = 4;
    core::ShardedEngine pooled(skb, pool_cfg);
    std::vector<float> o_pooled(nq * ed);
    for (int run = 0; run < 5; ++run) {
        std::fill(o_pooled.begin(), o_pooled.end(), -1.f);
        pooled.inferBatch(u.data(), nq, o_pooled.data());
        for (size_t i = 0; i < o_inline.size(); ++i)
            ASSERT_EQ(o_pooled[i], o_inline[i])
                << "run " << run << " elem " << i;
    }
}

/**
 * The shard views' counters sum to the grouped engine's: the same
 * chunks swept and the same zero-skip decisions, per shard.
 */
TEST(ShardedEngine, AggregatesCountersAcrossShards)
{
    const size_t ns = 600, ed = 16, nq = 3, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> u = makeQuestions(nq, ed);

    core::EngineConfig cfg;
    cfg.chunkSize = chunk;
    cfg.streaming = true;
    cfg.skipThreshold = 0.05f;

    const core::ShardedKnowledgeBase skb(kb, chunk, 4);
    ASSERT_EQ(skb.shardCount(), 4u);
    core::EngineConfig scfg = cfg;
    scfg.threads = 2;
    core::ShardedEngine sharded(skb, scfg);
    ShardViews views(skb, cfg);

    std::vector<float> o(nq * ed);
    sharded.inferBatch(u.data(), nq, o.data());
    views.inferBatch(u.data(), nq, o.data());

    for (const char *name : {"chunks_processed", "rows_kept",
                             "rows_skipped", "flops_inner",
                             "flops_wsum"})
        EXPECT_EQ(views.counter(name), sharded.counters().value(name))
            << name;
    // The single deferred division per output element.
    EXPECT_EQ(sharded.counters().value("div_ops"), uint64_t(nq) * ed);
    // Every weighted-sum row was either kept or skipped.
    EXPECT_EQ(sharded.counters().value("rows_kept")
                  + sharded.counters().value("rows_skipped"),
              uint64_t(ns) * nq);
}

TEST(ShardedEngine, MismatchedChunkSizeIsFatal)
{
    const core::KnowledgeBase kb = makeKb(200, 8);
    const core::ShardedKnowledgeBase skb(kb, 64, 2);
    core::EngineConfig cfg;
    cfg.chunkSize = 32; // partition was aligned to 64
    EXPECT_EXIT(core::ShardedEngine(skb, cfg),
                ::testing::ExitedWithCode(1), "chunk");
}

// ---------------------------------------------------------------
// LiveServer sharded serving mode
// ---------------------------------------------------------------

TEST(LiveServer, ShardedModeAnswersMatchReferenceEngine)
{
    const size_t ns = 300, ed = 16, n_requests = 40;
    const core::KnowledgeBase kb = makeKb(ns, ed);

    serve::LiveServerConfig cfg;
    cfg.maxBatch = 8;
    cfg.batchTimeout = 1e-3;
    cfg.workers = 2;
    cfg.shards = 2;
    cfg.queueCapacity = 256;
    cfg.engine.chunkSize = 64;
    cfg.engine.streaming = true;

    // The server's sharded engine is bit-identical to a single engine
    // whose group decomposition matches the shard partition.
    const core::ShardedKnowledgeBase skb(kb, cfg.engine.chunkSize,
                                         cfg.shards);
    core::EngineConfig rcfg = cfg.engine;
    rcfg.scheduleGroups = skb.shardCount();
    core::ColumnEngine reference(kb, rcfg);

    serve::LiveServer server(kb, cfg);
    EXPECT_TRUE(server.sharded());
    EXPECT_EQ(server.engineSlots(), 1u); // one scatter/gather slot

    XorShiftRng rng(31);
    std::vector<std::vector<float>> questions(n_requests);
    std::vector<std::future<serve::Answer>> futures;
    for (auto &q : questions) {
        q.resize(ed);
        for (float &x : q)
            x = rng.uniformRange(-1.f, 1.f);
        serve::Ticket t = server.submit(q.data());
        ASSERT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }
    server.shutdown();

    std::vector<float> expected(ed);
    for (size_t i = 0; i < n_requests; ++i) {
        serve::Answer a = futures[i].get();
        ASSERT_EQ(a.o.size(), ed);
        EXPECT_FALSE(a.failed);
        EXPECT_EQ(a.shardMask, (1u << skb.shardCount()) - 1);
        reference.infer(questions[i].data(), expected.data());
        for (size_t e = 0; e < ed; ++e)
            EXPECT_EQ(a.o[e], expected[e])
                << "request " << i << " element " << e;
    }
    const serve::LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.completed, n_requests);
    EXPECT_EQ(s.arrived, n_requests);
    EXPECT_EQ(s.rejected, 0u);
}

TEST(LiveServer, ShardedModeDrainsAndSplitsRejections)
{
    const core::KnowledgeBase kb = makeKb(200, 8);
    serve::LiveServerConfig cfg;
    cfg.maxBatch = 4;
    cfg.batchTimeout = 20e-3;
    cfg.workers = 2;
    cfg.shards = 2;
    cfg.queueCapacity = 8; // tiny: the flood must overflow
    cfg.engine.chunkSize = 64;
    serve::LiveServer server(kb, cfg);

    std::vector<float> q(8, 0.25f);
    std::vector<std::future<serve::Answer>> futures;
    uint64_t refused = 0;
    for (int i = 0; i < 400; ++i) {
        serve::Ticket t = server.submit(q.data());
        if (t.accepted())
            futures.push_back(std::move(t.answer));
        else
            ++refused;
    }
    server.shutdown();
    serve::Ticket late = server.submit(q.data());
    EXPECT_EQ(late.status, serve::SubmitStatus::ShuttingDown);

    for (auto &f : futures)
        EXPECT_EQ(f.get().o.size(), 8u);

    const serve::LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.arrived, 401u);
    EXPECT_EQ(s.completed, futures.size());
    EXPECT_EQ(s.rejectedFull, refused);
    EXPECT_EQ(s.rejectedShutdown, 1u);
    EXPECT_EQ(s.rejected, s.rejectedFull + s.rejectedShutdown);
    EXPECT_EQ(s.completed + s.rejected, s.arrived);
}

} // namespace
} // namespace mnnfast
