/**
 * @file
 * Sharded knowledge base + scatter/gather engine tests: chunk-aligned
 * partition geometry, the shard-view contract (merged single-group
 * partials over the shard views equal the grouped engine, bits and
 * counters) across shard counts x zero-skipping x precision, and the
 * LiveServer sharded serving mode, a cooperative scan: bit identity
 * with batches joining mid-revolution at every chunk, canonical merge
 * order whatever order the rings finish in, drain, rejection split,
 * and the scan ring's join rule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
#include "core/scan_ring.hh"
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

/** Serve each question of `u` (nq x ed) alone and collect the
 *  answers in order. */
std::vector<float>
serveEach(serve::LiveServer &server, const std::vector<float> &u,
          size_t nq)
{
    const size_t ed = server.embeddingDim();
    std::vector<std::future<serve::Answer>> futures;
    for (size_t q = 0; q < nq; ++q) {
        serve::Ticket t = server.submit(u.data() + q * ed);
        EXPECT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }
    std::vector<float> o;
    for (auto &f : futures) {
        const serve::Answer a = f.get();
        EXPECT_FALSE(a.failed);
        o.insert(o.end(), a.o.begin(), a.o.end());
    }
    return o;
}

/**
 * The threaded scatter of the serving path — LiveServer's scan, one
 * ring per shard view stepped by three workers (fewer rings than
 * workers, then more), with the kernels' row look-ahead on — answers
 * a burst whose batches join the rings mid-revolution bit for bit as
 * the shard views' merged partials.
 */
TEST(ShardedEngine, StreamingThreadedScatterIsBitIdentical)
{
    const size_t ns = 500, ed = 16, nq = 24, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> u = makeQuestions(nq, ed);

    core::EngineConfig cfg;
    cfg.chunkSize = chunk;
    cfg.streaming = true;
    for (size_t shards : {size_t(2), size_t(4)}) {
        const core::ShardedKnowledgeBase skb(kb, chunk, shards);
        ShardViews views(skb, cfg);
        std::vector<float> o_ref(nq * ed);
        views.inferBatch(u.data(), nq, o_ref.data());

        serve::LiveServerConfig lcfg;
        lcfg.maxBatch = 4;
        lcfg.batchTimeout = 0.0;
        lcfg.workers = 3;
        lcfg.shards = shards;
        lcfg.engine = cfg;
        serve::LiveServer server(kb, lcfg);
        const std::vector<float> o = serveEach(server, u, nq);
        ASSERT_EQ(o.size(), o_ref.size());
        for (size_t i = 0; i < o_ref.size(); ++i)
            ASSERT_EQ(o[i], o_ref[i]) << "shards=" << shards
                                      << " elem=" << i;
    }
}

/**
 * Merge order is canonical (shard index), not completion order: the
 * scan's rings finish a batch's rides in whatever order their workers
 * reach the ends of the revolutions. An observer that stalls one
 * shard's chunks — a different shard each run — reorders those
 * completions, yet every run answers with the bits of the shard views
 * merged in shard order.
 */
TEST(ShardedEngine, GatherOrderIsIndependentOfCompletionOrder)
{
    const size_t ns = 1024, ed = 16, nq = 4, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> u = makeQuestions(nq, ed);
    const core::ShardedKnowledgeBase skb(kb, chunk, 8);
    ASSERT_EQ(skb.shardCount(), 8u);
    const size_t per_shard = ns / chunk / 8;

    core::EngineConfig cfg;
    cfg.chunkSize = chunk;
    ShardViews views(skb, cfg);
    std::vector<float> o_ref(nq * ed);
    views.inferBatch(u.data(), nq, o_ref.data());

    std::set<std::vector<size_t>> orders;
    for (size_t slow = 0; slow < skb.shardCount(); ++slow) {
        std::mutex m;
        std::vector<size_t> finished; // shards, by last chunk streamed
        serve::LiveServerConfig lcfg;
        // The scan dispatches on arrival, so the questions ride as
        // they arrive — alone or together, and each gather merges
        // eight partials in shard order whatever its size.
        lcfg.maxBatch = nq;
        lcfg.workers = 4;
        lcfg.shards = 8;
        lcfg.engine = cfg;
        lcfg.engine.chunkObserver = [&](size_t, size_t c) {
            const size_t shard = c / per_shard;
            if (shard == slow)
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            if (c % per_shard == per_shard - 1) {
                std::lock_guard<std::mutex> lock(m);
                finished.push_back(shard);
            }
        };
        serve::LiveServer server(kb, lcfg);
        const std::vector<float> o = serveEach(server, u, nq);
        server.shutdown();
        ASSERT_EQ(o.size(), o_ref.size());
        for (size_t i = 0; i < o_ref.size(); ++i)
            ASSERT_EQ(o[i], o_ref[i]) << "slow shard " << slow
                                      << " elem " << i;
        orders.insert(finished);
    }
    // The stalls did reorder the completions.
    EXPECT_GT(orders.size(), 1u);
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
    EXPECT_EQ(server.engineSlots(), 4u); // the scan's riding window

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

// ---------------------------------------------------------------
// LiveServer sharded mode: the cooperative scan
// ---------------------------------------------------------------

/** True once `f` settled. */
bool
settled(std::future<serve::Answer> &f)
{
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/**
 * A batch joins the scan at whatever chunk each ring is on. One
 * worker steps both rings. Four single-question fillers hold the
 * window full while questions 0-1 and 2-3 queue, so each pair leaves
 * as one batch: 0-1 when the first filler retires, 2-3 when the second
 * does. A chunk observer holds the first filler after its k-th chunk
 * while the other three are dispatched, so they — and with them the
 * second pair — trail by k chunks, and the second pair joins the first
 * near its k-th chunk, for every k the first filler streams. Each
 * answer must equal the ShardedEngine over the same partition bit for
 * bit, across precision x zero-skip x streaming x routing.
 */
TEST(LiveServer, ScanJoinsAtEveryChunkBitIdentical)
{
    // 7 chunks: shards of 4 and 3.
    const size_t ns = 200, ed = 16, chunk = 32, nq = 4;
    const std::vector<float> u = makeQuestions(nq, ed);
    size_t mid_ring_rounds = 0;

    for (core::Precision prec :
         {core::Precision::F32, core::Precision::BF16,
          core::Precision::I8}) {
        const core::KnowledgeBase kb = makeKb(ns, ed, prec);
        for (float zskip : {0.0f, 0.05f})
        for (bool streaming : {false, true})
        for (bool routed : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << core::precisionName(prec) << " zskip="
                         << zskip << " streaming=" << streaming
                         << " routed=" << routed);
            core::EngineConfig cfg;
            cfg.chunkSize = chunk;
            cfg.skipThreshold = zskip;
            cfg.streaming = streaming;
            if (routed) {
                cfg.routePolicy = core::RoutePolicy::TopK;
                cfg.routeTopK = 2;
            }
            const core::ShardedKnowledgeBase skb(kb, chunk, 2);
            ASSERT_EQ(skb.shardCount(), 2u);
            core::ShardedEngine reference(skb, cfg);
            std::vector<float> o_ref(nq * ed);
            reference.inferBatch(u.data(), nq, o_ref.data());

            ChunkHold hold;
            serve::LiveServerConfig lcfg;
            lcfg.maxBatch = 2;
            lcfg.workers = 1;
            lcfg.shards = 2;
            lcfg.engine = cfg;
            lcfg.engine.chunkObserver = [&](size_t, size_t) {
                hold.chunk();
            };
            serve::LiveServer server(kb, lcfg);
            ASSERT_EQ(server.engineSlots(), 4u);
            const auto submit = [&](size_t q) {
                serve::Ticket t = server.submit(u.data() + q * ed);
                EXPECT_TRUE(t.accepted());
                return std::move(t.answer);
            };

            // The chunks question 0 streams alone (no chunk is the
            // 0th, so nothing is held): 7 unrouted.
            hold.arm(0);
            submit(0).get();
            const size_t lone = hold.count();
            if (!routed) {
                ASSERT_EQ(lone, 7u);
            }

            for (size_t k = 1; k <= lone; ++k) {
                hold.arm(k);
                // The fillers are questions 0-3 again, each dispatched
                // alone before the next arrives.
                std::vector<std::future<serve::Answer>> fill, f;
                for (size_t i = 0; i < 4; ++i) {
                    fill.push_back(submit(i));
                    if (i == 0) {
                        ASSERT_TRUE(hold.waitHeld(
                            [&] { return settled(fill[0]); }));
                    }
                    while (server.queued() != 0)
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(100));
                }
                for (size_t q = 0; q < nq; ++q)
                    f.push_back(submit(q));
                // The held rings keep every filler riding, so no
                // credit returns and the pairs wait together.
                EXPECT_EQ(server.queued(), nq);
                hold.release();

                for (size_t q = 0; q < nq; ++q) {
                    const serve::Answer a = fill[q].get();
                    const serve::Answer b = f[q].get();
                    EXPECT_EQ(a.batchSize, 1u);
                    EXPECT_EQ(b.batchSize, 2u) << "k=" << k;
                    ASSERT_EQ(a.o.size(), ed);
                    ASSERT_EQ(b.o.size(), ed);
                    for (size_t e = 0; e < ed; ++e) {
                        ASSERT_EQ(a.o[e], o_ref[q * ed + e])
                            << "k=" << k << " filler " << q;
                        ASSERT_EQ(b.o[e], o_ref[q * ed + e])
                            << "k=" << k << " question " << q;
                    }
                }
                // Three revolutions one after another (the first
                // filler's, the first pair's, the second pair's) stream
                // 3 x 7 chunks; fewer means the pairs shared some.
                if (!routed && hold.count() < 3 * lone)
                    ++mid_ring_rounds;
            }
        }
    }
    EXPECT_GT(mid_ring_rounds, 0u);
}

/**
 * The scan's batches join the work in flight, so the server
 * dispatches on arrival: a lone request is answered long before a
 * 10 s batchTimeout, with the bits of the shard views merged.
 */
TEST(LiveServer, ScanDispatchesALoneRequestOnArrival)
{
    const size_t ns = 300, ed = 16, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> u = makeQuestions(1, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;
    cfg.skipThreshold = 0.05f;
    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    ShardViews views(skb, cfg);
    std::vector<float> o_ref(ed);
    views.inferBatch(u.data(), 1, o_ref.data());

    serve::LiveServerConfig lcfg;
    lcfg.maxBatch = 8;
    lcfg.batchTimeout = 10.0;
    lcfg.shards = 2;
    lcfg.engine = cfg;
    serve::LiveServer server(kb, lcfg);
    serve::Ticket t = server.submit(u.data());
    ASSERT_TRUE(t.accepted());
    ASSERT_EQ(t.answer.wait_for(std::chrono::seconds(2)),
              std::future_status::ready);
    const serve::Answer a = t.answer.get();
    EXPECT_EQ(a.batchSize, 1u);
    EXPECT_LT(a.queueWaitSeconds, 2.0);
    ASSERT_EQ(a.o.size(), ed);
    for (size_t e = 0; e < ed; ++e)
        EXPECT_EQ(a.o[e], o_ref[e]) << "element " << e;
}

/**
 * Flood a sharded server while a chunk observer holds its rings with
 * riders mid-revolution, and shut it down before releasing them:
 * every accepted future settles exactly once, with the reference
 * answer, in submission order, and arrived == rejected + completed.
 */
TEST(LiveServer, ScanFloodAndShutdownMidRevolutionSettlesEveryFuture)
{
    const size_t ns = 2048, ed = 16, chunk = 64, n = 300;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> u = makeQuestions(n, ed);

    core::EngineConfig cfg;
    cfg.chunkSize = chunk;
    cfg.skipThreshold = 0.05f;
    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    ShardViews views(skb, cfg);
    std::vector<float> o_ref(n * ed);
    views.inferBatch(u.data(), n, o_ref.data());

    ChunkHold hold;
    hold.arm(5);
    serve::LiveServerConfig lcfg;
    lcfg.maxBatch = 4;
    lcfg.batchTimeout = 0.0;
    lcfg.workers = 2;
    lcfg.shards = 2;
    lcfg.queueCapacity = 16;
    lcfg.engine = cfg;
    lcfg.engine.chunkObserver = [&](size_t, size_t) { hold.chunk(); };
    serve::LiveServer server(kb, lcfg);

    std::vector<size_t> index; // question of each accepted future
    std::vector<std::future<serve::Answer>> futures;
    uint64_t refused = 0;
    for (size_t i = 0; i < n; ++i) {
        serve::Ticket t = server.submit(u.data() + i * ed);
        if (t.accepted()) {
            index.push_back(i);
            futures.push_back(std::move(t.answer));
        } else {
            EXPECT_EQ(t.status, serve::SubmitStatus::Rejected);
            ++refused;
        }
    }
    ASSERT_GT(refused, 0u); // the held rings let the queue fill
    ASSERT_TRUE(hold.waitHeld([&] { return settled(futures[0]); }));

    std::thread stopper([&] { server.shutdown(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    hold.release();

    // The retire loop settles batches in submission order, so once
    // future i is seen ready every earlier one must be ready too.
    size_t ready = 0;
    while (ready < futures.size()) {
        size_t high = futures.size();
        while (high > ready
               && futures[high - 1].wait_for(std::chrono::seconds(0))
                      != std::future_status::ready)
            --high;
        for (size_t j = ready; j < high; ++j)
            ASSERT_EQ(futures[j].wait_for(std::chrono::seconds(0)),
                      std::future_status::ready)
                << "future " << high - 1 << " settled before " << j;
        ready = high;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    stopper.join();

    for (size_t j = 0; j < futures.size(); ++j) {
        const serve::Answer a = futures[j].get();
        ASSERT_EQ(a.o.size(), ed);
        for (size_t e = 0; e < ed; ++e)
            ASSERT_EQ(a.o[e], o_ref[index[j] * ed + e])
                << "question " << index[j];
    }
    EXPECT_EQ(server.submit(u.data()).status,
              serve::SubmitStatus::ShuttingDown);
    const serve::LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.completed, futures.size());
    EXPECT_EQ(s.rejectedFull, refused);
    EXPECT_EQ(s.rejectedShutdown, 1u);
    EXPECT_EQ(s.arrived, n + 1);
    EXPECT_EQ(s.arrived, s.rejected + s.completed);
}

/**
 * A sharded server's snapshot carries its scan's engine counters:
 * every served question tests every KB row once in the zero-skip
 * weighted sum, kept or skipped, whatever chunk its batch joined at.
 */
TEST(LiveServer, ShardedSnapshotCarriesScanCounters)
{
    const size_t ns = 500, ed = 16, n = 40;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> u = makeQuestions(n, ed);
    serve::LiveServerConfig cfg;
    cfg.maxBatch = 4;
    cfg.batchTimeout = 0.0;
    cfg.workers = 2;
    cfg.shards = 2;
    cfg.engine.chunkSize = 64;
    cfg.engine.skipThreshold = 0.05f;
    serve::LiveServer server(kb, cfg);

    std::vector<std::future<serve::Answer>> futures;
    for (size_t i = 0; i < n; ++i) {
        serve::Ticket t = server.submit(u.data() + i * ed);
        ASSERT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }
    for (auto &f : futures)
        f.get();

    const serve::LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.scan.rowsKept + s.scan.rowsSkipped, n * ns);
    EXPECT_GT(s.scan.rowsKept, 0u);
    EXPECT_GT(s.scan.rowsSkipped, 0u);
    EXPECT_EQ(s.scan.rowsRouted, 0u); // routing is off
    EXPECT_EQ(s.scan.chunksBypassed, 0u);
    // Every question streams each of the partition's 8 chunks once,
    // in some ring step; no step streams more than a window of
    // batches, and a question keeps at most the chunks it streamed.
    const size_t chunks = (ns + 63) / 64;
    EXPECT_EQ(s.scan.questionsStreamed, n * chunks);
    EXPECT_GE(s.scan.steps * server.engineSlots() * cfg.maxBatch,
              s.scan.questionsStreamed);
    EXPECT_LE(s.scan.steps, s.scan.questionsStreamed);
    EXPECT_LT(s.scan.keptChunks, s.scan.questionsStreamed);
    // Every phase ran, and each step's phases lie inside the busy time
    // its worker spent attaching and stepping.
    EXPECT_GT(s.scan.innerSeconds, 0.0);
    EXPECT_GT(s.scan.softmaxSeconds, 0.0);
    EXPECT_GT(s.scan.wsumSeconds, 0.0);
    EXPECT_LE(s.scan.innerSeconds + s.scan.softmaxSeconds
                  + s.scan.wsumSeconds,
              s.scan.busySeconds);
    const std::string j = s.toJson();
    EXPECT_NE(j.find("\"rows_kept\": " + std::to_string(s.scan.rowsKept)),
              std::string::npos);
    EXPECT_NE(j.find("\"steps\": " + std::to_string(s.scan.steps)),
              std::string::npos);
    EXPECT_NE(j.find("\"questions_streamed\": "
                     + std::to_string(s.scan.questionsStreamed)),
              std::string::npos);
    EXPECT_NE(j.find("\"kept_chunks\": "
                     + std::to_string(s.scan.keptChunks)),
              std::string::npos);
    for (const char *key :
         {"\"inner_s\": ", "\"softmax_s\": ", "\"wsum_s\": ", "\"busy_s\": "})
        EXPECT_NE(j.find(key), std::string::npos) << key;
}

/**
 * The replicated mode's snapshot carries its scan's counters too: what
 * its ring kept, skipped, routed and bypassed, and its steps.
 */
TEST(LiveServer, ReplicatedSnapshotCarriesScanCounters)
{
    const size_t ns = 500, ed = 16, n = 40;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> u = makeQuestions(n, ed);
    serve::LiveServerConfig cfg;
    cfg.maxBatch = 4;
    cfg.batchTimeout = 0.0;
    cfg.workers = 2;
    cfg.engine.chunkSize = 64;
    cfg.engine.skipThreshold = 0.05f;
    serve::LiveServer server(kb, cfg);
    ASSERT_FALSE(server.sharded());

    std::vector<std::future<serve::Answer>> futures;
    for (size_t i = 0; i < n; ++i) {
        serve::Ticket t = server.submit(u.data() + i * ed);
        ASSERT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }
    for (auto &f : futures)
        f.get();

    const serve::LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.scan.rowsKept + s.scan.rowsSkipped, n * ns);
    EXPECT_GT(s.scan.rowsKept, 0u);
    EXPECT_GT(s.scan.rowsSkipped, 0u);
    EXPECT_EQ(s.scan.rowsRouted, 0u); // routing is off
    EXPECT_EQ(s.scan.chunksBypassed, 0u);
    EXPECT_GT(s.scan.steps, 0u);
    EXPECT_GT(s.scan.questionsStreamed, 0u);

    // With routing on, the routed rows and bypassed chunks arrive too.
    cfg.engine.routePolicy = core::RoutePolicy::TopK;
    cfg.engine.routeTopK = 2;
    serve::LiveServer routed(kb, cfg);
    for (size_t i = 0; i < n; ++i) {
        serve::Ticket t = routed.submit(u.data() + i * ed);
        ASSERT_TRUE(t.accepted());
        t.answer.get();
    }
    const serve::LatencySnapshot r = routed.snapshot();
    EXPECT_GT(r.scan.rowsRouted, 0u);
    EXPECT_LT(r.scan.rowsRouted, n * ns);
    EXPECT_GT(r.scan.chunksBypassed, 0u);
}

/**
 * One ring's join rule (core::ScanRing, stepped by hand): a batch that
 * finds the ring idle joins at chunk 0 and keeps no logits — also when
 * the ring stopped mid-revolution — while one attached at chunk j > 0
 * keeps exactly its rows from chunk j on, at most kb rows per
 * question. Either way its partial is the single-group engine's.
 */
TEST(LiveServer, IdleScanRingKeepsNoLogits)
{
    const size_t ns = 300, ed = 16, chunk = 64, nq = 3; // 5 chunks
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> ua = makeQuestions(nq, ed, 41);
    const std::vector<float> ub = makeQuestions(nq, ed, 42);

    core::EngineConfig cfg;
    cfg.chunkSize = chunk;
    cfg.streaming = true;
    cfg.skipThreshold = 0.05f;
    core::EngineConfig single = cfg;
    single.scheduleGroups = 1;
    core::ColumnEngine engine(kb, single);
    core::StreamPartial ref_a, ref_b;
    engine.inferPartial(ua.data(), nq, ref_a);
    engine.inferPartial(ub.data(), nq, ref_b);
    const auto expectPartial = [&](const core::StreamPartial &p,
                                   const core::StreamPartial &ref,
                                   size_t j) {
        ASSERT_EQ(p.nq, nq);
        for (size_t q = 0; q < nq; ++q) {
            EXPECT_EQ(p.expSum[q], ref.expSum[q]) << "j=" << j;
            EXPECT_EQ(p.runMax[q], ref.runMax[q]) << "j=" << j;
        }
        for (size_t i = 0; i < nq * ed; ++i)
            ASSERT_EQ(p.o[i], ref.o[i]) << "j=" << j << " elem " << i;
    };

    core::ScanRing ring(kb, cfg);
    ASSERT_EQ(ring.chunkCount(), 5u);
    for (size_t j = 0; j < ring.chunkCount(); ++j) {
        core::ScanRider a, b;
        a.u = ua.data();
        a.nq = nq;
        b.u = ub.data();
        b.nq = nq;
        ASSERT_TRUE(ring.idle());
        ring.attach(a);
        EXPECT_EQ(a.joinedAt, 0u) << "j=" << j;
        std::vector<core::ScanRider *> done;
        for (size_t s = 0; s < j; ++s)
            ring.step(0, done);
        ring.attach(b);
        EXPECT_EQ(b.joinedAt, j);
        while (!ring.idle())
            ring.step(0, done);
        // The ring stops where b's revolution ended, at chunk j; the
        // next round still starts at chunk 0.
        EXPECT_EQ(ring.position(), j);

        ASSERT_EQ(done.size(), 2u);
        EXPECT_EQ(done[0], &a);
        EXPECT_EQ(done[1], &b);
        EXPECT_EQ(a.keptFloats, 0u);
        EXPECT_EQ(b.keptFloats, j == 0 ? 0 : nq * (ns - j * chunk));
        expectPartial(a.partial, ref_a, j);
        expectPartial(b.partial, ref_b, j);
    }
}

// ---------------------------------------------------------------
// ScanRing: step counters and the kept-logit pool
// ---------------------------------------------------------------

/** p and ref hold the same bits. */
void
expectSameBits(const core::StreamPartial &p, const core::StreamPartial &ref)
{
    ASSERT_EQ(p.nq, ref.nq);
    ASSERT_EQ(p.o.size(), ref.o.size());
    EXPECT_EQ(std::memcmp(p.expSum.data(), ref.expSum.data(),
                          ref.nq * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(p.runMax.data(), ref.runMax.data(),
                          ref.nq * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(p.o.data(), ref.o.data(),
                          ref.o.size() * sizeof(float)),
              0);
}

/**
 * A ring's step counters, stepped by hand: rider a (3 questions) finds
 * the ring idle, rider b (2) joins at chunk 2 of 5. The ring steps
 * chunks 0-1 for a, 2-4 for both, 0-1 for b: 7 steps streaming
 * 2 x 3 + 3 x 5 + 2 x 2 = 25 questions, and b keeps its 3 chunks
 * before the wrap, 6 (question, chunk) tiles.
 */
TEST(ScanRing, StepCountersCountRidesExactly)
{
    const size_t ns = 300, ed = 16, chunk = 64; // 5 chunks
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> ua = makeQuestions(3, ed, 61);
    const std::vector<float> ub = makeQuestions(2, ed, 62);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;
    core::ScanRing ring(kb, cfg);
    core::ScanRider a, b;
    a.u = ua.data();
    a.nq = 3;
    b.u = ub.data();
    b.nq = 2;

    std::vector<core::ScanRider *> done;
    ring.attach(a);
    ring.step(0, done);
    ring.step(0, done);
    ring.attach(b);
    ASSERT_EQ(b.joinedAt, 2u);
    while (!ring.idle())
        ring.step(0, done);
    const core::ScanTotals t = ring.takeTotals();
    EXPECT_EQ(t.steps, 7u);
    EXPECT_EQ(t.questionsStreamed, 25u);
    EXPECT_EQ(t.keptChunks, 6u);
    EXPECT_EQ(t.bypassed, 0u);
    EXPECT_EQ(b.keptFloats, 2 * (ns - 2 * chunk));
    EXPECT_EQ(t.kept + t.skipped, (3 + 2) * ns);

    // A lone rider on the idle ring keeps nothing and streams each
    // chunk once; takeTotals started the counts over.
    ring.attach(a);
    while (!ring.idle())
        ring.step(0, done);
    const core::ScanTotals lone = ring.takeTotals();
    EXPECT_EQ(lone.steps, 5u);
    EXPECT_EQ(lone.questionsStreamed, 3u * 5);
    EXPECT_EQ(lone.keptChunks, 0u);
}

/**
 * Riding again draws the kept logits from the pool's free pages: the
 * pool does not grow, and the second ride gives the same bits, for
 * every join chunk.
 */
TEST(ScanRing, RidesAgainWithoutGrowingThePool)
{
    const size_t ns = 300, ed = 16, chunk = 64, nq = 3; // 5 chunks
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> ua = makeQuestions(nq, ed, 51);
    const std::vector<float> ub = makeQuestions(nq, ed, 52);

    core::EngineConfig cfg;
    cfg.chunkSize = chunk;
    cfg.streaming = true;
    cfg.skipThreshold = 0.05f;
    core::ScanRing ring(kb, cfg);
    EXPECT_EQ(ring.keptBytes(), 0u);
    core::ScanRider a, b;
    a.u = ua.data();
    a.nq = nq;
    b.u = ub.data();
    b.nq = nq;
    // Ride b at chunk j behind a; returns b's partial.
    std::vector<core::ScanRider *> done;
    const auto rideAt = [&](size_t j) {
        ring.attach(a);
        for (size_t s = 0; s < j; ++s)
            ring.step(0, done);
        ring.attach(b);
        while (!ring.idle())
            ring.step(0, done);
        done.clear();
        EXPECT_EQ(b.joinedAt, j);
        return b.partial;
    };

    for (size_t j = 1; j < ring.chunkCount(); ++j) {
        SCOPED_TRACE(::testing::Message() << "j=" << j);
        const core::StreamPartial first = rideAt(j);
        const size_t bytes = ring.keptBytes();
        EXPECT_EQ(bytes, kHugePageBytes); // one page holds b's tiles
        const core::StreamPartial second = rideAt(j);
        EXPECT_EQ(ring.keptBytes(), bytes);
        expectSameBits(second, first);
    }
}

/**
 * Seeded schedules on one ring, stepped by hand: riders of 1, 3, 8 and
 * 16 questions attach at steps drawn from the printed seed, over f32,
 * bf16 and int8 knowledge bases, lossless, with zero-skip and routed
 * (top-3 of 8 chunks). Every rider's partial is the idle ring's (the
 * single-group engine's) bit for bit, whatever chunk it joined at.
 *
 * The pool: rides end in attach order, so every tile handed out after
 * the oldest live rider's first one is live, and a page is retired
 * only when a tile does not fit in its tail. So the pages in use never
 * exceed the live tiles rounded up to pages of (page - largest tile)
 * floats, plus the page that first tile began in; the pool, the most
 * pages ever in use, stays within that bound at the schedule's peak.
 * The schedule ridden again leaves the pool as it was: steady serving
 * allocates nothing.
 */
TEST(ScanRing, SeededJoinsMatchTheIdleRingWithinThePoolBound)
{
    const uint64_t seed = 20261019;
    std::printf("ScanRing seed %llu\n",
                static_cast<unsigned long long>(seed));
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const size_t ns = 32768, ed = 16, chunk = 4096; // 8 chunks
    const size_t kSizes[] = {1, 3, 8, 16};
    const size_t kRiders = 20, kSpan = 24; // attach steps in [0, kSpan)
    const size_t pageFloats = kHugePageBytes / sizeof(float);
    const size_t roomFloats = pageFloats - 16 * chunk; // less a tile

    XorShiftRng rng(seed);
    struct Ride
    {
        size_t at;
        std::vector<float> u;
        size_t nq;
    };
    std::vector<Ride> rides(kRiders);
    for (size_t i = 0; i < kRiders; ++i) {
        rides[i].at = rng.below(kSpan);
        rides[i].nq = kSizes[rng.below(4)];
        rides[i].u = makeQuestions(rides[i].nq, ed, seed + i);
    }
    std::stable_sort(rides.begin(), rides.end(),
                     [](const Ride &x, const Ride &y) { return x.at < y.at; });

    enum class Mode { Lossless, ZeroSkip, Routed };
    for (core::Precision prec :
         {core::Precision::F32, core::Precision::BF16,
          core::Precision::I8}) {
        const core::KnowledgeBase kb = makeKb(ns, ed, prec);
        for (Mode mode : {Mode::Lossless, Mode::ZeroSkip, Mode::Routed}) {
            SCOPED_TRACE(::testing::Message()
                         << core::precisionName(prec) << " mode "
                         << static_cast<int>(mode));
            core::EngineConfig cfg;
            cfg.chunkSize = chunk;
            cfg.streaming = true;
            if (mode == Mode::ZeroSkip)
                cfg.skipThreshold = 0.05f;
            if (mode == Mode::Routed) {
                cfg.routePolicy = core::RoutePolicy::TopK;
                cfg.routeTopK = 3;
            }
            core::EngineConfig single = cfg;
            single.scheduleGroups = 1;
            core::ColumnEngine engine(kb, single);
            std::vector<core::StreamPartial> ref(kRiders);
            for (size_t i = 0; i < kRiders; ++i)
                engine.inferPartial(rides[i].u.data(), rides[i].nq,
                                    ref[i]);

            core::ScanRing ring(kb, cfg);
            ASSERT_EQ(ring.chunkCount(), 8u);
            std::vector<core::ScanRider> riders(kRiders);
            // The bound on the pool, over every step ridden so far.
            size_t bound = 0;
            const auto ride = [&] {
                std::vector<core::ScanRider *> riding, done;
                size_t next = 0, kept = 0;
                for (size_t s = 0; next < kRiders || !ring.idle(); ++s) {
                    for (; next < kRiders && rides[next].at <= s; ++next) {
                        core::ScanRider &r = riders[next];
                        r.u = rides[next].u.data();
                        r.nq = rides[next].nq;
                        ring.attach(r);
                        riding.push_back(&r);
                    }
                    if (ring.idle())
                        continue;
                    ring.step(0, done);
                    // Tiles live at this step's peak: the riders that
                    // rode it, before the done ones replayed.
                    size_t live = 0;
                    for (const core::ScanRider *r : riding)
                        live += r->keptFloats;
                    const size_t pages =
                        (live + roomFloats - 1) / roomFloats + 1;
                    bound = std::max(bound, pages * kHugePageBytes);
                    EXPECT_LE(ring.keptBytes(), bound) << "step " << s;
                    for (const core::ScanRider *r : done)
                        riding.erase(std::find(riding.begin(),
                                               riding.end(), r));
                    kept += done.size();
                    done.clear();
                }
                EXPECT_EQ(kept, kRiders);
                for (size_t i = 0; i < kRiders; ++i) {
                    SCOPED_TRACE(::testing::Message()
                                 << "rider " << i << " nq " << rides[i].nq
                                 << " joined at " << riders[i].joinedAt);
                    expectSameBits(riders[i].partial, ref[i]);
                }
            };

            ride();
            const size_t bytes = ring.keptBytes();
            EXPECT_GT(bytes, 0u);
            EXPECT_LE(bytes, bound);
            std::printf("  %s mode %d: pool %zu B, bound %zu B\n",
                        core::precisionName(prec),
                        static_cast<int>(mode), bytes, bound);
            ride();
            EXPECT_EQ(ring.keptBytes(), bytes);
        }
    }
}

} // namespace
} // namespace mnnfast
