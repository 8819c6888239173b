/**
 * @file
 * Tests for the QA-server simulation and the live serving runtime:
 * conservation, latency bounds, batching behaviour under load, the
 * throughput benefit of batch-amortized knowledge-base streaming,
 * the shared batching-dispatcher policy edge cases (maxBatch=1,
 * zero timeout, queue-full rejection), the shutdown-drain
 * guarantee (every accepted request answered exactly once), the
 * snapshot backlog bound in-process and over a loopback cluster, and
 * the serving loop's window rule against a reordering test backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
#include "core/sharded_knowledge_base.hh"
#include "net/cluster_frontend.hh"
#include "net/loopback_transport.hh"
#include "node_set.hh"
#include "serve/calibrate.hh"
#include "serve/latency_recorder.hh"
#include "serve/live_server.hh"
#include "serve/qa_server.hh"
#include "serve/request_queue.hh"
#include "util/rng.hh"

namespace mnnfast::serve {
namespace {

ServerConfig
baseConfig()
{
    ServerConfig cfg;
    cfg.arrivalRate = 2000.0;
    cfg.maxBatch = 32;
    cfg.batchTimeout = 2e-3;
    cfg.batchBaseSeconds = 1e-3;
    cfg.perQuestionSeconds = 4e-5;
    cfg.simSeconds = 3.0;
    return cfg;
}

TEST(QaServer, EveryArrivalCompletes)
{
    const auto stats = simulateServer(baseConfig());
    EXPECT_GT(stats.arrived, 1000u);
    EXPECT_EQ(stats.completed, stats.arrived);
}

TEST(QaServer, UnderloadedThroughputTracksArrivalRate)
{
    auto cfg = baseConfig();
    cfg.arrivalRate = 500.0; // far below capacity
    const auto stats = simulateServer(cfg);
    EXPECT_NEAR(stats.throughputQps, 500.0, 75.0);
    EXPECT_LT(stats.utilization, 0.9);
}

TEST(QaServer, LatencyIsAtLeastTheServiceTime)
{
    const auto stats = simulateServer(baseConfig());
    EXPECT_GE(stats.p50Latency, baseConfig().batchBaseSeconds);
    EXPECT_LE(stats.p50Latency, stats.p95Latency);
    EXPECT_LE(stats.p95Latency, stats.p99Latency);
}

TEST(QaServer, TimeoutBoundsLatencyAtLowLoad)
{
    auto cfg = baseConfig();
    cfg.arrivalRate = 100.0; // batches rarely fill: timeout path
    const auto stats = simulateServer(cfg);
    // Wait (<= timeout) + service of a small batch + slack.
    const double bound = cfg.batchTimeout + cfg.batchBaseSeconds
                       + cfg.maxBatch * cfg.perQuestionSeconds + 1e-3;
    EXPECT_LE(stats.p99Latency, bound);
    // Mostly-singleton batches at this load.
    EXPECT_LT(stats.meanBatchSize, 4.0);
}

TEST(QaServer, LoadIncreasesLatency)
{
    auto low = baseConfig();
    low.arrivalRate = 500.0;
    auto high = baseConfig();
    high.arrivalRate = 15000.0;
    EXPECT_GT(simulateServer(high).p95Latency,
              simulateServer(low).p95Latency);
}

TEST(QaServer, BatchingRaisesOverloadThroughput)
{
    // Capacity with batch n is n / (base + n*per): heavily batched
    // service amortizes the shared KB stream. At an overload rate,
    // the batched server must complete far more questions/sec.
    auto batched = baseConfig();
    batched.arrivalRate = 20000.0;
    batched.maxBatch = 32;

    auto serial = batched;
    serial.maxBatch = 1;

    const auto b = simulateServer(batched);
    const auto s = simulateServer(serial);
    EXPECT_GT(b.throughputQps, s.throughputQps * 3.0);
    EXPECT_GT(b.meanBatchSize, 8.0);
    EXPECT_NEAR(s.meanBatchSize, 1.0, 1e-9);
}

TEST(QaServer, MoreWorkersHelpUnderOverload)
{
    auto one = baseConfig();
    one.arrivalRate = 20000.0;
    auto two = one;
    two.workers = 2;
    EXPECT_GT(simulateServer(two).throughputQps,
              simulateServer(one).throughputQps * 1.3);
}

TEST(QaServer, UtilizationSaturatesUnderOverload)
{
    auto cfg = baseConfig();
    cfg.arrivalRate = 50000.0;
    const auto stats = simulateServer(cfg);
    EXPECT_GT(stats.utilization, 0.95);
    EXPECT_LE(stats.utilization, 1.0 + 1e-9);
}

TEST(QaServer, JoiningAtTheNextChunkNeverRaisesTheMedian)
{
    // The cooperative scan's model against batch-at-a-time at the same
    // arrivals, from idle to past the batch-at-a-time capacity, where
    // the knowledge-base stream is most of a batch's cost: the sharded
    // servebench workload's model (a 512 MiB KB, 15 ms a pass plus
    // ~1 ms a question) and a more stream-bound one. A joining batch
    // skips the wait for the batch in flight and pays only for the
    // riders it shares the revolution with, so its median is never
    // higher. (Where per-question work dominates, riders lengthen each
    // other's revolutions and joining can lose near capacity; see
    // examples/qa_server_study.)
    ServerConfig dense = baseConfig();
    dense.batchBaseSeconds = 15e-3;
    dense.perQuestionSeconds = 1e-3;
    dense.maxBatch = 16;
    ServerConfig streamBound = baseConfig();
    streamBound.batchBaseSeconds = 4e-3;
    streamBound.perQuestionSeconds = 5e-5;
    for (const ServerConfig &model : {dense, streamBound}) {
        const double capacity =
            double(model.maxBatch)
            / (model.batchBaseSeconds
               + double(model.maxBatch) * model.perQuestionSeconds);
        for (double load : {0.05, 0.2, 0.5, 0.8, 0.95, 1.2}) {
            ServerConfig batch = model;
            batch.arrivalRate = load * capacity;
            ServerConfig join = batch;
            join.dispatch = DispatchPolicy::JoinAtNextChunk;
            join.workers = 4;
            const ServerStats b = simulateServer(batch);
            const ServerStats j = simulateServer(join);
            EXPECT_EQ(j.completed, j.arrived);
            EXPECT_LE(j.p50Latency, b.p50Latency)
                << "base " << model.batchBaseSeconds << " load " << load;
            EXPECT_LE(j.utilization, 1.0 + 1e-9);
        }
    }
}

TEST(QaServer, DispatchOnArrivalNeverRaisesTheMedianOfAJoiningScan)
{
    // servebench's two workloads as the simulator sees them: dense_f32
    // (15 ms a pass + 1 ms a question, cap 16, 2 ms timeout, 100 req/s)
    // and cluster_tcp (5 ms + 1 ms, cap 8, 4 ms timeout, 150 req/s),
    // both with 4 batches riding at once. Leaving on arrival (a zero
    // timeout, LiveServer's rule for a joining backend) instead of
    // waiting out the timeout never raises the median, from a
    // quarter of each workload's rate to twice it.
    struct Workload
    {
        double base, per, timeout, rate;
        size_t cap;
    };
    for (const Workload &w : {Workload{15e-3, 1e-3, 2e-3, 100.0, 16},
                              Workload{5e-3, 1e-3, 4e-3, 150.0, 8}}) {
        for (double scale : {0.25, 0.5, 1.0, 2.0}) {
            ServerConfig wait = baseConfig();
            wait.batchBaseSeconds = w.base;
            wait.perQuestionSeconds = w.per;
            wait.batchTimeout = w.timeout;
            wait.maxBatch = w.cap;
            wait.arrivalRate = scale * w.rate;
            wait.simSeconds = 20.0;
            wait.workers = 4;
            wait.dispatch = DispatchPolicy::JoinAtNextChunk;
            ServerConfig arrive = wait;
            arrive.batchTimeout = 0.0;
            const ServerStats a = simulateServer(arrive);
            const ServerStats b = simulateServer(wait);
            EXPECT_EQ(a.completed, a.arrived);
            EXPECT_LE(a.p50Latency, b.p50Latency)
                << "base " << w.base << " rate " << wait.arrivalRate;
            // Nothing waits out the timeout at the workload's own rate:
            // the median is one revolution with its few riders.
            if (scale == 1.0) {
                EXPECT_LT(a.p50Latency, b.p50Latency - 0.5 * w.timeout);
            }
        }
    }
}

TEST(QaServer, DeterministicForSameSeed)
{
    const auto a = simulateServer(baseConfig());
    const auto b = simulateServer(baseConfig());
    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency);
}

TEST(QaServer, InvalidConfigIsFatal)
{
    auto cfg = baseConfig();
    cfg.maxBatch = 0;
    EXPECT_EXIT(simulateServer(cfg), ::testing::ExitedWithCode(1),
                "batch cap");
    auto cfg2 = baseConfig();
    cfg2.arrivalRate = 0.0;
    EXPECT_EXIT(simulateServer(cfg2), ::testing::ExitedWithCode(1),
                "arrival rate");
}

TEST(Calibrate, FitsUsableServiceModelFromRealEngine)
{
    // Smoke test: calibrate against a real (small) column engine and
    // check the fit is sane and drives the simulator.
    const size_t ns = 2000, ed = 32;
    core::KnowledgeBase kb(ed);
    kb.reserve(ns);
    XorShiftRng rng(7);
    std::vector<float> min_row(ed), mout_row(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            min_row[e] = rng.uniformRange(-0.5f, 0.5f);
            mout_row[e] = rng.uniformRange(-0.5f, 0.5f);
        }
        kb.addSentence(min_row.data(), mout_row.data());
    }
    core::EngineConfig ecfg;
    ecfg.chunkSize = 256;
    core::ColumnEngine engine(kb, ecfg);

    const ServiceTimeFit fit =
        calibrateServiceTimes(engine, ed, /*smallBatch=*/1,
                              /*largeBatch=*/8, /*repeats=*/3);

    // Coefficients are clamped non-negative and the measurements are
    // real (a 2000x32 KB pass cannot take zero time).
    EXPECT_GE(fit.batchBaseSeconds, 0.0);
    EXPECT_GE(fit.perQuestionSeconds, 0.0);
    EXPECT_GT(fit.smallSeconds, 0.0);
    EXPECT_GT(fit.largeSeconds, 0.0);
    EXPECT_GT(fit.batchBaseSeconds + fit.perQuestionSeconds, 0.0);
    EXPECT_EQ(fit.smallBatch, 1u);
    EXPECT_EQ(fit.largeBatch, 8u);

    // batchBase = max(0, small - smallBatch*perQ) can never exceed the
    // small-batch measurement itself. The full fit reproduces that
    // measurement exactly only when the non-negativity clamp did not
    // fire (with noisy timings, large > 8*small clamps batchBase to 0
    // and the fitted t(1) overshoots — by design, not a bug).
    EXPECT_LE(fit.batchBaseSeconds, fit.smallSeconds * 1.0000001 + 1e-12);
    if (fit.batchBaseSeconds > 0.0) {
        const double t1 = fit.batchBaseSeconds + fit.perQuestionSeconds;
        EXPECT_NEAR(t1, fit.smallSeconds, fit.smallSeconds * 1e-6 + 1e-12);
    }

    // And it plugs straight into the simulator.
    ServerConfig scfg = baseConfig();
    scfg.arrivalRate = 100.0;
    scfg.simSeconds = 0.5;
    fit.apply(scfg);
    EXPECT_EQ(scfg.batchBaseSeconds, fit.batchBaseSeconds);
    EXPECT_EQ(scfg.perQuestionSeconds, fit.perQuestionSeconds);
    const auto stats = simulateServer(scfg);
    EXPECT_EQ(stats.arrived, stats.completed);
}

TEST(Calibrate, RejectsDegenerateArguments)
{
    const size_t ed = 8;
    core::KnowledgeBase kb(ed);
    std::vector<float> row(ed, 0.1f);
    kb.addSentence(row.data(), row.data());
    core::EngineConfig ecfg;
    core::ColumnEngine engine(kb, ecfg);
    EXPECT_DEATH(calibrateServiceTimes(engine, ed, 4, 4, 1),
                 "batch sizes");
    EXPECT_DEATH(calibrateServiceTimes(engine, ed, 1, 4, 0), "repeat");
}

// ---------------------------------------------------------------
// RequestQueue: the batching dispatcher shared by sim and live paths.
// ---------------------------------------------------------------

using IntQueue = RequestQueue<int>;
using namespace std::chrono_literals;

TEST(RequestQueue, TryPushRejectsWhenFull)
{
    IntQueue q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3)); // backpressure: refuse, don't block
    EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueue, MaxBatchOneYieldsSingletons)
{
    IntQueue q(8);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(q.tryPush(int(i)));
    std::vector<IntQueue::Entry> batch;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(q.popBatch(1, 0ns, batch));
        ASSERT_EQ(batch.size(), 1u);
        EXPECT_EQ(batch[0].item, i); // FIFO order preserved
    }
    EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, ZeroTimeoutDispatchesPartialBatchImmediately)
{
    IntQueue q(8);
    ASSERT_TRUE(q.tryPush(1));
    ASSERT_TRUE(q.tryPush(2));
    std::vector<IntQueue::Entry> batch;
    // Cap 8 with only 2 pending: a zero timeout must not wait for a
    // full batch.
    ASSERT_TRUE(q.popBatch(8, 0ns, batch));
    EXPECT_EQ(batch.size(), 2u);
}

TEST(RequestQueue, FullBatchDispatchesBeforeTimeout)
{
    IntQueue q(8);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(q.tryPush(int(i)));
    std::vector<IntQueue::Entry> batch;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(q.popBatch(4, std::chrono::hours(1), batch));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(batch.size(), 4u);
    EXPECT_LT(elapsed, 10s); // did not sit out the huge timeout
}

TEST(RequestQueue, TimeoutReleasesOldestPartialBatch)
{
    IntQueue q(8);
    ASSERT_TRUE(q.tryPush(42));
    std::vector<IntQueue::Entry> batch;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(q.popBatch(8, 20ms, batch));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_GE(elapsed, 19ms); // held until the head timed out
}

TEST(RequestQueue, CloseDrainsRemainderThenReportsEmpty)
{
    IntQueue q(8);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(q.tryPush(int(i)));
    q.close();
    EXPECT_FALSE(q.tryPush(99)); // no admissions after close

    std::vector<IntQueue::Entry> batch;
    // Drain releases immediately (no timeout wait), in caps.
    ASSERT_TRUE(q.popBatch(2, std::chrono::hours(1), batch));
    EXPECT_EQ(batch.size(), 2u);
    ASSERT_TRUE(q.popBatch(2, std::chrono::hours(1), batch));
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_FALSE(q.popBatch(2, std::chrono::hours(1), batch));
    EXPECT_TRUE(batch.empty());
}

TEST(RequestQueue, CloseWakesBlockedConsumer)
{
    IntQueue q(4);
    std::thread consumer([&q] {
        std::vector<IntQueue::Entry> batch;
        // Blocks on the empty queue until close() wakes it.
        EXPECT_FALSE(q.popBatch(4, std::chrono::hours(1), batch));
    });
    std::this_thread::sleep_for(10ms);
    q.close();
    consumer.join();
}

TEST(RequestQueue, ZeroCapacityIsFatal)
{
    EXPECT_EXIT(IntQueue q(0), ::testing::ExitedWithCode(1),
                "capacity");
}

// ---------------------------------------------------------------
// LatencyRecorder
// ---------------------------------------------------------------

TEST(LatencyRecorder, MergesWorkersIntoOneSnapshot)
{
    LatencyRecorder a(1.0, 100);
    LatencyRecorder b(1.0, 100);
    a.recordBatch(2);
    a.recordRequest(0.010, 0.020, 0.030);
    a.recordRequest(0.010, 0.020, 0.030);
    b.recordBatch(1);
    b.recordRequest(0.050, 0.100, 0.150);

    LatencyRecorder merged(1.0, 100);
    a.mergeInto(merged);
    b.mergeInto(merged);
    const LatencySnapshot s = merged.snapshot();
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.batches, 2u);
    EXPECT_DOUBLE_EQ(s.meanBatchSize, 1.5);
    EXPECT_NEAR(s.endToEnd.mean, (0.030 * 2 + 0.150) / 3, 1e-12);
    EXPECT_DOUBLE_EQ(s.endToEnd.max, 0.150);
    EXPECT_LE(s.endToEnd.p50, s.endToEnd.p95);
    EXPECT_LE(s.endToEnd.p95, s.endToEnd.p99);
}

TEST(LatencyRecorder, SnapshotJsonHasEveryField)
{
    LatencyRecorder r(1.0, 100);
    r.recordBatch(1);
    r.recordRequest(0.001, 0.002, 0.003);
    LatencySnapshot s = r.snapshot();
    s.arrived = 3;
    s.rejected = 2;
    s.rejectedFull = 1;
    s.rejectedShutdown = 1;
    const std::string j = s.toJson();
    for (const char *key :
         {"\"arrived\"", "\"rejected\"", "\"rejected_full\"",
          "\"rejected_shutdown\"", "\"rejected_non_finite\"",
          "\"completed\"",
          "\"batches\"", "\"mean_batch_size\"",
          "\"queue_wait_seconds\"", "\"service_seconds\"",
          "\"end_to_end_seconds\"", "\"p50\"", "\"p95\"", "\"p99\"",
          "\"scan\"", "\"rows_kept\"", "\"rows_skipped\"",
          "\"rows_routed\"", "\"chunks_bypassed\""})
        EXPECT_NE(j.find(key), std::string::npos) << key;
}

// ---------------------------------------------------------------
// LiveServer
// ---------------------------------------------------------------

core::KnowledgeBase
makeKb(size_t ns, size_t ed, uint64_t seed = 5)
{
    core::KnowledgeBase kb(ed);
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

LiveServerConfig
liveConfig()
{
    LiveServerConfig cfg;
    cfg.maxBatch = 8;
    cfg.batchTimeout = 1e-3;
    cfg.workers = 2;
    cfg.queueCapacity = 256;
    cfg.engine.chunkSize = 64;
    return cfg;
}

TEST(LiveServer, AnswersAreBitIdenticalToAReferenceEngine)
{
    // The query-blocked dataflow is bit-identical across batch
    // compositions (property-tested elsewhere), so whatever batches
    // the dispatcher forms, each answer must equal a lone infer()
    // on an identically-configured engine.
    const size_t ns = 300, ed = 16, n_requests = 40;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    LiveServerConfig cfg = liveConfig();
    core::ColumnEngine reference(kb, cfg.engine);

    LiveServer server(kb, cfg);
    XorShiftRng rng(17);
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
        Answer a = futures[i].get();
        ASSERT_EQ(a.o.size(), ed);
        EXPECT_GE(a.batchSize, 1u);
        EXPECT_LE(a.batchSize, cfg.maxBatch);
        EXPECT_FALSE(a.failed);
        EXPECT_EQ(a.shardMask, 0b1u); // one whole-KB shard
        reference.infer(questions[i].data(), expected.data());
        for (size_t e = 0; e < ed; ++e)
            EXPECT_EQ(a.o[e], expected[e]) << "request " << i
                                           << " element " << e;
    }
}

TEST(LiveServer, ShutdownDrainsInFlightWithoutLosingFutures)
{
    // Flood the server and shut down immediately: every accepted
    // request must complete exactly once (a lost promise would hang
    // or throw broken_promise; a double set_value would throw).
    const core::KnowledgeBase kb = makeKb(200, 8);
    LiveServerConfig cfg = liveConfig();
    cfg.batchTimeout = 50e-3; // requests are mid-queue at shutdown
    LiveServer server(kb, cfg);

    std::vector<float> q(8, 0.25f);
    std::vector<std::future<Answer>> futures;
    uint64_t accepted = 0, refused = 0;
    for (int i = 0; i < 200; ++i) {
        Ticket t = server.submit(q.data());
        if (t.accepted()) {
            ++accepted;
            futures.push_back(std::move(t.answer));
        } else {
            ++refused;
        }
    }
    server.shutdown();

    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
        EXPECT_EQ(f.get().o.size(), 8u);
    }
    // One straggler after shutdown: refused for a different reason
    // than the queue-full rejections above, and the snapshot must
    // attribute each to its own counter (backpressure tuning needs
    // "full", deploy-drain monitoring needs "shutdown").
    Ticket late = server.submit(q.data());
    EXPECT_EQ(late.status, SubmitStatus::ShuttingDown);

    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.arrived, 201u);
    EXPECT_EQ(s.completed, accepted);
    EXPECT_EQ(s.rejectedFull, refused);
    EXPECT_EQ(s.rejectedShutdown, 1u);
    EXPECT_EQ(s.rejected, s.rejectedFull + s.rejectedShutdown);
    EXPECT_EQ(s.completed + s.rejected, s.arrived);
}

TEST(LiveServer, FullQueueRejectsWithBackpressureStatus)
{
    const core::KnowledgeBase kb = makeKb(100, 8);
    LiveServerConfig cfg = liveConfig();
    cfg.workers = 1;
    cfg.maxBatch = 64;       // > capacity: the worker cannot dispatch
    cfg.batchTimeout = 10.0; // until this (never reached) timeout
    cfg.queueCapacity = 4;
    LiveServer server(kb, cfg);

    std::vector<float> q(8, 0.5f);
    std::vector<std::future<Answer>> futures;
    size_t rejected = 0;
    for (int i = 0; i < 10; ++i) {
        Ticket t = server.submit(q.data());
        if (t.accepted()) {
            futures.push_back(std::move(t.answer));
        } else {
            EXPECT_EQ(t.status, SubmitStatus::Rejected);
            ++rejected;
        }
    }
    // The worker holds for a full batch or the 10 s timeout, so the
    // queue held exactly its capacity and the overflow was rejected.
    EXPECT_EQ(futures.size(), 4u);
    EXPECT_EQ(rejected, 6u);

    server.shutdown(); // close() flushes the partial batch
    for (auto &f : futures)
        EXPECT_EQ(f.get().o.size(), 8u);

    // After shutdown, submissions report the terminal status.
    Ticket late = server.submit(q.data());
    EXPECT_EQ(late.status, SubmitStatus::ShuttingDown);
    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.completed, 4u);
    // 6 queue-full rejections while serving, 1 post-shutdown refusal:
    // the split must attribute each to the right cause.
    EXPECT_EQ(s.rejectedFull, 6u);
    EXPECT_EQ(s.rejectedShutdown, 1u);
    EXPECT_EQ(s.rejected, 7u);
    EXPECT_EQ(s.arrived, 11u);
}

TEST(LiveServer, ReplicatedHoldsALoneRequestForItsBatchTimeout)
{
    // A replicated engine streams the whole KB per batch, so the
    // server still waits out batchTimeout for riders before it sends
    // a lone request.
    const size_t ed = 8;
    const core::KnowledgeBase kb = makeKb(100, ed);
    LiveServerConfig cfg = liveConfig();
    cfg.batchTimeout = 0.3;
    LiveServer server(kb, cfg);
    core::ColumnEngine reference(kb, cfg.engine);

    const std::vector<float> q(ed, 0.5f);
    Ticket t = server.submit(q.data());
    ASSERT_TRUE(t.accepted());
    EXPECT_EQ(t.answer.wait_for(100ms), std::future_status::timeout);
    const Answer a = t.answer.get();
    EXPECT_EQ(a.batchSize, 1u);
    EXPECT_GE(a.queueWaitSeconds, cfg.batchTimeout);
    std::vector<float> expected(ed);
    reference.infer(q.data(), expected.data());
    ASSERT_EQ(a.o.size(), ed);
    for (size_t e = 0; e < ed; ++e)
        EXPECT_EQ(a.o[e], expected[e]) << "element " << e;
}

TEST(LiveServer, NonFiniteQuestionsAreRefusedAtAdmission)
{
    // A question with a NaN or infinite component could only get a
    // NaN answer; admission refuses it with its own status and
    // counter, and the finite questions around it are still served.
    const size_t ed = 8;
    const core::KnowledgeBase kb = makeKb(100, ed);
    LiveServer server(kb, liveConfig());

    const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity()};
    std::vector<std::future<Answer>> futures;
    size_t refused = 0;
    for (int i = 0; i < 6; ++i) {
        std::vector<float> q(ed, 0.25f);
        if (i % 2 == 1) {
            q[static_cast<size_t>(i) % ed] = bad[i / 2];
            Ticket t = server.submit(q.data());
            EXPECT_EQ(t.status, SubmitStatus::NonFinite) << "i=" << i;
            ++refused;
        } else {
            Ticket t = server.submit(q.data());
            ASSERT_TRUE(t.accepted()) << "i=" << i;
            futures.push_back(std::move(t.answer));
        }
    }
    server.shutdown();
    for (auto &f : futures) {
        const Answer a = f.get();
        ASSERT_EQ(a.o.size(), ed);
        for (float x : a.o)
            EXPECT_TRUE(std::isfinite(x));
    }

    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.rejectedNonFinite, refused);
    EXPECT_EQ(s.rejectedFull, 0u);
    EXPECT_EQ(s.rejectedShutdown, 0u);
    EXPECT_EQ(s.rejected, s.rejectedFull + s.rejectedShutdown
                              + s.rejectedNonFinite);
    EXPECT_EQ(s.completed, futures.size());
    EXPECT_EQ(s.arrived, s.rejected + s.completed);
}

TEST(LiveServer, MaxBatchOneServesEveryRequestAlone)
{
    const core::KnowledgeBase kb = makeKb(100, 8);
    LiveServerConfig cfg = liveConfig();
    cfg.maxBatch = 1;
    LiveServer server(kb, cfg);

    std::vector<float> q(8, -0.5f);
    std::vector<std::future<Answer>> futures;
    for (int i = 0; i < 30; ++i) {
        Ticket t = server.submit(q.data());
        ASSERT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }
    server.shutdown();
    for (auto &f : futures)
        EXPECT_EQ(f.get().batchSize, 1u);

    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.batches, 30u);
    EXPECT_DOUBLE_EQ(s.meanBatchSize, 1.0);
}

TEST(LiveServer, ZeroTimeoutDispatchesEagerly)
{
    const core::KnowledgeBase kb = makeKb(100, 8);
    LiveServerConfig cfg = liveConfig();
    cfg.batchTimeout = 0.0; // dispatch the moment a worker is free
    LiveServer server(kb, cfg);

    std::vector<float> q(8, 0.1f);
    std::vector<std::future<Answer>> futures;
    for (int i = 0; i < 50; ++i) {
        Ticket t = server.submit(q.data());
        ASSERT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }
    for (auto &f : futures) {
        const Answer a = f.get();
        EXPECT_GE(a.batchSize, 1u);
        EXPECT_LE(a.batchSize, cfg.maxBatch);
    }
    server.shutdown();
    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.completed, 50u);
    EXPECT_EQ(s.rejected, 0u);
}

TEST(LiveServer, SnapshotQuantilesAreOrderedAndComplete)
{
    const core::KnowledgeBase kb = makeKb(200, 16);
    LiveServer server(kb, liveConfig());
    std::vector<float> q(16, 0.3f);
    std::vector<std::future<Answer>> futures;
    for (int i = 0; i < 60; ++i) {
        Ticket t = server.submit(q.data());
        ASSERT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }
    server.shutdown();
    for (auto &f : futures)
        f.get();

    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.endToEnd.count, 60u);
    EXPECT_EQ(s.queueWait.count, 60u);
    EXPECT_EQ(s.service.count, 60u);
    EXPECT_LE(s.endToEnd.p50, s.endToEnd.p95);
    EXPECT_LE(s.endToEnd.p95, s.endToEnd.p99);
    EXPECT_GT(s.service.mean, 0.0);
    // End-to-end dominates its queue-wait and service components on
    // every path, so the means must order the same way.
    EXPECT_GE(s.endToEnd.mean, s.queueWait.mean);
    EXPECT_GE(s.endToEnd.mean, s.service.mean);
    EXPECT_GE(s.batches, 1u);
}

// Floods `server` from this thread while a monitor thread polls
// snapshot(); see ConcurrentSnapshotsNeverShowPhantomBacklog.
void
floodAndCheckBacklog(LiveServer &server)
{
    const LiveServerConfig &cfg = server.config();
    const uint64_t in_flight_bound =
        cfg.queueCapacity + server.engineSlots() * cfg.maxBatch;

    std::atomic<bool> done{false};
    std::thread monitor([&] {
        uint64_t prev_arrived = 0, prev_completed = 0;
        while (!done.load(std::memory_order_acquire)) {
            const LatencySnapshot s = server.snapshot();
            const int64_t backlog = int64_t(s.arrived)
                                  - int64_t(s.rejected)
                                  - int64_t(s.completed);
            ASSERT_LE(backlog, int64_t(in_flight_bound));
            ASSERT_EQ(s.rejected, s.rejectedFull + s.rejectedShutdown);
            // Successive snapshots from one thread are monotone.
            ASSERT_GE(s.arrived, prev_arrived);
            ASSERT_GE(s.completed, prev_completed);
            prev_arrived = s.arrived;
            prev_completed = s.completed;
        }
    });

    std::vector<float> q(server.embeddingDim(), 0.4f);
    std::vector<std::future<Answer>> futures;
    for (int i = 0; i < 600; ++i) {
        Ticket t = server.submit(q.data());
        if (t.accepted())
            futures.push_back(std::move(t.answer));
        // Brief pauses let batches dispatch while the flood goes on,
        // so the queue refills with batches out.
        if (i % 8 == 7)
            std::this_thread::sleep_for(20us);
    }
    server.shutdown();
    done.store(true, std::memory_order_release);
    monitor.join();
    for (auto &f : futures)
        EXPECT_FALSE(f.get().failed);

    // After shutdown the books balance exactly.
    const LatencySnapshot s = server.snapshot();
    EXPECT_EQ(s.arrived,
              s.completed + s.rejectedFull + s.rejectedShutdown);
    EXPECT_EQ(s.completed, futures.size());
}

TEST(LiveServer, ConcurrentSnapshotsNeverShowPhantomBacklog)
{
    // snapshot() latches `arrived` before the rejection counters and
    // both before merging the completion histograms (see
    // live_server.hh). A monitor thread polling mid-flood must
    // therefore never observe an apparent backlog
    // (arrived - rejected - completed) beyond what can physically be
    // in flight: the queue plus one popped batch per engine slot —
    // which the credit rule makes true in every mode, the cluster
    // mode's window of W included. Reading the counters in the
    // opposite order would routinely violate this under load. The
    // guarantee is one-sided: between latching `arrived` and the
    // later reads, more requests can be rejected/completed, so the
    // signed backlog may transiently go *negative* — it must only
    // never exceed the physical bound.
    const core::KnowledgeBase kb = makeKb(150, 8);
    LiveServerConfig cfg = liveConfig();
    cfg.queueCapacity = 32;
    cfg.batchTimeout = 0.0;
    {
        SCOPED_TRACE("in-process");
        LiveServer server(kb, cfg);
        floodAndCheckBacklog(server);
    }
    {
        SCOPED_TRACE("cluster");
        const core::ShardedKnowledgeBase skb(kb, cfg.engine.chunkSize,
                                             2);
        // A millisecond per message keeps every window slot busy, so
        // the flood overflows the queue while W batches are out.
        net::FaultSpec lag;
        lag.baseLatencySeconds = 1e-3;
        net::LoopbackNetwork netns;
        net::LoopbackTransport transport(netns, lag);
        NodeSet set;
        set.add(skb.shard(0), cfg.engine, 0, transport, "s0");
        set.add(skb.shard(1), cfg.engine, 1, transport, "s1");
        net::ClusterConfig ccfg;
        ccfg.replicas = {{"s0"}, {"s1"}};
        ccfg.requestTimeoutSeconds = 30.0;
        ccfg.pipelineDepth = 4;
        net::ClusterFrontEnd fe(transport, ccfg);
        LiveServer server(fe, kb.dim(), cfg);
        EXPECT_EQ(server.engineSlots(), 4u);
        floodAndCheckBacklog(server);
    }
}

/**
 * A backend that tests LiveServer's window rule on its own:
 * submitBatch never blocks, and a completer thread answers (echoes
 * u into o) only once the window is full or every question has
 * arrived — then newest first, so completions run in reverse
 * submission order. It records the most batches ever submitted but
 * not yet waited.
 */
class ReversingBackend final : public BatchBackend
{
  public:
    ReversingBackend(size_t depth, size_t questions)
        : depth(depth), questions(questions), completer([this] { run(); })
    {}

    ~ReversingBackend() override
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stop = true;
        }
        cv.notify_all();
        completer.join();
    }

    uint64_t
    submitBatch(const float *u, size_t nq, size_t ed, float *o) override
    {
        std::lock_guard<std::mutex> lock(mutex);
        batches.push_back({u, nq * ed, o, false});
        received += nq;
        maxOutstanding = std::max(maxOutstanding, batches.size() - waited);
        cv.notify_all();
        return batches.size() - 1;
    }

    BatchResult
    waitBatch(uint64_t ticket) override
    {
        std::unique_lock<std::mutex> lock(mutex);
        EXPECT_EQ(ticket, waited) << "tickets waited out of order";
        cv.wait(lock, [&] { return batches[ticket].done; });
        ++waited;
        BatchResult r;
        r.complete = true;
        r.shardsAnswered = 1;
        r.shardMask = 0b1;
        return r;
    }

    size_t pipelineDepth() const override { return depth; }

    void countersInto(LatencyRecorder &) const override {}

    size_t
    peakOutstanding()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return maxOutstanding;
    }

  private:
    struct Batch
    {
        const float *u;
        size_t floats;
        float *o;
        bool done;
    };

    void
    run()
    {
        std::unique_lock<std::mutex> lock(mutex);
        size_t answered = 0; // batches [0, answered) are done
        for (;;) {
            cv.wait(lock, [&] {
                const size_t pending = batches.size() - answered;
                return stop || pending >= depth
                    || (pending > 0 && received == questions);
            });
            if (stop)
                return;
            // Give a dispatcher that ignores the window time to
            // overshoot it before anything completes.
            lock.unlock();
            std::this_thread::sleep_for(2ms);
            lock.lock();
            const size_t end = batches.size();
            for (size_t j = end; j-- > answered;) {
                Batch &b = batches[j];
                std::copy(b.u, b.u + b.floats, b.o);
                b.done = true;
                cv.notify_all();
                lock.unlock();
                std::this_thread::sleep_for(1ms);
                lock.lock();
            }
            answered = end;
        }
    }

    const size_t depth;
    const size_t questions;
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Batch> batches; ///< by ticket
    size_t received = 0;        ///< questions submitted so far
    size_t waited = 0;          ///< tickets [0, waited) were waited
    size_t maxOutstanding = 0;
    bool stop = false;
    std::thread completer; ///< last: starts after every member above
};

TEST(LiveServer, WindowRuleHoldsOverAReorderingBackend)
{
    // The window rule is LiveServer's, not the backend's: with a
    // backend that never blocks in submitBatch, at most pipelineDepth()
    // batches may be submitted but not waited, and however the
    // backend orders its completions the futures settle in
    // submission order, each with its own answer.
    const size_t ed = 4, depth = 3, n_requests = 20;
    ReversingBackend backend(depth, n_requests);
    LiveServerConfig cfg;
    cfg.maxBatch = 2;
    cfg.batchTimeout = 0.0;
    cfg.queueCapacity = 64; // holds every request: none is refused
    LiveServer server(backend, ed, cfg);
    EXPECT_EQ(server.engineSlots(), depth);

    std::vector<std::vector<float>> questions(n_requests);
    std::vector<std::future<Answer>> futures;
    for (size_t i = 0; i < n_requests; ++i) {
        questions[i].assign(ed, static_cast<float>(i));
        Ticket t = server.submit(questions[i].data());
        ASSERT_TRUE(t.accepted());
        futures.push_back(std::move(t.answer));
    }

    // The retire loop sets the promises one after another, so once
    // future i is seen ready every earlier one must be ready too.
    size_t ready = 0;
    while (ready < n_requests) {
        size_t high = n_requests;
        while (high > ready
               && futures[high - 1].wait_for(0s)
                      != std::future_status::ready)
            --high;
        for (size_t j = ready; j < high; ++j)
            ASSERT_EQ(futures[j].wait_for(0s), std::future_status::ready)
                << "future " << high - 1 << " settled before " << j;
        ready = high;
        std::this_thread::sleep_for(100us);
    }
    for (size_t i = 0; i < n_requests; ++i) {
        const Answer a = futures[i].get();
        EXPECT_EQ(a.o, questions[i]) << "request " << i;
        EXPECT_FALSE(a.failed);
        EXPECT_EQ(a.shardMask, 0b1u);
    }
    server.shutdown();
    EXPECT_LE(backend.peakOutstanding(), depth);
    // The flood fills the window, so the rule was exercised at its
    // limit rather than trivially.
    EXPECT_EQ(backend.peakOutstanding(), depth);
}

TEST(LiveServer, ShutdownIsIdempotentAndDtorSafe)
{
    const core::KnowledgeBase kb = makeKb(50, 8);
    LiveServer server(kb, liveConfig());
    std::vector<float> q(8, 0.7f);
    Ticket t = server.submit(q.data());
    ASSERT_TRUE(t.accepted());
    server.shutdown();
    server.shutdown(); // second call is a no-op
    EXPECT_EQ(t.answer.get().o.size(), 8u);
    EXPECT_FALSE(server.accepting());
    // Destructor runs shutdown again — must not deadlock or double-free.
}

TEST(LiveServer, InvalidConfigIsFatal)
{
    const core::KnowledgeBase kb = makeKb(10, 4);
    LiveServerConfig bad_workers = liveConfig();
    bad_workers.workers = 0;
    EXPECT_EXIT(LiveServer(kb, bad_workers),
                ::testing::ExitedWithCode(1), "worker");

    LiveServerConfig bad_batch = liveConfig();
    bad_batch.maxBatch = 0;
    EXPECT_EXIT(LiveServer(kb, bad_batch),
                ::testing::ExitedWithCode(1), "batch cap");

    LiveServerConfig bad_timeout = liveConfig();
    bad_timeout.batchTimeout = -1.0;
    EXPECT_EXIT(LiveServer(kb, bad_timeout),
                ::testing::ExitedWithCode(1), "timeout");

    const core::KnowledgeBase empty(4);
    EXPECT_EXIT(LiveServer(empty, liveConfig()),
                ::testing::ExitedWithCode(1), "non-empty");
}

} // namespace
} // namespace mnnfast::serve
