/**
 * @file
 * Capacity planning for a MnnFast QA service: sweep the arrival rate
 * against batching policies and read off the latency/throughput
 * tradeoff. The column algorithm's batch-amortized knowledge-base
 * streaming (one M_IN/M_OUT pass per *batch*) is what makes large
 * batches pay.
 *
 * Build & run:  ./build/examples/qa_server_study
 *
 * With --live, a batch-cap sweep also runs against the *live*
 * multi-threaded runtime (serve::LiveServer, replicated) on a small
 * knowledge base: the service model is calibrated from the real
 * engine, the simulator is driven with the fitted coefficients under
 * the rule the server runs (a batch joins the scan at its next chunk
 * and leaves on arrival) and under the batch-at-a-time rule with a
 * timeout, and simulated and measured numbers print side by side —
 * the simulator as a design tool, the live runtime as its ground
 * truth.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
#include "serve/calibrate.hh"
#include "serve/live_server.hh"
#include "serve/qa_server.hh"
#include "stats/table.hh"
#include "util/rng.hh"

using namespace mnnfast;

namespace {

void
simulatorStudy()
{
    std::printf("MnnFast QA-server capacity study\n"
                "service model: t(batch) = 1 ms KB stream + 40 us per "
                "question, 1 executor\n\n");

    // ---- 1. Load sweep at the default policy ----
    std::printf("1) load sweep (batch cap 32, 2 ms batching "
                "timeout):\n\n");
    stats::Table load_table({"arrival (q/s)", "throughput (q/s)",
                             "mean batch", "p50 (ms)", "p99 (ms)",
                             "utilization"});
    for (double rate : {500.0, 2000.0, 8000.0, 16000.0, 24000.0}) {
        serve::ServerConfig cfg;
        cfg.arrivalRate = rate;
        cfg.simSeconds = 3.0;
        const auto s = serve::simulateServer(cfg);
        load_table.addRow(
            {stats::Table::num(rate, 0),
             stats::Table::num(s.throughputQps, 0),
             stats::Table::num(s.meanBatchSize, 1),
             stats::Table::num(s.p50Latency * 1e3, 2),
             stats::Table::num(s.p99Latency * 1e3, 2),
             stats::Table::num(s.utilization, 2)});
    }
    load_table.print();

    // ---- 2. Batching policy at a fixed heavy load ----
    std::printf("\n2) batching policy at 16k q/s:\n\n");
    stats::Table policy_table({"batch cap", "timeout (ms)",
                               "throughput (q/s)", "p50 (ms)",
                               "p99 (ms)"});
    for (size_t cap : {1ul, 8ul, 32ul, 128ul}) {
        for (double timeout_ms : {0.5, 2.0}) {
            serve::ServerConfig cfg;
            cfg.arrivalRate = 16000.0;
            cfg.maxBatch = cap;
            cfg.batchTimeout = timeout_ms * 1e-3;
            cfg.simSeconds = 3.0;
            const auto s = serve::simulateServer(cfg);
            policy_table.addRow(
                {std::to_string(cap),
                 stats::Table::num(timeout_ms, 1),
                 stats::Table::num(s.throughputQps, 0),
                 stats::Table::num(s.p50Latency * 1e3, 2),
                 stats::Table::num(s.p99Latency * 1e3, 2)});
        }
    }
    policy_table.print();

    std::printf("\nreading: a 1-question \"batch\" spends the whole "
                "KB stream on each question and collapses under load; "
                "raising the cap multiplies capacity (capacity = "
                "cap / (base + cap x per)), and once capacity exceeds "
                "the load the queueing delay collapses -- here cap "
                "128 is the first stable policy at 16k q/s\n");

    // ---- 3. Dispatch: batch at a time vs joining the scan ----
    std::printf("\n3) dispatch policy (join = a batch joins the "
                "stream at its next chunk, 4 riding at once; wait = "
                "it joins once the cap or the timeout releases it, "
                "arrive = it leaves whenever a slot is free, a zero "
                "timeout):\n\n");
    stats::Table join_table({"service model", "arrival (q/s)",
                             "batch p50", "wait p50", "arrive p50",
                             "batch p99", "wait p99", "arrive p99"});
    struct Model
    {
        const char *name;
        double base, per;
        size_t cap;
        double timeout;
        std::vector<double> rates;
    };
    // The second and third models are servebench's workloads (timeouts
    // as there): dense_f32, a 512 MiB f32 KB on 2 shards, 15-17 ms per
    // pass at 1-2 questions, 30-32 ms at 16; cluster_tcp, 128 MiB of
    // bf16 on 2 node processes behind a window of 4, ~6 ms for one
    // question. The last two are one cluster_tcp shard node (64 MiB of
    // bf16): ~2.4 ms for one question and ~12.2 ms for 8 on the
    // 256-bit bf16 tile, ~9.3 ms for 8 on the pair tile.
    const Model models[] = {
        {"1 ms + 40 us/q, cap 32", 1e-3, 4e-5, 32, 2e-3,
         {2000.0, 8000.0, 11000.0, 13000.0}},
        {"dense_f32: 15 ms + 1 ms/q, cap 16", 15e-3, 1e-3, 16, 2e-3,
         {50.0, 100.0, 200.0, 400.0, 500.0}},
        {"cluster_tcp: 5 ms + 1 ms/q, cap 8", 5e-3, 1e-3, 8, 4e-3,
         {75.0, 150.0, 300.0, 450.0, 600.0}},
        {"node: 1 ms + 1.4 ms/q, cap 8", 1e-3, 1.4e-3, 8, 4e-3,
         {150.0, 400.0, 600.0, 650.0, 700.0}},
        {"node, pair tile: 1.4 ms + 0.98 ms/q", 1.4e-3, 0.98e-3, 8, 4e-3,
         {150.0, 600.0, 800.0, 900.0, 950.0}},
    };
    for (const Model &m : models) {
        for (double rate : m.rates) {
            serve::ServerConfig cfg;
            cfg.arrivalRate = rate;
            cfg.batchBaseSeconds = m.base;
            cfg.perQuestionSeconds = m.per;
            cfg.maxBatch = m.cap;
            cfg.batchTimeout = m.timeout;
            cfg.simSeconds = 20.0;
            const auto b = serve::simulateServer(cfg);
            cfg.dispatch = serve::DispatchPolicy::JoinAtNextChunk;
            cfg.workers = 4;
            const auto w = serve::simulateServer(cfg);
            cfg.batchTimeout = 0.0; // LiveServer's rule for the scan
            const auto j = serve::simulateServer(cfg);
            const auto ms = [](double s) {
                return stats::Table::num(s * 1e3, 2);
            };
            join_table.addRow({m.name, stats::Table::num(rate, 0),
                               ms(b.p50Latency), ms(w.p50Latency),
                               ms(j.p50Latency), ms(b.p99Latency),
                               ms(w.p99Latency), ms(j.p99Latency)});
        }
    }
    join_table.print();
    std::printf("\n(latencies in ms) reading: when the KB stream "
                "dominates a batch's cost, joining removes the wait for "
                "the batch in flight at every load, and leaving on "
                "arrival removes the batching timeout too; when "
                "per-question work dominates, riders lengthen each "
                "other's revolutions and near capacity joining loses\n");
}

/** Drive one live policy point with open-loop Poisson arrivals. */
struct LivePoint
{
    serve::LatencySnapshot snap;
    double throughput = 0.0;
    size_t slots = 0; ///< the server's window: batches riding at once
};

LivePoint
runLivePoint(const core::KnowledgeBase &kb,
             const core::EngineConfig &ecfg, size_t cap, double rate,
             double duration)
{
    serve::LiveServerConfig lcfg;
    lcfg.maxBatch = cap;
    lcfg.queueCapacity = 2048;
    lcfg.engine = ecfg;
    serve::LiveServer server(kb, lcfg);

    XorShiftRng rng(99);
    std::vector<float> q(kb.dim());
    for (float &x : q)
        x = rng.uniformRange(-1.f, 1.f);

    using Clock = std::chrono::steady_clock;
    std::vector<std::future<serve::Answer>> futures;
    const auto t0 = Clock::now();
    auto next = t0;
    const auto window_end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(duration));
    for (;;) {
        double u = 0.0;
        while (u == 0.0)
            u = rng.uniform();
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(-std::log(u) / rate));
        if (next > window_end)
            break;
        std::this_thread::sleep_until(next);
        auto ticket = server.submit(q.data());
        if (ticket.accepted())
            futures.push_back(std::move(ticket.answer));
    }
    server.shutdown();
    for (auto &f : futures)
        f.get();

    LivePoint p;
    p.snap = server.snapshot();
    p.slots = server.engineSlots();
    const double makespan =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (makespan > 0.0)
        p.throughput = static_cast<double>(p.snap.completed) / makespan;
    return p;
}

void
liveStudy()
{
    std::printf("\n4) live runtime vs simulator (--live; wait = "
                "the batch-at-a-time rule, one engine, a 2 ms "
                "timeout; sim = the server's rule, join on "
                "arrival):\n\n");

    // A small KB keeps each policy point sub-second while the service
    // time is still dominated by the real KB stream.
    const size_t ns = 4096, ed = 64;
    core::KnowledgeBase kb(ed);
    kb.reserve(ns);
    XorShiftRng rng(3);
    std::vector<float> a(ed), b(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            a[e] = rng.uniformRange(-0.5f, 0.5f);
            b[e] = rng.uniformRange(-0.5f, 0.5f);
        }
        kb.addSentence(a.data(), b.data());
    }

    core::EngineConfig ecfg;
    ecfg.chunkSize = 512;
    ecfg.streaming = true;

    core::ColumnEngine calib(kb, ecfg);
    const serve::ServiceTimeFit fit =
        serve::calibrateServiceTimes(calib, ed, 1, 16, 5);
    std::printf("calibrated on this machine: base %.1f us + %.2f us "
                "per question\n\n",
                fit.batchBaseSeconds * 1e6,
                fit.perQuestionSeconds * 1e6);

    // Drive each cap at ~70%% of the *serial* capacity, where the
    // caps separate: cap 1 is already near collapse, batching is
    // comfortable.
    const double cap1 =
        1.0
        / std::max(fit.batchBaseSeconds + fit.perQuestionSeconds, 1e-7);
    const double rate = 0.7 * cap1;
    const double duration = 0.5;

    stats::Table table({"batch cap", "sim q/s", "live q/s",
                        "wait p50 (ms)", "sim p50 (ms)",
                        "live p50 (ms)", "sim p99 (ms)",
                        "live p99 (ms)", "mean batch (live)"});
    for (size_t cap : {1ul, 8ul, 32ul}) {
        const LivePoint live = runLivePoint(kb, ecfg, cap, rate, duration);

        // The rule the server runs: join at the next chunk, leave on
        // arrival, the server's window riding at once.
        serve::ServerConfig scfg;
        scfg.arrivalRate = rate;
        scfg.maxBatch = cap;
        scfg.batchTimeout = 0.0;
        scfg.dispatch = serve::DispatchPolicy::JoinAtNextChunk;
        scfg.workers = live.slots;
        scfg.simSeconds = duration;
        fit.apply(scfg);
        const auto sim = serve::simulateServer(scfg);
        // The batch-at-a-time rule: one engine, a 2 ms timeout.
        scfg.batchTimeout = 2e-3;
        scfg.dispatch = serve::DispatchPolicy::BatchAtATime;
        scfg.workers = 1;
        const auto wait = serve::simulateServer(scfg);

        table.addRow({std::to_string(cap),
                      stats::Table::num(sim.throughputQps, 0),
                      stats::Table::num(live.throughput, 0),
                      stats::Table::num(wait.p50Latency * 1e3, 2),
                      stats::Table::num(sim.p50Latency * 1e3, 2),
                      stats::Table::num(live.snap.endToEnd.p50 * 1e3, 2),
                      stats::Table::num(sim.p99Latency * 1e3, 2),
                      stats::Table::num(live.snap.endToEnd.p99 * 1e3, 2),
                      stats::Table::num(live.snap.meanBatchSize, 2)});
    }
    table.print();

    std::printf("\nreading: the sim and wait columns are predictions "
                "from the calibrated affine model, the live ones "
                "wall-clock measurement of real requests through the "
                "server's scan -- where sim and live agree the "
                "simulator is a trustworthy capacity-planning tool, "
                "where they diverge the divergence itself is the "
                "finding (scheduler noise, timer resolution, core "
                "contention); wait minus sim is what joining on "
                "arrival saves over the batch-at-a-time rule\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool live = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--live") == 0) {
            live = true;
        } else {
            std::fprintf(stderr, "usage: %s [--live]\n", argv[0]);
            return 2;
        }
    }

    simulatorStudy();
    if (live)
        liveStudy();
    return 0;
}
