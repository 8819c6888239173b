/**
 * @file
 * Live-vs-simulated serving cross-validation (DESIGN.md §8).
 *
 * The QA-server simulator predicts throughput/latency from the affine
 * service model t(n) = base + n * slope; the live runtime serves real
 * requests through a real scan. This harness closes the loop:
 *
 *  1. build a knowledge base and calibrate the affine model on the
 *     engine whose chunk groups the replicated server's scan rides
 *     (serve::calibrateServiceTimes);
 *  2. for each arrival rate x batch cap, drive the live server
 *     with a deterministic open-loop Poisson workload (seeded
 *     exponential gaps, submissions never wait for completions);
 *  3. replay the same (rate, cap, window) through the discrete-event
 *     simulator with the calibrated coefficients, under the rule the
 *     server runs: a batch joins the scan at its next chunk
 *     (JoinAtNextChunk), leaves on arrival (a zero timeout), and up
 *     to engineSlots() batches ride at once;
 *  4. report live and simulated throughput/latency side by side with
 *     the live/sim throughput ratio — the headline artifact.
 *
 * Emits BENCH_serving.json (path overridable via MNNFAST_BENCH_JSON),
 * with the build, backend, revision and CPU steal it was taken under.
 *
 * Flags:
 *   --smoke        tiny KB, short window, 2 points (CI leak check)
 *   --duration S   arrival window per point (default 1.0)
 *   --workers N    threads stepping the live scan (default 1)
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "bench_util.hh"
#include "core/column_engine.hh"
#include "serve/calibrate.hh"
#include "serve/live_server.hh"
#include "serve/qa_server.hh"
#include "stats/table.hh"
#include "util/rng.hh"

using namespace mnnfast;

namespace {

struct Policy
{
    const char *label;
    size_t maxBatch;
};

struct PointResult
{
    double arrivalRate = 0.0;
    Policy policy{};
    serve::LatencySnapshot live;
    double liveThroughput = 0.0;
    double liveMakespan = 0.0;
    serve::ServerStats sim;
    double throughputRatio = 0.0; ///< live / sim
};

core::KnowledgeBase
buildKb(size_t ns, size_t ed)
{
    core::KnowledgeBase kb(ed);
    kb.reserve(ns);
    XorShiftRng rng(11);
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

/** Pre-generated question pool; submissions cycle through it. */
std::vector<std::vector<float>>
makeQuestions(size_t count, size_t ed, uint64_t seed)
{
    XorShiftRng rng(seed);
    std::vector<std::vector<float>> qs(count);
    for (auto &q : qs) {
        q.resize(ed);
        for (float &x : q)
            x = rng.uniformRange(-1.f, 1.f);
    }
    return qs;
}

/**
 * Open-loop load: submit at seeded exponential inter-arrival gaps for
 * `duration` seconds, never waiting on completions, then drain via
 * shutdown(). Returns the makespan (window start -> full drain).
 */
double
runOpenLoopLoad(serve::LiveServer &server, double rate, double duration,
                const std::vector<std::vector<float>> &questions,
                uint64_t seed)
{
    using Clock = std::chrono::steady_clock;
    XorShiftRng rng(seed);
    std::vector<std::future<serve::Answer>> futures;
    futures.reserve(static_cast<size_t>(rate * duration * 1.2) + 16);

    const auto t0 = Clock::now();
    const auto window_end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(duration));
    auto next = t0;
    size_t qi = 0;
    for (;;) {
        double u = 0.0;
        while (u == 0.0)
            u = rng.uniform();
        const double gap = -std::log(u) / rate;
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(gap));
        if (next > window_end)
            break;
        std::this_thread::sleep_until(next);
        serve::Ticket t =
            server.submit(questions[qi++ % questions.size()].data());
        if (t.accepted())
            futures.push_back(std::move(t.answer));
    }
    server.shutdown();

    // shutdown() guarantees readiness; get() additionally validates
    // that no future was left unset or set twice.
    for (auto &f : futures)
        f.get();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
quantilesJson(bench::JsonWriter &json, const char *name,
              const serve::LatencyQuantiles &q)
{
    json.key(name);
    json.beginObject();
    json.field("p50", q.p50);
    json.field("p95", q.p95);
    json.field("p99", q.p99);
    json.field("mean", q.mean);
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const bool smoke = args.flag("smoke");
    double duration = args.floatOpt("duration", 1.0);
    const size_t workers = args.sizeOpt("workers", 1);
    args.finish();

    bench::banner("Live serving cross-validation",
                  "Open-loop load against the live runtime vs the "
                  "calibrated discrete-event simulator.");

    const size_t ns = smoke ? 512 : 8192;
    const size_t ed = smoke ? 32 : 64;
    if (smoke)
        duration = std::min(duration, 0.25);

    const bench::StealClock steal;
    const core::KnowledgeBase kb = buildKb(ns, ed);

    core::EngineConfig ecfg;
    ecfg.chunkSize = std::min<size_t>(512, ns);
    ecfg.threads = 0; // one chunk group: the server scans one ring
    ecfg.streaming = true;

    // Calibrate the affine service model on the engine whose chunk
    // groups the live scan rides: a pass is one ring revolution.
    core::ColumnEngine calib_engine(kb, ecfg);
    const serve::ServiceTimeFit fit = serve::calibrateServiceTimes(
        calib_engine, ed, /*smallBatch=*/1, /*largeBatch=*/16,
        /*repeats=*/smoke ? 3 : 7);
    std::printf("calibration: base %.1f us + %.2f us/question "
                "(t(1)=%.1f us, t(16)=%.1f us)\n\n",
                fit.batchBaseSeconds * 1e6,
                fit.perQuestionSeconds * 1e6, fit.smallSeconds * 1e6,
                fit.largeSeconds * 1e6);

    // Arrival rates bracket the serial capacity and approach the
    // batched capacity, so the sweep shows underload, the regime where
    // only batching survives, and near-saturation.
    const double t1 = fit.batchBaseSeconds + fit.perQuestionSeconds;
    const double cap1 = 1.0 / std::max(t1, 1e-7);
    const double t16 =
        fit.batchBaseSeconds + 16.0 * fit.perQuestionSeconds;
    const double cap16 = 16.0 / std::max(t16, 1e-7);
    std::vector<double> rates;
    if (smoke) {
        // Low-rate: the CI smoke exercises admission, batching,
        // drain and shutdown, not saturation.
        rates = {std::min(2000.0, std::max(50.0, 0.3 * cap1))};
    } else {
        rates = {std::max(50.0, 0.4 * cap1),
                 std::max(100.0, 1.2 * cap1),
                 std::max(200.0, 0.8 * cap16)};
    }

    const Policy policies[] = {
        {"serial", 1},
        {"batch16", 16},
    };

    const std::vector<std::vector<float>> questions =
        makeQuestions(32, ed, 21);

    std::vector<PointResult> points;
    for (const Policy &pol : policies) {
        for (double rate : rates) {
            serve::LiveServerConfig lcfg;
            lcfg.maxBatch = pol.maxBatch;
            lcfg.workers = workers;
            lcfg.queueCapacity = 4096;
            lcfg.engine = ecfg;
            // Deep-overload latencies reach seconds (the full queue
            // drains at capacity); widen the histograms so the tail
            // quantiles are measured, not clamped.
            lcfg.histogramMaxSeconds = 4.0;
            serve::LiveServer server(kb, lcfg);

            PointResult pr;
            pr.arrivalRate = rate;
            pr.policy = pol;
            pr.liveMakespan = runOpenLoopLoad(server, rate, duration,
                                              questions, 1234);
            pr.live = server.snapshot();
            if (pr.liveMakespan > 0.0)
                pr.liveThroughput =
                    static_cast<double>(pr.live.completed)
                    / pr.liveMakespan;

            if (pr.live.completed + pr.live.rejected
                != pr.live.arrived) {
                std::fprintf(stderr,
                             "conservation violated: %llu arrived, "
                             "%llu completed, %llu rejected\n",
                             (unsigned long long)pr.live.arrived,
                             (unsigned long long)pr.live.completed,
                             (unsigned long long)pr.live.rejected);
                return 1;
            }

            // The rule the server runs (live_server.hh).
            serve::ServerConfig scfg;
            scfg.arrivalRate = rate;
            scfg.maxBatch = pol.maxBatch;
            scfg.dispatch = serve::DispatchPolicy::JoinAtNextChunk;
            scfg.batchTimeout = 0.0;
            scfg.workers = server.engineSlots();
            scfg.simSeconds = duration;
            scfg.seed = 1234;
            fit.apply(scfg);
            pr.sim = serve::simulateServer(scfg);
            if (pr.sim.throughputQps > 0.0)
                pr.throughputRatio =
                    pr.liveThroughput / pr.sim.throughputQps;
            points.push_back(std::move(pr));
        }
    }

    stats::Table table({"policy", "rate (q/s)", "live q/s", "sim q/s",
                        "ratio", "live p50 (ms)", "sim p50 (ms)",
                        "live p99 (ms)", "sim p99 (ms)", "mean batch",
                        "rejected"});
    for (const PointResult &p : points) {
        table.addRow({p.policy.label,
                      stats::Table::num(p.arrivalRate, 0),
                      stats::Table::num(p.liveThroughput, 0),
                      stats::Table::num(p.sim.throughputQps, 0),
                      stats::Table::num(p.throughputRatio, 3),
                      stats::Table::num(p.live.endToEnd.p50 * 1e3, 3),
                      stats::Table::num(p.sim.p50Latency * 1e3, 3),
                      stats::Table::num(p.live.endToEnd.p99 * 1e3, 3),
                      stats::Table::num(p.sim.p99Latency * 1e3, 3),
                      stats::Table::num(p.live.meanBatchSize, 2),
                      std::to_string(p.live.rejected)});
    }
    table.print();

    bench::JsonWriter json(
        bench::benchJsonPath("BENCH_serving.json"));
    json.beginObject();
    bench::beginProvenance(json, MNNFAST_BUILD_TYPE);
    json.field("cpu_steal_frac", steal.frac());
    json.endObject();
    json.key("kb");
    json.beginObject();
    json.field("ns", ns);
    json.field("ed", ed);
    json.endObject();
    json.field("workers", workers);
    json.field("duration_seconds", duration);
    json.key("calibration");
    json.beginObject();
    json.field("batch_base_seconds", fit.batchBaseSeconds);
    json.field("per_question_seconds", fit.perQuestionSeconds);
    json.field("t_small_seconds", fit.smallSeconds);
    json.field("t_large_seconds", fit.largeSeconds);
    json.endObject();
    json.key("points");
    json.beginArray();
    for (const PointResult &p : points) {
        json.beginObject();
        json.field("policy", p.policy.label);
        json.field("max_batch", p.policy.maxBatch);
        json.field("arrival_rate", p.arrivalRate);
        json.key("live");
        json.beginObject();
        json.field("throughput_qps", p.liveThroughput);
        json.field("makespan_seconds", p.liveMakespan);
        json.field("arrived", size_t(p.live.arrived));
        json.field("completed", size_t(p.live.completed));
        json.field("rejected", size_t(p.live.rejected));
        json.field("batches", size_t(p.live.batches));
        json.field("mean_batch_size", p.live.meanBatchSize);
        quantilesJson(json, "queue_wait_seconds", p.live.queueWait);
        quantilesJson(json, "service_seconds", p.live.service);
        quantilesJson(json, "end_to_end_seconds", p.live.endToEnd);
        json.endObject();
        json.key("sim");
        json.beginObject();
        json.field("throughput_qps", p.sim.throughputQps);
        json.field("p50_seconds", p.sim.p50Latency);
        json.field("p95_seconds", p.sim.p95Latency);
        json.field("p99_seconds", p.sim.p99Latency);
        json.field("mean_batch_size", p.sim.meanBatchSize);
        json.field("utilization", p.sim.utilization);
        json.endObject();
        json.field("throughput_ratio_live_over_sim",
                   p.throughputRatio);
        json.endObject();
    }
    json.endArray();
    json.endObject();

    std::printf("\nwrote %s (%zu points)\n", json.path().c_str(),
                points.size());
    std::printf("reading: the live/sim throughput ratio validates the "
                "affine service model against wall-clock reality; "
                "underloaded points track the arrival rate in both "
                "worlds, overloaded points expose where real "
                "scheduling, queue backpressure and timer overheads "
                "depart from the model\n");
    return 0;
}
