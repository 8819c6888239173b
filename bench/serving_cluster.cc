/**
 * @file
 * Cluster serving bench (DESIGN.md §12): open-loop Poisson load
 * through the loopback transport's deterministic fault injector,
 * across failure scenarios x hedging, plus the bit-identity and
 * failover acceptance legs.
 *
 * Legs:
 *
 *  1. Bit-identity (hard gate, nonzero exit on failure): for shard
 *     counts {2, 4} x KB precisions {f32, bf16, i8}, a lossless
 *     ClusterFrontEnd gather must be bit-identical to the in-process
 *     ShardedEngine over the same partition.
 *  2. Scenario grid: {clean, jitter, straggler, loss, disconnect} x
 *     hedging {on, off}. Each scenario degrades only the *primary*
 *     replica endpoints (the backups stay clean), runs a seeded
 *     open-loop Poisson request schedule, and reports end-to-end
 *     latency quantiles (measured against the scheduled arrival, so
 *     backlog counts), completion/partial-answer rates, and the RPC
 *     counters (hedges fired/won, failovers, deadline misses).
 *     The headline artifact: hedging cutting the straggler scenario's
 *     tail against the unhedged run.
 *  3. Failover recovery (hard gate): under injected disconnects with
 *     partial answers disabled, every submitted request must still
 *     complete with all shards — replica failover may not lose an
 *     accepted request.
 *  4. Pipelined vs serial (hard gate on clean + jitter): the same
 *     window-saturated batch stream through a pipelineDepth-W front
 *     end vs a serial (W = 1) one, over clean (constant small
 *     latency, no faults), jittering, and straggling links. With
 *     W >= 2 send-ahead puts batch k+1 on the wire while batch k
 *     gathers, so neither the round trip nor the node compute
 *     serializes the stream; the gate requires the pipelined run to
 *     beat the serial run's throughput on the clean and jitter legs
 *     (the straggler leg is reported but ungated — its tail is
 *     fault-schedule noise).
 *
 * Emits BENCH_cluster.json (path overridable via MNNFAST_BENCH_JSON).
 *
 * Flags:
 *   --smoke       small KB, short schedule (CI)
 *   --shards N    shard count for the scenario grid (default 2)
 *   --requests N  requests per scenario point (default 400)
 *   --rate QPS    Poisson arrival rate (default 300)
 *   --seed S      workload + fault seed (default 1234)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
#include "core/sharded_engine.hh"
#include "core/sharded_knowledge_base.hh"
#include "net/cluster_frontend.hh"
#include "net/loopback_transport.hh"
#include "net/shard_node.hh"
#include "serve/latency_recorder.hh"
#include "stats/histogram.hh"
#include "stats/table.hh"
#include "util/rng.hh"

using namespace mnnfast;

namespace {

core::KnowledgeBase
buildKb(size_t ns, size_t ed,
        core::Precision prec = core::Precision::F32)
{
    core::KnowledgeBase kb(ed, prec);
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

std::vector<float>
makeQuestions(size_t nq, size_t ed, uint64_t seed)
{
    XorShiftRng rng(seed);
    std::vector<float> u(nq * ed);
    for (float &x : u)
        x = rng.uniformRange(-1.f, 1.f);
    return u;
}

uint32_t
f32Bits(float v)
{
    uint32_t b;
    static_assert(sizeof b == sizeof v, "ieee f32");
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Shard nodes serving on loopback endpoints, one thread each. */
struct NodeSet
{
    std::vector<std::unique_ptr<net::ShardNode>> nodes;
    std::vector<std::thread> threads;

    void
    add(const core::KnowledgeBase &shard_kb,
        const core::EngineConfig &cfg, uint32_t shard,
        net::Transport &transport, const std::string &endpoint)
    {
        auto listener = transport.listen(endpoint);
        if (!listener)
            fatal("cannot listen on loopback endpoint %s",
                  endpoint.c_str());
        nodes.push_back(
            std::make_unique<net::ShardNode>(shard_kb, cfg, shard));
        net::ShardNode *node = nodes.back().get();
        threads.emplace_back(
            [node, l = std::move(listener)]() mutable {
                node->serve(*l);
            });
    }

    void
    stop()
    {
        for (auto &n : nodes)
            n->requestStop();
        for (auto &t : threads)
            t.join();
        threads.clear();
        nodes.clear();
    }

    ~NodeSet() { stop(); }
};

struct Scenario
{
    const char *name;
    net::FaultSpec primaryFault; ///< applied to primary replicas only
    bool allowPartial;
    bool assertAllComplete; ///< hard gate: no request may be lost
};

struct ScenarioResult
{
    const Scenario *scenario = nullptr;
    bool hedging = false;
    size_t submitted = 0;
    size_t completedFull = 0;
    size_t completedPartial = 0;
    size_t failed = 0;
    double meanSeconds = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0, maxSeconds = 0.0;
    serve::RpcShardCounters rpc;
    uint64_t partialQuestions = 0;
};

/**
 * One scenario point: S shards x 2 replicas on a fresh loopback
 * network, primaries degraded per the scenario, driven by a seeded
 * open-loop Poisson schedule. Latency is measured from the request's
 * *scheduled* arrival to completion, so a backlogged front end pays
 * for its queueing like a real client would.
 */
ScenarioResult
runScenario(const Scenario &sc, bool hedging,
            const core::ShardedKnowledgeBase &skb,
            const core::EngineConfig &ecfg, size_t requests,
            double rate, size_t nq, uint64_t seed,
            double timeoutSeconds)
{
    const size_t ed = skb.parent().dim();
    net::LoopbackNetwork netns;
    net::LoopbackTransport transport(netns, {}, seed);

    NodeSet nodeSet;
    net::ClusterConfig ccfg;
    ccfg.requestTimeoutSeconds = timeoutSeconds;
    ccfg.hedging = hedging;
    ccfg.hedgeMinSeconds = 2e-3;
    ccfg.allowPartial = sc.allowPartial;
    for (size_t s = 0; s < skb.shardCount(); ++s) {
        std::string primary = "s";
        primary += std::to_string(s);
        std::string backup = primary;
        primary += "-a";
        backup += "-b";
        nodeSet.add(skb.shard(s), ecfg, static_cast<uint32_t>(s),
                    transport, primary);
        nodeSet.add(skb.shard(s), ecfg, static_cast<uint32_t>(s),
                    transport, backup);
        transport.setEndpointFaults(primary, sc.primaryFault);
        ccfg.replicas.push_back({primary, backup});
    }

    net::ClusterFrontEnd fe(transport, ccfg);

    // Seeded Poisson schedule, fixed before the run (open loop: the
    // schedule never adapts to completions).
    XorShiftRng rng(seed * 7919 + 17);
    std::vector<double> arrivals(requests);
    double at = 0.0;
    for (size_t i = 0; i < requests; ++i) {
        double u = 0.0;
        while (u == 0.0)
            u = rng.uniform();
        at += -std::log(u) / rate;
        arrivals[i] = at;
    }
    const std::vector<float> u = makeQuestions(nq, ed, seed + 3);
    std::vector<float> o(nq * ed);

    ScenarioResult res;
    res.scenario = &sc;
    res.hedging = hedging;
    res.submitted = requests;
    stats::Histogram lat(0.0, 2.0 * timeoutSeconds, 2048);
    double latMax = 0.0, latSum = 0.0;

    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < requests; ++i) {
        const auto scheduled =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(arrivals[i]));
        std::this_thread::sleep_until(scheduled);
        const net::BatchResult r =
            fe.inferBatch(u.data(), nq, ed, o.data());
        const double seconds =
            std::chrono::duration<double>(Clock::now() - scheduled)
                .count();
        lat.add(seconds);
        latSum += seconds;
        latMax = std::max(latMax, seconds);
        if (r.complete)
            ++res.completedFull;
        else if (r.shardsAnswered > 0)
            ++res.completedPartial;
        else
            ++res.failed;
    }

    res.meanSeconds = latSum / static_cast<double>(requests);
    res.p50 = lat.quantile(0.50);
    res.p95 = lat.quantile(0.95);
    res.p99 = lat.quantile(0.99);
    res.maxSeconds = latMax;

    const serve::LatencySnapshot snap = fe.snapshot();
    res.rpc = snap.rpcTotals();
    res.partialQuestions = snap.partialAnswers;
    return res;
}

struct PipelineLeg
{
    const char *name;
    net::FaultSpec fault; ///< applied to every shard endpoint
    bool gated;           ///< pipelined must beat serial here
};

struct PipelineLegResult
{
    const PipelineLeg *leg = nullptr;
    size_t batches = 0;
    double serialSeconds = 0.0;
    double pipelinedSeconds = 0.0;
    double serialQps = 0.0;
    double pipelinedQps = 0.0;
    double speedup = 0.0;
    bool allComplete = true;
};

/**
 * One window-saturated pass: `batches` identical batches pushed as
 * fast as the in-flight window admits them, retired in submission
 * order. Returns the makespan (first submit to last retire). The
 * deadline is deliberately generous — this leg measures pipelining,
 * not deadline policy, and a sanitizer-slowed run must not turn a
 * throughput comparison into a partial-answer scramble.
 */
double
runPipelinePass(const net::FaultSpec &fault, size_t depth,
                const core::ShardedKnowledgeBase &skb,
                const core::EngineConfig &ecfg, size_t batches,
                size_t nq, uint64_t seed, bool &allComplete)
{
    const size_t ed = skb.parent().dim();
    net::LoopbackNetwork netns;
    net::LoopbackTransport transport(netns, fault, seed);

    NodeSet nodeSet;
    net::ClusterConfig ccfg;
    ccfg.requestTimeoutSeconds = 30.0;
    ccfg.hedging = false; // isolate pipelining from hedging
    ccfg.pipelineDepth = depth;
    for (size_t s = 0; s < skb.shardCount(); ++s) {
        const std::string ep = "p" + std::to_string(s);
        nodeSet.add(skb.shard(s), ecfg, static_cast<uint32_t>(s),
                    transport, ep);
        ccfg.replicas.push_back({ep});
    }
    net::ClusterFrontEnd fe(transport, ccfg);

    const std::vector<float> u = makeQuestions(nq, ed, seed + 5);
    std::vector<std::vector<float>> o(depth,
                                      std::vector<float>(nq * ed));
    std::vector<uint64_t> tickets(batches);

    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const size_t prime = std::min(depth, batches);
    for (size_t k = 0; k < prime; ++k)
        tickets[k] = fe.submitBatch(u.data(), nq, ed,
                                    o[k % depth].data());
    for (size_t k = 0; k < batches; ++k) {
        const net::BatchResult r = fe.waitBatch(tickets[k]);
        if (!r.complete)
            allComplete = false;
        if (k + depth < batches)
            tickets[k + depth] = fe.submitBatch(
                u.data(), nq, ed, o[(k + depth) % depth].data());
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

PipelineLegResult
runPipelineLeg(const PipelineLeg &leg, size_t depth,
               const core::ShardedKnowledgeBase &skb,
               const core::EngineConfig &ecfg, size_t batches,
               size_t nq, uint64_t seed)
{
    PipelineLegResult res;
    res.leg = &leg;
    res.batches = batches;
    res.serialSeconds = runPipelinePass(leg.fault, 1, skb, ecfg,
                                        batches, nq, seed,
                                        res.allComplete);
    res.pipelinedSeconds = runPipelinePass(leg.fault, depth, skb,
                                           ecfg, batches, nq, seed,
                                           res.allComplete);
    res.serialQps =
        static_cast<double>(batches * nq) / res.serialSeconds;
    res.pipelinedQps =
        static_cast<double>(batches * nq) / res.pipelinedSeconds;
    res.speedup = res.serialSeconds / res.pipelinedSeconds;
    return res;
}

/** Lossless cluster vs in-process ShardedEngine, bitwise. */
size_t
bitIdentityMismatches(size_t shards, core::Precision prec, size_t ns,
                      size_t ed, size_t nq, size_t chunk)
{
    const core::KnowledgeBase kb = buildKb(ns, ed, prec);
    const core::ShardedKnowledgeBase skb(kb, chunk, shards);
    core::EngineConfig ecfg;
    ecfg.chunkSize = chunk;

    core::ShardedEngine reference(skb, ecfg);
    const std::vector<float> u = makeQuestions(nq, ed, 29);
    std::vector<float> expect(nq * ed), got(nq * ed);
    reference.inferBatch(u.data(), nq, expect.data());

    net::LoopbackNetwork netns;
    net::LoopbackTransport transport(netns);
    NodeSet nodeSet;
    net::ClusterConfig ccfg;
    ccfg.requestTimeoutSeconds = 60.0;
    for (size_t s = 0; s < skb.shardCount(); ++s) {
        const std::string ep = "shard" + std::to_string(s);
        nodeSet.add(skb.shard(s), ecfg, static_cast<uint32_t>(s),
                    transport, ep);
        ccfg.replicas.push_back({ep});
    }
    net::ClusterFrontEnd fe(transport, ccfg);
    const net::BatchResult r = fe.inferBatch(u.data(), nq, ed,
                                             got.data());
    if (!r.complete)
        return nq * ed; // a missing shard is a total mismatch

    size_t mismatches = 0;
    for (size_t i = 0; i < got.size(); ++i)
        if (f32Bits(got[i]) != f32Bits(expect[i]))
            ++mismatches;
    return mismatches;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const bool smoke = args.flag("smoke");
    const size_t shards = args.sizeOpt("shards", 2);
    const size_t requests =
        args.sizeOpt("requests", smoke ? 40 : 400);
    // The default rates keep the clean scenario comfortably
    // underloaded on a shared VM: open-loop latency is measured from
    // the scheduled arrival, so an oversaturated operating point
    // reports backlog growth instead of the injected fault effects.
    const double rate = args.floatOpt("rate", smoke ? 250.0 : 150.0);
    const uint64_t seed = args.sizeOpt("seed", 1234);
    args.finish();

    const size_t ns = smoke ? 4096 : 16384;
    const size_t ed = smoke ? 32 : 64;
    const size_t nq = 4;
    const size_t chunk = 256;
    const double timeoutSeconds = smoke ? 0.15 : 0.3;

    std::printf("cluster serving bench: %zu shards x 2 replicas, "
                "%zu requests/scenario @ %.0f q/s, KB %zux%zu\n\n",
                shards, requests, rate, ns, ed);

    // ---- Leg 1: bit-identity gate ---------------------------------
    size_t bitCases = 0, bitMismatches = 0;
    for (size_t sc : {size_t(2), size_t(4)}) {
        for (core::Precision prec :
             {core::Precision::F32, core::Precision::BF16,
              core::Precision::I8}) {
            ++bitCases;
            bitMismatches += bitIdentityMismatches(
                sc, prec, smoke ? 2048 : 8192, ed, nq, chunk);
        }
    }
    std::printf("bit-identity: %zu cases, %zu mismatched values\n",
                bitCases, bitMismatches);
    if (bitMismatches != 0) {
        std::fprintf(stderr,
                     "FAIL: cluster gather diverged from the "
                     "in-process ShardedEngine\n");
        return 1;
    }

    // ---- Leg 2: scenario grid -------------------------------------
    // Fault magnitudes are scaled to the timeout so the smoke run
    // keeps the same structure at a fraction of the wall-clock.
    const double straggle = timeoutSeconds * 0.4;
    const Scenario scenarios[] = {
        {"clean", {}, false, true},
        {"jitter",
         {/*base*/ 2e-4, /*jitter*/ 1e-3, 0.0, 0.0, 0.0, 0.0},
         false, true},
        {"straggler",
         {1e-4, 0.0, /*stragglerProb*/ 0.08, straggle, 0.0, 0.0},
         false, true},
        {"loss", {1e-4, 0.0, 0.0, 0.0, /*lossProb*/ 0.02, 0.0},
         true, false},
        {"disconnect",
         {1e-4, 0.0, 0.0, 0.0, 0.0, /*disconnectProb*/ 0.05},
         false, true},
    };

    const core::KnowledgeBase kb = buildKb(ns, ed);
    const core::ShardedKnowledgeBase skb(kb, chunk, shards);
    core::EngineConfig ecfg;
    ecfg.chunkSize = chunk;

    std::vector<ScenarioResult> results;
    bool failoverGateOk = true;
    for (const Scenario &sc : scenarios) {
        for (bool hedging : {true, false}) {
            ScenarioResult r =
                runScenario(sc, hedging, skb, ecfg, requests, rate,
                            nq, seed, timeoutSeconds);
            // Leg 3: under recoverable faults with partial answers
            // disabled, failover must not lose any accepted request
            // when hedging is on (an unhedged run can only wait out
            // the deadline on a lost message, which is the point of
            // the comparison, so the hard gate applies to hedged
            // runs).
            if (sc.assertAllComplete && hedging
                && r.completedFull != r.submitted) {
                std::fprintf(
                    stderr,
                    "FAIL: scenario %s (hedging) lost requests: "
                    "%zu submitted, %zu completed\n",
                    sc.name, r.submitted, r.completedFull);
                failoverGateOk = false;
            }
            results.push_back(r);
        }
    }

    stats::Table table({"scenario", "hedge", "done", "partial",
                        "failed", "p50 (ms)", "p99 (ms)", "max (ms)",
                        "hedges", "wins", "failovers", "misses"});
    for (const ScenarioResult &r : results) {
        table.addRow({r.scenario->name, r.hedging ? "on" : "off",
                      std::to_string(r.completedFull),
                      std::to_string(r.completedPartial),
                      std::to_string(r.failed),
                      stats::Table::num(r.p50 * 1e3, 2),
                      stats::Table::num(r.p99 * 1e3, 2),
                      stats::Table::num(r.maxSeconds * 1e3, 2),
                      std::to_string(r.rpc.hedgesFired),
                      std::to_string(r.rpc.hedgeWins),
                      std::to_string(r.rpc.failovers),
                      std::to_string(r.rpc.deadlineMisses)});
    }
    table.print();

    // The headline pair: straggler-tail with and without hedging.
    double stragglerP99Hedged = 0.0, stragglerP99Unhedged = 0.0;
    for (const ScenarioResult &r : results) {
        if (std::string(r.scenario->name) != "straggler")
            continue;
        (r.hedging ? stragglerP99Hedged : stragglerP99Unhedged) =
            r.p99;
    }
    std::printf("\nstraggler p99: %.2f ms hedged vs %.2f ms unhedged "
                "(%.1fx)\n",
                stragglerP99Hedged * 1e3, stragglerP99Unhedged * 1e3,
                stragglerP99Hedged > 0.0
                    ? stragglerP99Unhedged / stragglerP99Hedged
                    : 0.0);

    // ---- Leg 4: pipelined vs serial -------------------------------
    const size_t pipelineDepth = 4;
    const size_t pipelineBatches = smoke ? 64 : 256;
    // "clean" is a clean *network*, not a zero-cost one: a constant
    // per-message latency and nothing else. On a zero-latency wire
    // the window has no round trip to hide and the comparison just
    // measures scheduler noise; with a real (if small) RTT the serial
    // front end must pay it per batch while send-ahead overlaps it
    // with node compute — the deterministic speedup this leg gates.
    const PipelineLeg pipelineLegs[] = {
        {"clean",
         {/*base*/ 1e-3, 0.0, 0.0, 0.0, 0.0, 0.0}, true},
        {"jitter",
         {/*base*/ 5e-4, /*jitter*/ 1e-3, 0.0, 0.0, 0.0, 0.0}, true},
        {"straggler",
         {1e-4, 0.0, /*stragglerProb*/ 0.08, straggle, 0.0, 0.0},
         false},
    };
    std::vector<PipelineLegResult> pipelineResults;
    bool pipelineGateOk = true;
    for (const PipelineLeg &leg : pipelineLegs) {
        PipelineLegResult r =
            runPipelineLeg(leg, pipelineDepth, skb, ecfg,
                           pipelineBatches, nq, seed);
        if (!r.allComplete) {
            std::fprintf(stderr,
                         "FAIL: pipeline leg %s lost batches\n",
                         leg.name);
            pipelineGateOk = false;
        }
        if (leg.gated && r.speedup <= 1.0) {
            std::fprintf(stderr,
                         "FAIL: pipelined (W=%zu) did not beat serial "
                         "on %s: %.1f q/s vs %.1f q/s\n",
                         pipelineDepth, leg.name, r.pipelinedQps,
                         r.serialQps);
            pipelineGateOk = false;
        }
        pipelineResults.push_back(r);
    }

    std::printf("\npipelined vs serial (W=%zu, %zu batches x %zu "
                "questions):\n",
                pipelineDepth, pipelineBatches, nq);
    stats::Table ptable({"leg", "serial q/s", "pipelined q/s",
                         "speedup", "gate"});
    for (const PipelineLegResult &r : pipelineResults)
        ptable.addRow({r.leg->name,
                       stats::Table::num(r.serialQps, 1),
                       stats::Table::num(r.pipelinedQps, 1),
                       stats::Table::num(r.speedup, 2),
                       r.leg->gated ? (r.speedup > 1.0 ? "ok" : "FAIL")
                                    : "-"});
    ptable.print();

    // ---- JSON -----------------------------------------------------
    bench::JsonWriter json(
        bench::benchJsonPath("BENCH_cluster.json"));
    json.beginObject();
    json.field("bench", "serving_cluster");
    json.key("config");
    json.beginObject();
    json.field("shards", shards);
    json.field("replicas_per_shard", size_t(2));
    json.field("requests_per_scenario", requests);
    json.field("arrival_rate_qps", rate);
    json.field("batch_questions", nq);
    json.field("kb_sentences", ns);
    json.field("embedding_dim", ed);
    json.field("request_timeout_seconds", timeoutSeconds);
    json.field("seed", size_t(seed));
    json.field("smoke", smoke);
    json.endObject();
    json.key("bit_identity");
    json.beginObject();
    json.field("cases", bitCases);
    json.field("mismatched_values", bitMismatches);
    json.endObject();
    json.key("scenarios");
    json.beginArray();
    for (const ScenarioResult &r : results) {
        json.beginObject();
        json.field("name", r.scenario->name);
        json.field("hedging", r.hedging);
        json.field("submitted", r.submitted);
        json.field("completed_full", r.completedFull);
        json.field("completed_partial", r.completedPartial);
        json.field("failed", r.failed);
        json.field("partial_questions", size_t(r.partialQuestions));
        json.key("latency_seconds");
        json.beginObject();
        json.field("mean", r.meanSeconds);
        json.field("p50", r.p50);
        json.field("p95", r.p95);
        json.field("p99", r.p99);
        json.field("max", r.maxSeconds);
        json.endObject();
        json.key("rpc");
        json.beginObject();
        json.field("rpcs", size_t(r.rpc.rpcs));
        json.field("hedges_fired", size_t(r.rpc.hedgesFired));
        json.field("hedge_wins", size_t(r.rpc.hedgeWins));
        json.field("failovers", size_t(r.rpc.failovers));
        json.field("deadline_misses", size_t(r.rpc.deadlineMisses));
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.field("straggler_p99_hedged_seconds", stragglerP99Hedged);
    json.field("straggler_p99_unhedged_seconds",
               stragglerP99Unhedged);
    json.field("failover_gate_ok", failoverGateOk);
    json.key("pipeline");
    json.beginObject();
    json.field("depth", pipelineDepth);
    json.field("batches", pipelineBatches);
    json.key("legs");
    json.beginArray();
    for (const PipelineLegResult &r : pipelineResults) {
        json.beginObject();
        json.field("name", r.leg->name);
        json.field("gated", r.leg->gated);
        json.field("serial_seconds", r.serialSeconds);
        json.field("pipelined_seconds", r.pipelinedSeconds);
        json.field("serial_qps", r.serialQps);
        json.field("pipelined_qps", r.pipelinedQps);
        json.field("speedup", r.speedup);
        json.field("all_complete", r.allComplete);
        json.endObject();
    }
    json.endArray();
    json.field("gate_ok", pipelineGateOk);
    json.endObject();
    json.endObject();

    std::printf("\nwrote %s (%zu scenario points)\n",
                json.path().c_str(), results.size());
    std::printf("reading: hedged runs should hold p99 near the clean "
                "scenario while unhedged straggler/loss runs pay the "
                "injected tail or the full deadline; the disconnect "
                "scenario shows failover recovering every request "
                "without partial answers; the pipeline legs show a "
                "W-deep window overlapping scatter and gather to beat "
                "the serial front end's throughput\n");

    if (!failoverGateOk || !pipelineGateOk)
        return 1;
    return 0;
}
