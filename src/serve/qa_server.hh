/**
 * @file
 * Discrete-event simulation of a question-answering service built on
 * the column-based engine — the multi-tenant serving setting the
 * paper's contention study (Fig. 4) presumes.
 *
 * The serving-side consequence of the column algorithm is that a
 * batch of questions shares one streaming pass over the knowledge
 * base (M_IN/M_OUT are read once per *batch*, not per question), so
 * the service time of a batch is
 *
 *     t(n) = batchBaseSeconds + n * perQuestionSeconds
 *
 * with a large amortizable base. The simulator runs Poisson question
 * arrivals against a dispatcher over a pool of executor workers — or
 * over one cooperative scan that a batch joins at its next chunk —
 * and reports throughput, latency percentiles, mean batch size and
 * utilization — the numbers a capacity planner needs to choose the
 * batching policy.
 *
 * The dispatch rule is LiveServer's (live_server.hh): a batch leaves
 * when an executor (a window slot) is free and either `maxBatch`
 * questions are pending or the oldest has waited `batchTimeout`. For a
 * batch that streams the KB on its own (BatchAtATime) the wait buys
 * riders to share its stream. A batch that joins the scan in flight
 * (JoinAtNextChunk) shares the stream with every rider however it
 * arrives, so LiveServer dispatches such backends on arrival; the
 * simulator models that as JoinAtNextChunk with `batchTimeout` = 0,
 * and a nonzero timeout there prices what waiting costs.
 */

#ifndef MNNFAST_SERVE_QA_SERVER_HH
#define MNNFAST_SERVE_QA_SERVER_HH

#include <cstddef>
#include <cstdint>

namespace mnnfast::serve {

/** How a dispatched batch meets the knowledge-base stream. */
enum class DispatchPolicy {
    /**
     * A batch waits for a free executor and streams the KB on its own:
     * it completes t(n) = batchBaseSeconds + n * perQuestionSeconds
     * after dispatch.
     */
    BatchAtATime,
    /**
     * Cooperative scan (LiveServer's in-process and cluster modes): a
     * dispatched batch starts at once, joining the stream in flight at
     * its next chunk, and completes one revolution later. A revolution
     * costs batchBaseSeconds + riders * perQuestionSeconds, riders
     * being every question riding when the batch joins, its own
     * included. `workers` is the number of batches that may ride at
     * once (the scan's window); `batchTimeout` = 0 dispatches whenever
     * one is free, as LiveServer does (see header).
     */
    JoinAtNextChunk,
};

/** Service and workload parameters. */
struct ServerConfig
{
    /** Mean Poisson arrival rate, questions per second. */
    double arrivalRate = 2000.0;
    /** Maximum questions per dispatched batch. */
    size_t maxBatch = 32;
    /**
     * Dispatch a partial batch once its oldest question has waited
     * this long (seconds); zero dispatches on arrival (see header).
     */
    double batchTimeout = 2.0e-3;
    /** Per-batch service time: the shared knowledge-base stream. */
    double batchBaseSeconds = 1.0e-3;
    /** Marginal service time per question in the batch. */
    double perQuestionSeconds = 4.0e-5;
    /** Parallel executors (e.g., sockets or accelerator instances);
     *  under JoinAtNextChunk, the batches riding at once. */
    size_t workers = 1;
    DispatchPolicy dispatch = DispatchPolicy::BatchAtATime;
    /** Length of the arrival window simulated (seconds). */
    double simSeconds = 5.0;
    uint64_t seed = 1;
};

/** Simulation outcome. */
struct ServerStats
{
    uint64_t arrived = 0;
    uint64_t completed = 0;
    /** Completed questions / (arrival window + drain time). */
    double throughputQps = 0.0;
    double meanLatency = 0.0; ///< seconds, arrival -> completion
    double p50Latency = 0.0;
    double p95Latency = 0.0;
    double p99Latency = 0.0;
    double meanBatchSize = 0.0;
    /** Fraction of the makespan the executors were busy (under
     *  JoinAtNextChunk: the fraction with a batch riding). */
    double utilization = 0.0;
    /** Total wall time simulated (arrival window + drain). */
    double makespan = 0.0;
};

/** Run the simulation; deterministic for a given config. */
ServerStats simulateServer(const ServerConfig &cfg);

} // namespace mnnfast::serve

#endif // MNNFAST_SERVE_QA_SERVER_HH
