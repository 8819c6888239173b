#include "serve/latency_recorder.hh"

#include <algorithm>
#include <cstdio>

namespace mnnfast::serve {

LatencyRecorder::LatencyRecorder(double maxSeconds, size_t bins)
    : queueWaitHist(0.0, maxSeconds, bins),
      serviceHist(0.0, maxSeconds, bins),
      endToEndHist(0.0, maxSeconds, bins)
{
}

void
LatencyRecorder::recordRequest(double queue_wait, double service,
                               double end_to_end)
{
    queueWaitHist.add(queue_wait);
    serviceHist.add(service);
    endToEndHist.add(end_to_end);
    queueWaitMax = std::max(queueWaitMax, queue_wait);
    serviceMax = std::max(serviceMax, service);
    endToEndMax = std::max(endToEndMax, end_to_end);
}

void
LatencyRecorder::recordBatch(size_t n)
{
    ++batchCount;
    questionCount += n;
}

RpcShardCounters &
LatencyRecorder::rpcShard(size_t s)
{
    if (s >= rpcShardCounters.size())
        rpcShardCounters.resize(s + 1);
    return rpcShardCounters[s];
}

void
LatencyRecorder::mergeInto(LatencyRecorder &acc) const
{
    acc.queueWaitHist.merge(queueWaitHist);
    acc.serviceHist.merge(serviceHist);
    acc.endToEndHist.merge(endToEndHist);
    acc.queueWaitMax = std::max(acc.queueWaitMax, queueWaitMax);
    acc.serviceMax = std::max(acc.serviceMax, serviceMax);
    acc.endToEndMax = std::max(acc.endToEndMax, endToEndMax);
    acc.batchCount += batchCount;
    acc.questionCount += questionCount;
    mergeCountersInto(acc);
}

void
LatencyRecorder::mergeCountersInto(LatencyRecorder &acc) const
{
    if (acc.rpcShardCounters.size() < rpcShardCounters.size())
        acc.rpcShardCounters.resize(rpcShardCounters.size());
    for (size_t s = 0; s < rpcShardCounters.size(); ++s)
        acc.rpcShardCounters[s].addFrom(rpcShardCounters[s]);
    acc.partialAnswerCount += partialAnswerCount;
    acc.failedBatchCount += failedBatchCount;
    acc.scanCounters.addFrom(scanCounters);
}

LatencyQuantiles
LatencyRecorder::quantilesOf(const stats::Histogram &h, double max_sample)
{
    LatencyQuantiles q;
    q.count = h.count();
    q.mean = h.mean();
    q.p50 = h.quantile(0.50);
    q.p95 = h.quantile(0.95);
    q.p99 = h.quantile(0.99);
    q.max = max_sample;
    return q;
}

LatencySnapshot
LatencyRecorder::snapshot() const
{
    LatencySnapshot s;
    s.completed = endToEndHist.count();
    s.batches = batchCount;
    if (batchCount > 0)
        s.meanBatchSize = static_cast<double>(questionCount)
                          / static_cast<double>(batchCount);
    s.queueWait = quantilesOf(queueWaitHist, queueWaitMax);
    s.service = quantilesOf(serviceHist, serviceMax);
    s.endToEnd = quantilesOf(endToEndHist, endToEndMax);
    s.rpcShards = rpcShardCounters;
    s.partialAnswers = partialAnswerCount;
    s.failedBatches = failedBatchCount;
    s.scan = scanCounters;
    return s;
}

RpcShardCounters
LatencySnapshot::rpcTotals() const
{
    RpcShardCounters t;
    for (const RpcShardCounters &c : rpcShards)
        t.addFrom(c);
    return t;
}

namespace {

std::string
quantilesJson(const char *name, const LatencyQuantiles &q,
              const std::string &pad)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"count\": %llu, \"mean\": %.9f, "
                  "\"p50\": %.9f, \"p95\": %.9f, \"p99\": %.9f, "
                  "\"max\": %.9f}",
                  pad.c_str(), name,
                  static_cast<unsigned long long>(q.count), q.mean,
                  q.p50, q.p95, q.p99, q.max);
    return buf;
}

std::string
rpcCountersJson(const RpcShardCounters &c)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"rpcs\": %llu, \"hedges_fired\": %llu, "
                  "\"hedge_wins\": %llu, \"failovers\": %llu, "
                  "\"deadline_misses\": %llu}",
                  static_cast<unsigned long long>(c.rpcs),
                  static_cast<unsigned long long>(c.hedgesFired),
                  static_cast<unsigned long long>(c.hedgeWins),
                  static_cast<unsigned long long>(c.failovers),
                  static_cast<unsigned long long>(c.deadlineMisses));
    return buf;
}

} // namespace

std::string
LatencySnapshot::toJson(int indent) const
{
    const std::string pad(static_cast<size_t>(indent), ' ');
    const std::string in = pad + "  ";
    char head[768];
    std::snprintf(head, sizeof(head),
                  "{\n%s\"arrived\": %llu,\n%s\"rejected\": %llu,\n"
                  "%s\"rejected_full\": %llu,\n"
                  "%s\"rejected_shutdown\": %llu,\n"
                  "%s\"rejected_non_finite\": %llu,\n"
                  "%s\"completed\": %llu,\n%s\"batches\": %llu,\n"
                  "%s\"mean_batch_size\": %.4f,\n",
                  in.c_str(), static_cast<unsigned long long>(arrived),
                  in.c_str(), static_cast<unsigned long long>(rejected),
                  in.c_str(),
                  static_cast<unsigned long long>(rejectedFull),
                  in.c_str(),
                  static_cast<unsigned long long>(rejectedShutdown),
                  in.c_str(),
                  static_cast<unsigned long long>(rejectedNonFinite),
                  in.c_str(), static_cast<unsigned long long>(completed),
                  in.c_str(), static_cast<unsigned long long>(batches),
                  in.c_str(), meanBatchSize);
    std::string out = head;
    out += quantilesJson("queue_wait_seconds", queueWait, in) + ",\n";
    out += quantilesJson("service_seconds", service, in) + ",\n";
    out += quantilesJson("end_to_end_seconds", endToEnd, in) + ",\n";
    char scanBuf[512];
    std::snprintf(scanBuf, sizeof(scanBuf),
                  "%s\"scan\": {\"rows_kept\": %llu, \"rows_skipped\": %llu, "
                  "\"rows_routed\": %llu, \"chunks_bypassed\": %llu, "
                  "\"steps\": %llu, \"questions_streamed\": %llu, "
                  "\"kept_chunks\": %llu, \"inner_s\": %.9f, "
                  "\"softmax_s\": %.9f, \"wsum_s\": %.9f, "
                  "\"busy_s\": %.9f}",
                  in.c_str(), static_cast<unsigned long long>(scan.rowsKept),
                  static_cast<unsigned long long>(scan.rowsSkipped),
                  static_cast<unsigned long long>(scan.rowsRouted),
                  static_cast<unsigned long long>(scan.chunksBypassed),
                  static_cast<unsigned long long>(scan.steps),
                  static_cast<unsigned long long>(scan.questionsStreamed),
                  static_cast<unsigned long long>(scan.keptChunks),
                  scan.innerSeconds, scan.softmaxSeconds, scan.wsumSeconds,
                  scan.busySeconds);
    out += scanBuf;
    // The rpc block only exists for cluster serving; in-process
    // snapshots keep their exact pre-cluster shape.
    if (!rpcShards.empty()) {
        out += ",\n" + in + "\"rpc\": {\n";
        const std::string in2 = in + "  ";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(partialAnswers));
        out += in2 + "\"partial_answers\": " + buf + ",\n";
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(failedBatches));
        out += in2 + "\"failed_batches\": " + buf + ",\n";
        out += in2 + "\"totals\": " + rpcCountersJson(rpcTotals()) + ",\n";
        out += in2 + "\"per_shard\": [";
        for (size_t s = 0; s < rpcShards.size(); ++s) {
            if (s)
                out += ", ";
            out += rpcCountersJson(rpcShards[s]);
        }
        out += "]\n" + in + "}";
    }
    out += "\n" + pad + "}";
    return out;
}

} // namespace mnnfast::serve
