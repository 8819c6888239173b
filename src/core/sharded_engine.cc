#include "core/sharded_engine.hh"

#include <algorithm>

#include "runtime/parallel_for.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace mnnfast::core {

ShardedEngine::ShardedEngine(const ShardedKnowledgeBase &skb,
                             const EngineConfig &cfg)
    : skb(skb), cfg(cfg), pool(cfg.threads)
{
    if (cfg.chunkSize == 0)
        fatal("sharded engine chunk size must be nonzero");
    const size_t effective =
        std::min(cfg.chunkSize, skb.parent().size());
    if (effective != skb.chunkSize())
        fatal("sharded engine chunk size %zu does not match the "
              "partition's %zu — shard boundaries would not be "
              "chunk-aligned",
              effective, skb.chunkSize());

    engines.reserve(skb.shardCount());
    for (size_t s = 0; s < skb.shardCount(); ++s) {
        EngineConfig scfg = cfg;
        scfg.threads = 0;        // the scatter pool is the parallelism
        scfg.scheduleGroups = 1; // one group -> exact shard partial
        if (cfg.chunkObserver) {
            // Translate shard-local chunk indices back to global ones
            // so observers see the same chunk numbering as a single
            // engine; the shard index doubles as the worker slot
            // (unique among concurrently running shards).
            const size_t chunk0 = skb.rows(s).begin / skb.chunkSize();
            auto inner = cfg.chunkObserver;
            scfg.chunkObserver = [inner, s, chunk0](size_t,
                                                    size_t chunk) {
                inner(s, chunk0 + chunk);
            };
        }
        engines.push_back(
            std::make_unique<ColumnEngine>(skb.shard(s), scfg));
    }
    parts.resize(engines.size());
    views.resize(parts.size());

    displayName = "sharded[" + std::to_string(engines.size()) + "]+" +
                  engines.front()->name();
}

const char *
ShardedEngine::name() const
{
    return displayName.c_str();
}

const ColumnEngine &
ShardedEngine::shardEngine(size_t s) const
{
    mnn_assert(s < engines.size(), "shard index out of range");
    return *engines[s];
}

void
ShardedEngine::inferBatch(const float *u, size_t nq, float *o)
{
    Timer timer;

    // Scatter: each shard's engine streams its partition into its own
    // partial slot. Shards are independent and slot-isolated, so the
    // schedule decides wall-clock only, never the result.
    auto runShard = [&](size_t s) {
        engines[s]->inferPartial(u, nq, parts[s]);
    };
    runtime::parallelForDynamic(
        pool, engines.size(), 1, [&](size_t, runtime::Range r) {
            for (size_t s = r.begin; s < r.end; ++s)
                runShard(s);
        });

    gather(nq, o);

    // Aggregate accounting: drain the shard engines' phase times and
    // counters into this engine's, so callers see whole-KB totals.
    // Shard phase seconds overlap in wall-clock across pool workers;
    // dividing by the worker count gives the effective contribution
    // (exact when the scatter runs inline).
    const double denom =
        static_cast<double>(std::max<size_t>(1, pool.threadCount()));
    double attributed = 0.0;
    for (auto &e : engines) {
        const OpBreakdown &b = e->breakdown();
        times.innerProduct += b.innerProduct / denom;
        times.softmax += b.softmax / denom;
        times.weightedSum += b.weightedSum / denom;
        attributed += b.total() / denom;
        e->clearBreakdown();
    }
    times.other += std::max(0.0, timer.seconds() - attributed);

    uint64_t scratch_bytes = 0;
    for (auto &e : engines) {
        for (const auto &kv : e->counters().all()) {
            if (kv.first == "intermediate_bytes")
                scratch_bytes += kv.second.value();
            else
                counterGroup[kv.first].add(kv.second.value());
        }
        e->counters().resetAll();
    }
    counterGroup["intermediate_bytes"].reset();
    counterGroup["intermediate_bytes"].add(scratch_bytes);
    // The deferred division happens once, in the gather.
    counterGroup["div_ops"].add(nq * skb.parent().dim());
}

void
ShardedEngine::gather(size_t nq, float *o)
{
    // inferPartial may have moved the buffers; refresh the views.
    for (size_t s = 0; s < parts.size(); ++s)
        views[s] = parts[s].view();
    mergeStreamPartials(views.data(), views.size(), nq,
                        skb.parent().dim(), o);
}

} // namespace mnnfast::core
