/**
 * @file
 * Shared helpers for the figure-reproduction bench harnesses.
 */

#ifndef MNNFAST_BENCH_BENCH_UTIL_HH
#define MNNFAST_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
#include "core/sharded_knowledge_base.hh"
#include "data/babi.hh"
#include "stats/csv.hh"
#include "train/model.hh"
#include "train/trainer.hh"
#include "util/rng.hh"

namespace mnnfast::bench {

/** Print a uniform harness banner. */
inline void
banner(const char *figure, const char *description)
{
    std::printf("==============================================================\n");
    std::printf("%s\n%s\n", figure, description);
    std::printf("==============================================================\n");
}

/**
 * Optional CSV export: when the MNNFAST_CSV_DIR environment variable
 * is set, harnesses write their data series to <dir>/<name>.csv for
 * external plotting. Returns nullptr (no export) otherwise.
 */
inline std::unique_ptr<stats::CsvWriter>
maybeCsv(const char *name)
{
    const char *dir = std::getenv("MNNFAST_CSV_DIR");
    if (!dir)
        return nullptr;
    return std::make_unique<stats::CsvWriter>(
        std::string(dir) + "/" + name + ".csv");
}

/** A trained model together with its task context. */
struct TrainedTask
{
    std::unique_ptr<data::Vocabulary> vocab;
    std::unique_ptr<data::BabiGenerator> gen;
    std::unique_ptr<train::MemNnModel> model;
    double trainAccuracy = 0.0;
};

/**
 * Train a MemNN on one synthetic bAbI task. Sizes are chosen so a
 * single harness trains in a few seconds while still producing the
 * sparse attention the paper's Figs. 6-7 rely on.
 */
inline TrainedTask
trainTask(data::TaskType task, size_t ed, size_t hops, size_t story_len,
          size_t examples, size_t epochs, uint64_t seed,
          float learning_rate = 0.05f)
{
    TrainedTask t;
    t.vocab = std::make_unique<data::Vocabulary>();
    t.gen = std::make_unique<data::BabiGenerator>(task, *t.vocab, seed);
    const data::Dataset train_set =
        t.gen->generateSet(examples, story_len);

    train::ModelConfig mc;
    mc.vocabSize = t.vocab->size();
    mc.embeddingDim = ed;
    mc.hops = hops;
    mc.maxStory = story_len + 2;
    t.model = std::make_unique<train::MemNnModel>(mc, seed + 1);

    train::TrainConfig tc;
    tc.epochs = epochs;
    tc.learningRate = learning_rate;
    const auto result = train::trainModel(*t.model, train_set, tc);
    t.trainAccuracy = result.trainAccuracy;
    return t;
}

/**
 * Build a knowledge base whose attention profile mimics a trained
 * memory network: `hot_fraction` of the rows correlate strongly with
 * the probe question (dot ~ hot_dot) and the rest are background
 * (dot ~ cold_dot). Used by the FPGA/energy harnesses, which need
 * paper-scale databases (ns = 1000) that exceed the trainer's story
 * length.
 */
inline core::KnowledgeBase
makeAttentionKb(size_t ns, size_t ed, const float *u,
                double hot_fraction, float hot_dot, float cold_dot,
                uint64_t seed)
{
    core::KnowledgeBase kb(ed);
    kb.reserve(ns);
    XorShiftRng rng(seed);

    // Normalize u once; rows are target_dot * u / |u|^2 + orthogonal
    // noise, so u . row ~ target_dot.
    double norm2 = 0.0;
    for (size_t e = 0; e < ed; ++e)
        norm2 += double(u[e]) * u[e];
    if (norm2 == 0.0)
        norm2 = 1.0;

    std::vector<float> min_row(ed), mout_row(ed);
    for (size_t i = 0; i < ns; ++i) {
        const bool hot = rng.uniform() < hot_fraction;
        const float target = hot ? hot_dot : cold_dot;
        for (size_t e = 0; e < ed; ++e) {
            const float noise = rng.uniformRange(-0.05f, 0.05f);
            min_row[e] =
                static_cast<float>(target * u[e] / norm2) + noise;
            mout_row[e] = rng.uniformRange(-0.5f, 0.5f);
        }
        kb.addSentence(min_row.data(), mout_row.data());
    }
    return kb;
}

/**
 * A lossless cluster's answer, in process: one single-group
 * ColumnEngine per shard view skb.shard(s), as net::ShardNode runs
 * it, and their partials merged in shard order with
 * core::mergeStreamPartials, as net::ClusterFrontEnd merges them.
 * The reference a ShardedEngine over `skb` must equal bit for bit.
 */
inline void
shardViewAnswers(const core::ShardedKnowledgeBase &skb,
                 core::EngineConfig cfg, const float *u, size_t nq,
                 float *o)
{
    cfg.threads = 0;
    cfg.scheduleGroups = 1;
    std::vector<core::StreamPartial> parts(skb.shardCount());
    std::vector<core::PartialView> views(parts.size());
    for (size_t s = 0; s < parts.size(); ++s) {
        core::ColumnEngine(skb.shard(s), cfg).inferPartial(u, nq, parts[s]);
        views[s] = parts[s].view();
    }
    core::mergeStreamPartials(views.data(), views.size(), nq,
                              skb.parent().dim(), o);
}

} // namespace mnnfast::bench

#endif // MNNFAST_BENCH_BENCH_UTIL_HH
