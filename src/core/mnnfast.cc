#include "core/mnnfast.hh"

#include <algorithm>

#include "blas/kernels.hh"
#include "train/model.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace mnnfast::core {

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Baseline: return "baseline";
      case EngineKind::Column: return "column";
      case EngineKind::ColumnStreaming: return "column+streaming";
      case EngineKind::MnnFast: return "mnnfast";
    }
    panic("unknown EngineKind %d", static_cast<int>(kind));
}

const char *
routePolicyName(RoutePolicy policy)
{
    switch (policy) {
      case RoutePolicy::None: return "none";
      case RoutePolicy::TopK: return "topk";
      case RoutePolicy::BoundThreshold: return "bound-threshold";
    }
    panic("unknown RoutePolicy %d", static_cast<int>(policy));
}

size_t
effectiveChunkSize(const EngineConfig &cfg, size_t rows)
{
    if (cfg.chunkSize == 0)
        fatal("engine chunk size must be nonzero");
    switch (cfg.routePolicy) {
      case RoutePolicy::None:
        break;
      case RoutePolicy::TopK:
        if (cfg.routeTopK == 0)
            fatal("RoutePolicy::TopK requires routeTopK > 0");
        break;
      case RoutePolicy::BoundThreshold:
        if (!(cfg.routeBoundThreshold >= 0.f
              && cfg.routeBoundThreshold <= 1.f))
            fatal("RoutePolicy::BoundThreshold requires "
                  "routeBoundThreshold in [0, 1], got %g",
                  static_cast<double>(cfg.routeBoundThreshold));
        break;
    }
    return rows > 0 ? std::min(cfg.chunkSize, rows) : cfg.chunkSize;
}

size_t
chunkGroupCount(const EngineConfig &cfg)
{
    // Oversubscribed 4x, so dynamic scheduling has slack to rebalance.
    constexpr size_t kAutoGroupsPerThread = 4;
    if (cfg.scheduleGroups > 0)
        return cfg.scheduleGroups;
    return cfg.threads > 1 ? cfg.threads * kAutoGroupsPerThread : 1;
}

namespace {

std::unique_ptr<InferenceEngine>
makeEngine(EngineKind kind, const KnowledgeBase &kb,
           EngineConfig cfg)
{
    switch (kind) {
      case EngineKind::Baseline:
        return std::make_unique<BaselineEngine>(kb, cfg);
      case EngineKind::Column:
        cfg.streaming = false;
        cfg.skipThreshold = 0.f;
        return std::make_unique<ColumnEngine>(kb, cfg);
      case EngineKind::ColumnStreaming:
        cfg.streaming = true;
        cfg.skipThreshold = 0.f;
        return std::make_unique<ColumnEngine>(kb, cfg);
      case EngineKind::MnnFast:
        cfg.streaming = true;
        if (cfg.skipThreshold <= 0.f)
            cfg.skipThreshold = 0.1f;
        return std::make_unique<ColumnEngine>(kb, cfg);
    }
    panic("unknown EngineKind %d", static_cast<int>(kind));
}

} // namespace

MnnFastSystem::MnnFastSystem(const SystemConfig &cfg, uint64_t seed)
    : cfg(cfg), bTable(cfg.vocabSize, cfg.embeddingDim),
      wMatrix(cfg.vocabSize * cfg.embeddingDim, 0.f)
{
    if (cfg.hops == 0)
        fatal("MnnFastSystem needs at least one hop");

    bTable.randomInit(seed);
    XorShiftRng rng(seed + 1);
    for (float &x : wMatrix)
        x = rng.uniformRange(-0.1f, 0.1f);

    for (size_t h = 0; h < cfg.hops; ++h) {
        aTables.emplace_back(cfg.vocabSize, cfg.embeddingDim);
        cTables.emplace_back(cfg.vocabSize, cfg.embeddingDim);
        aTables.back().randomInit(seed + 2 + 2 * h);
        cTables.back().randomInit(seed + 3 + 2 * h);
        taRows.emplace_back(cfg.maxStory * cfg.embeddingDim, 0.f);
        tcRows.emplace_back(cfg.maxStory * cfg.embeddingDim, 0.f);
        kbs.emplace_back(cfg.embeddingDim, cfg.kbPrecision);
    }
    buildEngines();
}

MnnFastSystem
MnnFastSystem::fromTrained(const train::MemNnModel &model,
                           EngineKind engine,
                           const EngineConfig &engine_cfg)
{
    const auto &mc = model.config();
    SystemConfig cfg;
    cfg.vocabSize = mc.vocabSize;
    cfg.embeddingDim = mc.embeddingDim;
    cfg.hops = mc.hops;
    cfg.maxStory = mc.maxStory;
    cfg.positionEncoding = mc.positionEncoding;
    cfg.engine = engine;
    cfg.engineConfig = engine_cfg;

    MnnFastSystem system(cfg, /*seed=*/1);
    const train::ParamSet &p = model.parameters();
    system.bTable.loadFrom(p.b);
    system.wMatrix = p.w;
    for (size_t h = 0; h < cfg.hops; ++h) {
        system.aTables[h].loadFrom(p.a[h]);
        system.cTables[h].loadFrom(p.c[h]);
        system.taRows[h] = p.ta[h];
        system.tcRows[h] = p.tc[h];
    }
    return system;
}

void
MnnFastSystem::buildEngines()
{
    engines.clear();
    for (size_t h = 0; h < cfg.hops; ++h)
        engines.push_back(makeEngine(cfg.engine, kbs[h],
                                     cfg.engineConfig));
}

void
MnnFastSystem::addStorySentence(const data::Sentence &sentence)
{
    const size_t ed = cfg.embeddingDim;
    std::vector<float> min_row(ed), mout_row(ed);

    for (size_t h = 0; h < cfg.hops; ++h) {
        Embedder a_embed(aTables[h], cfg.positionEncoding);
        Embedder c_embed(cTables[h], cfg.positionEncoding);
        a_embed.embed(sentence, min_row.data());
        c_embed.embed(sentence, mout_row.data());

        // Temporal position: the index this sentence will occupy.
        const size_t pos = std::min(kbs[h].size(), cfg.maxStory - 1);
        blas::axpy(1.0f, taRows[h].data() + pos * ed, min_row.data(),
                   ed);
        blas::axpy(1.0f, tcRows[h].data() + pos * ed, mout_row.data(),
                   ed);

        kbs[h].addSentence(min_row.data(), mout_row.data());
    }
}

void
MnnFastSystem::clearStory()
{
    for (auto &kb : kbs)
        kb.clear();
}

size_t
MnnFastSystem::storySize() const
{
    return kbs.empty() ? 0 : kbs[0].size();
}

data::WordId
MnnFastSystem::ask(const data::Sentence &question)
{
    return askBatch({question})[0];
}

std::vector<data::WordId>
MnnFastSystem::askBatch(const std::vector<data::Sentence> &questions)
{
    const size_t ed = cfg.embeddingDim;
    const size_t nq = questions.size();
    mnn_assert(storySize() > 0, "ask() before any story was added");

    // Embed all questions into the batch state matrix U. The embedder
    // is constructed per call because the table member may relocate
    // when the system object itself is moved.
    Embedder question_embedder(bTable, cfg.positionEncoding);
    std::vector<float> u(nq * ed);
    for (size_t q = 0; q < nq; ++q)
        question_embedder.embed(questions[q], u.data() + q * ed);

    // Hops: u <- u + engine_h(u).
    std::vector<float> o(nq * ed);
    for (size_t h = 0; h < cfg.hops; ++h) {
        engines[h]->inferBatch(u.data(), nq, o.data());
        blas::axpy(1.0f, o.data(), u.data(), nq * ed);
    }

    // Output calculation: logits = W u, arg-max per question.
    std::vector<data::WordId> answers(nq);
    std::vector<float> logits(cfg.vocabSize);
    for (size_t q = 0; q < nq; ++q) {
        blas::gemv(wMatrix.data(), cfg.vocabSize, ed, u.data() + q * ed,
                   logits.data());
        size_t best = 0;
        for (size_t v = 1; v < cfg.vocabSize; ++v)
            if (logits[v] > logits[best])
                best = v;
        answers[q] = static_cast<data::WordId>(best);
    }
    return answers;
}

std::vector<MnnFastSystem::Attribution>
MnnFastSystem::explain(const data::Sentence &question, size_t top_k)
{
    const size_t ed = cfg.embeddingDim;
    const size_t ns = storySize();
    mnn_assert(ns > 0, "explain() before any story was added");

    Embedder question_embedder(bTable, cfg.positionEncoding);
    std::vector<float> u(ed);
    question_embedder.embed(question, u.data());

    // Exact hop-0 attention (stable softmax).
    std::vector<float> p(ns);
    kbs[0].dotMin(u.data(), 1, 0, ns, p.data(), ns);
    blas::softmax(p.data(), ns);

    std::vector<Attribution> all(ns);
    for (size_t i = 0; i < ns; ++i)
        all[i] = {i, p[i]};
    const size_t k = std::min(top_k, ns);
    std::partial_sort(all.begin(), all.begin() + k, all.end(),
                      [](const Attribution &a, const Attribution &b) {
                          return a.probability > b.probability;
                      });
    all.resize(k);
    return all;
}

InferenceEngine &
MnnFastSystem::engine(size_t hop)
{
    mnn_assert(hop < engines.size(), "hop index out of range");
    return *engines[hop];
}

OpBreakdown
MnnFastSystem::totalBreakdown() const
{
    OpBreakdown sum;
    for (const auto &e : engines) {
        sum.innerProduct += e->breakdown().innerProduct;
        sum.softmax += e->breakdown().softmax;
        sum.weightedSum += e->breakdown().weightedSum;
        sum.other += e->breakdown().other;
    }
    return sum;
}

} // namespace mnnfast::core
