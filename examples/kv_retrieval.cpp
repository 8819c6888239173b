/**
 * @file
 * Key-value fact retrieval on the MnnFast engines.
 *
 * The paper's motivating applications include large-scale QA over
 * knowledge sources (it cites Key-Value Memory Networks as the
 * reading-documents variant). The MnnFast engines support this
 * directly: M_IN holds *key* embeddings (subject + relation) and
 * M_OUT holds *value* embeddings (the object entity), so attention
 * retrieves the value whose key matches the query.
 *
 * This demo stores 50,000 synthetic (subject, relation, object)
 * facts with random (hence near-orthogonal) entity embeddings; no
 * training is needed for sharp retrieval, which also makes it a
 * clean showcase for zero-skipping: attention is genuinely 1-hot.
 *
 * Build & run:  ./build/examples/kv_retrieval
 */

#include <cstdio>
#include <vector>

#include "blas/kernels.hh"
#include "core/column_engine.hh"
#include "core/embedding_table.hh"
#include "core/knowledge_base.hh"
#include "util/rng.hh"
#include "util/timer.hh"

using namespace mnnfast;

int
main()
{
    const size_t n_entities = 5000;
    const size_t n_relations = 50;
    const size_t n_facts = 50'000;
    const size_t ed = 64;

    std::printf("KV fact retrieval: %zu facts over %zu entities x %zu "
                "relations, ed=%zu\n\n",
                n_facts, n_entities, n_relations, ed);

    // Random entity/relation embeddings: high-dimensional random
    // vectors are nearly orthogonal, so key matching is sharp.
    core::EmbeddingTable entities(n_entities, ed);
    core::EmbeddingTable relations(n_relations, ed);
    entities.randomInit(1, 1.0f);
    relations.randomInit(2, 1.0f);

    // Store facts: key = subject + relation, value = object.
    XorShiftRng rng(3);
    struct Fact
    {
        data::WordId subject, relation, object;
    };
    std::vector<Fact> facts(n_facts);
    core::KnowledgeBase kb(ed);
    kb.reserve(n_facts);
    {
        std::vector<float> key(ed), value(ed);
        for (Fact &f : facts) {
            f.subject = data::WordId(rng.below(n_entities));
            f.relation = data::WordId(rng.below(n_relations));
            f.object = data::WordId(rng.below(n_entities));
            for (size_t e = 0; e < ed; ++e) {
                key[e] = entities.row(f.subject)[e]
                       + relations.row(f.relation)[e];
                value[e] = entities.row(f.object)[e];
            }
            kb.addSentence(key.data(), value.data());
        }
    }

    // Query with the full MnnFast engine (zero-skipping pays off:
    // only the matching facts carry attention mass).
    core::EngineConfig cfg;
    cfg.chunkSize = 1000;
    cfg.streaming = true;
    cfg.skipThreshold = 0.05f;
    core::ColumnEngine engine(kb, cfg);

    const size_t n_queries = 200;
    size_t correct = 0;
    std::vector<float> query(ed), response(ed);
    Timer timer;
    for (size_t i = 0; i < n_queries; ++i) {
        const Fact &f = facts[rng.below(facts.size())];
        for (size_t e = 0; e < ed; ++e) {
            query[e] = entities.row(f.subject)[e]
                     + relations.row(f.relation)[e];
        }
        engine.infer(query.data(), response.data());

        // Decode: nearest entity embedding to the response vector.
        size_t best = 0;
        float best_dot = -1e30f;
        for (size_t v = 0; v < n_entities; ++v) {
            const float d =
                blas::dot(entities.row(data::WordId(v)),
                          response.data(), ed);
            if (d > best_dot) {
                best_dot = d;
                best = v;
            }
        }
        correct += best == f.object;
    }
    const double ms = timer.millis();

    const auto &counters = engine.counters();
    const double kept = double(counters.value("rows_kept"));
    const double skipped = double(counters.value("rows_skipped"));
    std::printf("retrieval accuracy: %.1f%% over %zu queries\n",
                100.0 * correct / n_queries, n_queries);
    std::printf("zero-skipping:      %.2f%% of weighted-sum rows "
                "skipped\n", 100.0 * skipped / (kept + skipped));
    std::printf("throughput:         %.0f queries/s (engine '%s', "
                "single thread)\n", n_queries / (ms / 1e3),
                engine.name());

    std::printf("\nNote: duplicate (subject, relation) pairs may map "
                "to several objects; attention then returns the "
                "mixture, so accuracy below 100%% is expected.\n");
    return 0;
}
