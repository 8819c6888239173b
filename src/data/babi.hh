/**
 * @file
 * Synthetic bAbI-style question-answering task generators.
 *
 * The paper measures the zero-skipping tradeoff (Fig. 7) and the
 * probability-vector sparsity (Fig. 6) on Facebook's bAbI tasks. The
 * original dataset is not available offline, so this module generates
 * stories from the same kind of simulated micro-world the bAbI suite
 * was produced from (actors moving between locations, picking up and
 * dropping objects), with per-example supporting-fact annotations.
 * Five task families mirror representative bAbI tasks:
 *
 *  - SingleSupportingFact (bAbI task 1): "where is <actor>?"
 *  - TwoSupportingFacts   (bAbI task 2): "where is the <object>?"
 *  - Counting             (bAbI task 7): "how many objects is X carrying?"
 *  - YesNo                (bAbI task 6): "is <actor> in the <location>?"
 *  - ListObjects          (bAbI task 8, single-answer variant):
 *                          "what is <actor> carrying?"
 *  - Negation             (bAbI task 9): stories mix positive facts
 *                          with "<actor> is not in the <location>";
 *                          the question probes the latest fact.
 *  - Conjunction          (bAbI task 8's compound subjects): some
 *                          moves are joint ("mary and john went to
 *                          the park"); "where is <actor>?"
 */

#ifndef MNNFAST_DATA_BABI_HH
#define MNNFAST_DATA_BABI_HH

#include <cstdint>
#include <string>
#include <vector>

#include "data/vocabulary.hh"
#include "util/rng.hh"

namespace mnnfast::data {

/** A sentence is a sequence of word ids (bag-of-words order ignored). */
using Sentence = std::vector<WordId>;

/** The five synthetic task families. */
enum class TaskType {
    SingleSupportingFact,
    TwoSupportingFacts,
    Counting,
    YesNo,
    ListObjects,
    Negation,
    Conjunction,
};

/** Human-readable task name (for tables and logs). */
const char *taskName(TaskType type);

/** All task families, for sweeps. */
std::vector<TaskType> allTasks();

/** One QA example: a story, a question, its answer and provenance. */
struct Example
{
    std::vector<Sentence> story;
    Sentence question;
    WordId answer = 0;
    /** Indices of the story sentences that determine the answer. */
    std::vector<size_t> supportingFacts;
};

/** A set of examples over a shared vocabulary. */
struct Dataset
{
    std::vector<Example> examples;

    size_t size() const { return examples.size(); }
};

/**
 * Generates examples of one task family from a simulated micro-world.
 * All generators share one Vocabulary instance (supplied by the
 * caller) so a single embedding table can serve every task.
 */
class BabiGenerator
{
  public:
    /**
     * @param type  Task family to generate.
     * @param vocab Shared vocabulary; entity/action words are added.
     * @param seed  Deterministic RNG seed.
     */
    BabiGenerator(TaskType type, Vocabulary &vocab, uint64_t seed);

    /**
     * Generate one example whose story has exactly `story_len`
     * sentences and is guaranteed answerable.
     */
    Example generate(size_t story_len);

    /** Generate `count` examples of `story_len` sentences each. */
    Dataset generateSet(size_t count, size_t story_len);

    /**
     * The closed set of words that can appear as answers for this
     * task; the output layer is scored over this set.
     */
    const std::vector<WordId> &answerCandidates() const
    {
        return candidates;
    }

    /** The shared vocabulary. */
    const Vocabulary &vocabulary() const { return vocab; }

  private:
    struct World;

    Sentence makeMove(World &w, size_t actor);
    Sentence makePickup(World &w, size_t actor);
    Sentence makeDrop(World &w, size_t actor);
    Sentence makeEvent(World &w);
    Example generateNegation(size_t story_len);
    Example generateConjunction(size_t story_len);

    TaskType type;
    Vocabulary &vocab;
    XorShiftRng rng;

    std::vector<WordId> actorIds;
    std::vector<WordId> locationIds;
    std::vector<WordId> objectIds;
    std::vector<WordId> numberIds; // "none", "one", ...
    WordId yesId = kNoWord;
    WordId noId = kNoWord;

    // Action / filler words.
    WordId wentId, toId, theId, pickedId, upId, droppedId;
    WordId whereId, isId, howId, manyId, objectsId, carryingId, inId,
        whatId, notId, andId;

    std::vector<WordId> candidates;
};

} // namespace mnnfast::data

#endif // MNNFAST_DATA_BABI_HH
