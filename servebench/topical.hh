/**
 * @file
 * The benchmark's seeded "topical" input generator.
 *
 * A story is a sequence of runs, one topic per run, each run a few
 * engine chunks long. Every M_IN row is its run's topic centroid plus
 * uniform noise; every M_OUT row is uniform noise. A question is the
 * centroid of a Zipf-drawn topic plus noise. Attention over such a KB
 * is peaked (same-topic rows carry nearly all the softmax mass), as in
 * a trained memory network, so zero-skip keeps a minority of rows and
 * chunk routing has real signal to use.
 *
 * Everything is a pure function of the seed: a row's values depend
 * only on (seed, row index), so the KB can be produced in blocks of
 * any size, by any process, and come out bit-identical.
 */

#ifndef SERVEBENCH_TOPICAL_HH
#define SERVEBENCH_TOPICAL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace servebench {

class TopicalGenerator
{
  public:
    /**
     * @param seed      input seed (the benchmark's --seed)
     * @param sentences KB rows
     * @param dim       embedding dimension
     * @param chunk     engine chunk size; runs span 1.5 to 4 chunks
     * @param topics    number of topics
     */
    TopicalGenerator(uint64_t seed, size_t sentences, size_t dim,
                     size_t chunk, size_t topics);

    /** Rows [begin, begin + n) into min / mout (n x dim each). */
    void rows(size_t begin, size_t n, float *min, float *mout) const;

    /** `n` questions (n x dim), topics Zipf(1.1)-distributed. */
    std::vector<float> questions(size_t n) const;

  private:
    uint32_t rowTopic(size_t i) const;

    uint64_t seed;
    size_t ed;
    std::vector<float> centroids;    ///< topics x dim
    std::vector<size_t> runStart;    ///< first row of each run
    std::vector<uint32_t> runTopic;  ///< topic of each run
};

/** Poisson arrival offsets (seconds) at `rate` per second over
 *  `seconds`, from `seed`. */
std::vector<double> poissonSchedule(uint64_t seed, double rate,
                                    double seconds);

} // namespace servebench

#endif // SERVEBENCH_TOPICAL_HH
