/**
 * @file
 * The chunk walk of the column dataflow (paper Fig. 5b) and its
 * partials: a cooperative circular scan over one knowledge base (one
 * chunk group of a ColumnEngine, or in serving one shard view).
 * Batches ride a ring of its chunks, each joining at the next chunk
 * boundary instead of waiting for the batch in flight — cooperative
 * scans in databases (Zukowski et al., VLDB 2007) applied to the
 * paper's column dataflow. A ColumnEngine pass is one ride per chunk
 * group, each on an idle ring, so this is the only loop over a
 * group's chunks.
 *
 * Each step streams one chunk for every rider at once: the riders'
 * questions share that chunk's one KnowledgeBase::dotMin call, so the
 * knowledge base is read once per revolution however many batches
 * ride. A rider rides exactly one revolution, from the chunk it
 * joined at round to the chunk before it.
 *
 * Bit identity. A rider's partial is the accumulator state of the
 * single-group pass ColumnEngine(kb, scheduleGroups 1) makes for its
 * batch — which is a ride that found the ring idle — bit for bit,
 * whatever chunk it joined at:
 *  - a (question, row) logit depends neither on the other questions
 *    of a dotMin call nor on its strips or look-ahead (kernels.hh);
 *  - phases 2 and 3 (the running shift, the zero-skip running sum)
 *    depend on chunk order, so they run per rider in canonical order:
 *    a rider that joined at chunk 0 runs them on each chunk's tile at
 *    once; one that joined at chunk j > 0 keeps its logits of chunks
 *    j..n-1, runs chunks 0..j-1 on the tile after the wrap, then
 *    replays the kept ones;
 *  - routing selects per question over the ring's chunks, which are
 *    the engine's single group.
 *
 * An idle ring restarts at chunk 0, so a batch that finds it idle
 * keeps no logits and does exactly the engine's work.
 *
 * Kept logits live in one pool per ring, not in the riders: a list of
 * 2 MiB pages (AlignedBuffer, kHugePageBytes; a page is larger only
 * when one (rider, chunk) tile of nq x chunk floats needs it). Each
 * step bump-allocates a keeping rider's tile in the current page, the
 * rider records one tile per kept chunk, and each page counts its
 * live tiles. A page goes back to the ring's free list when the last
 * rider holding a tile in it finishes its replay; free pages are
 * reused and never handed back to the OS, so a ring that serves the
 * same load again takes no page faults. Rides end in attach order, so
 * every tile handed out after the oldest keeping rider's first one is
 * live: the pages in use hold the live tiles (and at most a tile's
 * worth of unused tail each), plus the page that first tile began in.
 * The pool's footprint (keptBytes) is the most pages that were ever
 * in use at once: at worst about (riders at once) x (their questions)
 * x kb.size() x 4 B, plus a page.
 *
 * Threading: none inside. One thread at a time may attach and step
 * (ColumnEngine hands each group's ring to one worker per pass,
 * serve::ScanBackend — LiveServer's in-process scan, a cluster node — to
 * one worker per step).
 */

#ifndef MNNFAST_CORE_SCAN_RING_HH
#define MNNFAST_CORE_SCAN_RING_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/chunk_summary_index.hh"
#include "core/config.hh"
#include "core/knowledge_base.hh"
#include "runtime/scratch_arena.hh"
#include "util/aligned_buffer.hh"

namespace mnnfast::core {

/**
 * Read-only view of one partial's state for nq questions, before the
 * lazy-softmax division: per question a weighted-sum accumulator and
 * an exp-sum, both scaled by 2^-runMax, where runMax is the running
 * shift round(max logit * log2 e) (see column_engine.hh; -inf only for
 * a question that saw no row). Views let the one merge read partials
 * wherever they live, without copies.
 */
struct PartialView
{
    const float *o;       ///< nq x ed weighted-sum accumulators
    const double *expSum; ///< nq exp sums
    const float *runMax;  ///< nq running shifts
};

/**
 * The merged state of one engine pass over (a shard of) the knowledge
 * base, *before* the lazy-softmax division (see PartialView).
 * Partials from disjoint sentence ranges merge with exact
 * power-of-two scales:
 *
 *   k  = max(k_a, k_b)
 *   S  = S_a * 2^(k_a - k) + S_b * 2^(k_b - k)
 *   o  = o_a * 2^(k_a - k) + o_b * 2^(k_b - k)
 *
 * Produced by a ScanRing ride and by ColumnEngine::inferPartial,
 * merged by mergeStreamPartials in canonical shard order.
 */
struct StreamPartial
{
    std::vector<float> o;       ///< nq x ed weighted-sum accumulators
    std::vector<double> expSum; ///< nq running exp sums
    std::vector<float> runMax;  ///< nq running shifts
    size_t nq = 0;              ///< questions this partial covers

    PartialView view() const
    {
        return {o.data(), expSum.data(), runMax.data()};
    }
};

/**
 * The one partial merge. Folds question q of `parts`, in the order
 * given, into the undivided accumulator `oq` (ed floats, overwritten)
 * with the algebra above, stores the merged shift in `*runMax`, and
 * returns the merged exp sum. A partial whose exp sum is 0 saw no row
 * for q and is skipped. ColumnEngine merges its chunk groups with it
 * (a ShardedEngine's groups are its shards), LiveServer's scan
 * its rings' partials and net::ClusterFrontEnd its shard nodes'
 * partials, so every layer replays the same operation sequence.
 */
double foldPartials(const PartialView *parts, size_t nParts, size_t q,
                    size_t ed, float *oq, float *runMax);

/**
 * Fold every question of `parts` (foldPartials) into `o` (nq x ed)
 * and apply the single deferred lazy-softmax division. The order of
 * `parts` must be canonical (group or shard order) for bit-identity.
 */
void mergeStreamPartials(const PartialView *parts, size_t nParts,
                         size_t nq, size_t ed, float *o);

/**
 * Size `out` for nq questions and fold every question of `parts`
 * (foldPartials) into it, without the division, which the gather
 * applies after the cross-shard merge: the partial a shard hands on
 * (ColumnEngine::inferPartial, net::ShardNode). With a single part
 * this is a bit-exact copy of its accumulators (scale 2^0 = 1,
 * 0 + x and 1 * x are exact), the property the sharded bit-identity
 * guarantee rests on.
 */
void foldStreamPartials(const PartialView *parts, size_t nParts,
                        size_t nq, size_t ed, StreamPartial &out);

/** Seconds spent in each phase of the chunked pass. */
struct PhaseSeconds
{
    double inner = 0.0;   ///< phase 1: inner products
    double softmax = 0.0; ///< phase 2: shifted exp and rescale
    double wsum = 0.0;    ///< phase 3: weighted sum
};

/** What a ring's steps did since it was built or its totals taken. */
struct ScanTotals
{
    uint64_t kept = 0;    ///< (question, row) weighted-sum rows kept
    uint64_t skipped = 0; ///< ... and zero-skipped
    /** (question, row) pairs streamed in phase 1 (routing only). */
    uint64_t routedRows = 0;
    /** Chunks bypassed because no question selected them. */
    uint64_t bypassed = 0;
    uint64_t steps = 0; ///< chunks stepped, bypassed ones included
    /** Questions in each step's phase-1 (dotMin) call, summed. */
    uint64_t questionsStreamed = 0;
    /** (question, chunk) logit tiles kept for a replay. */
    uint64_t keptChunks = 0;
    PhaseSeconds times;

    ScanTotals &operator+=(const ScanTotals &t)
    {
        kept += t.kept;
        skipped += t.skipped;
        routedRows += t.routedRows;
        bypassed += t.bypassed;
        steps += t.steps;
        questionsStreamed += t.questionsStreamed;
        keptChunks += t.keptChunks;
        times.inner += t.times.inner;
        times.softmax += t.times.softmax;
        times.wsum += t.times.wsum;
        return *this;
    }
};

/**
 * One batch's ride on a ScanRing. The caller sets `u` and `nq` before
 * attach() and reads `partial` once step() reports the ride done; the
 * other fields are the ring's. A rider may ride again once done; its
 * partial and mask keep their capacity, so a rider that rides again
 * with no more questions allocates nothing. Its kept logits are tiles
 * of the ring's pool (see the file header), returned when it replays.
 */
struct ScanRider
{
    ScanRider() = default;
    /** A ring holds the rider's address for the ride. */
    ScanRider(const ScanRider &) = delete;
    ScanRider &operator=(const ScanRider &) = delete;

    const float *u = nullptr; ///< nq x ed questions, valid for the ride
    size_t nq = 0;
    /** The ride's result: undivided single-group accumulators. */
    StreamPartial partial;
    /** Chunk the rider joined at. */
    size_t joinedAt = 0;
    /** Logit floats kept for the replay (0 iff joinedAt is 0). */
    size_t keptFloats = 0;

    /** Bytes the rider retains between rides: partial and mask. */
    size_t retainedBytes() const;

  private:
    friend class ScanRing;

    /** One kept chunk's logits, a tile of page `page` of the ring's
     *  pool (null when none of the rider's questions streamed it). */
    struct KeptTile
    {
        float *logits;
        size_t page;
    };

    size_t left = 0;            ///< steps left in the revolution
    std::vector<uint8_t> sel;   ///< routing mask, nq x chunks
    std::vector<KeptTile> kept; ///< per chunk from joinedAt
};

/** A cooperative circular scan over one knowledge base. See header. */
class ScanRing
{
  public:
    /**
     * @param kb          Rows the ring streams; non-empty, must outlive
     *                    the ring un-mutated.
     * @param cfg         Engine tunables (chunk size, streaming, zero-
     *                    skip, routing, chunkObserver), checked and
     *                    clamped by effectiveChunkSize; threads and
     *                    scheduleGroups are ignored.
     * @param first_chunk Chunk number of kb's first chunk for the
     *                    observer (a group's first chunk in its parent).
     */
    ScanRing(const KnowledgeBase &kb, const EngineConfig &cfg,
             size_t first_chunk = 0);

    ScanRing(const ScanRing &) = delete;
    ScanRing &operator=(const ScanRing &) = delete;

    /** Join `r` at the next step's chunk: position(), or chunk 0 when
     *  the ring is idle. `r` must stay put until its ride is done. */
    void attach(ScanRider &r);

    /**
     * Stream the chunk at position() for every rider and advance;
     * riders whose revolution ended are removed and appended to
     * `done`, their partials complete. `worker` is passed to the
     * observer. The ring must not be idle.
     */
    void step(size_t worker, std::vector<ScanRider *> &done);

    /** True when no rider is attached. */
    bool idle() const { return riders.empty(); }

    /** The chunk the next step streams. */
    size_t position() const { return cursor; }

    /** Chunks per revolution. */
    size_t chunkCount() const { return nChunks; }

    /** The steps' totals since the last call (or construction). */
    ScanTotals takeTotals();

    /** Bytes of step scratch the ring retains between steps. */
    size_t scratchBytes() const;

    /** Bytes of the kept-logit pool: every page, in use or free. */
    size_t keptBytes() const;

  private:
    /** True when the look-ahead of chunk c may reach into chunk c + 1:
     *  streaming, c + 1 in this revolution, and one of the n riders
     *  `rs` streams it. */
    bool reachesNext(size_t c, ScanRider *const *rs, size_t n) const;

    /** r's questions that stream chunk c, into q; returns the count. */
    size_t select(const ScanRider &r, size_t c, uint32_t *q) const;

    /** Phases 2-3 of r's kept chunks, in order, after the wrap; then
     *  its tiles go back to their pages. */
    void replay(ScanRider &r);

    /** A pool tile of n floats: in the current page, else in the
     *  smallest free page that holds it, else in a new page. */
    ScanRider::KeptTile keep(size_t n);

    /** One page of the kept-logit pool. */
    struct KeptPage
    {
        AlignedBuffer<float> floats;
        size_t used = 0; ///< floats handed out since it was last empty
        size_t live = 0; ///< tiles handed out and not yet replayed
    };

    const KnowledgeBase &kb;
    EngineConfig cfg;
    size_t nChunks;
    size_t firstChunk;
    std::unique_ptr<ChunkSummaryIndex> index; ///< routing only
    size_t cursor = 0;
    std::vector<ScanRider *> riders; ///< attach order
    ScanTotals totals;

    // Step scratch, reused (capacity retained).
    std::vector<float> uTile;   ///< questions streaming the chunk
    std::vector<float> tile;    ///< their logits, stride chunkSize
    std::vector<uint32_t> qsel; ///< their indices, rider by rider
    std::vector<size_t> nbOf;   ///< how many per rider
    StreamPartial sub;          ///< compacted sub-batch state
    runtime::ScratchArena scratch; ///< selection temporaries

    // The kept-logit pool (see header).
    std::vector<KeptPage> pages;
    std::vector<size_t> freePages; ///< pages with no live tile
    size_t current = 0;            ///< the page keep() bumps in
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_SCAN_RING_HH
