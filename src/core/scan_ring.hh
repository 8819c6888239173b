/**
 * @file
 * A cooperative circular scan over one knowledge base (in serving, one
 * shard view): batches ride a ring of its chunks, each joining at the
 * next chunk boundary instead of waiting for the batch in flight —
 * cooperative scans in databases (Zukowski et al., VLDB 2007) applied
 * to the paper's column dataflow.
 *
 * Each step streams one chunk for every rider at once: the riders'
 * questions share that chunk's one KnowledgeBase::dotMin call, so the
 * knowledge base is read once per revolution however many batches
 * ride. A rider rides exactly one revolution, from the chunk it
 * joined at round to the chunk before it.
 *
 * Bit identity. A rider's partial is the accumulator state of the
 * single-group pass ColumnEngine(kb, scheduleGroups 1) makes for its
 * batch, bit for bit, whatever chunk it joined at:
 *  - a (question, row) logit depends neither on the other questions
 *    of a dotMin call nor on its strips or look-ahead (kernels.hh);
 *  - phases 2 and 3 (the running shift, the zero-skip running sum)
 *    depend on chunk order, so they run per rider in canonical order
 *    through the engine's own ChunkSweep::accumulate: a rider that
 *    joined at chunk 0 runs them on each chunk's tile at once; one
 *    that joined at chunk j > 0 keeps its logits of chunks j..n-1,
 *    runs chunks 0..j-1 on the tile after the wrap, then replays the
 *    kept ones;
 *  - routing selects per question over the ring's chunks
 *    (selectChunks), which are the engine's single group.
 *
 * An idle ring restarts at chunk 0, so a batch that finds it idle
 * keeps no logits and does exactly the engine's work. Kept logits take
 * at most kb.size() floats per question.
 *
 * Threading: none inside. One thread at a time may attach and step
 * (serve's scan backend hands each ring to one worker per step).
 */

#ifndef MNNFAST_CORE_SCAN_RING_HH
#define MNNFAST_CORE_SCAN_RING_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/column_engine.hh"

namespace mnnfast::core {

/**
 * One batch's ride on a ScanRing. The caller sets `u` and `nq` before
 * attach() and reads `partial` once step() reports the ride done; the
 * other fields are the ring's.
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

  private:
    friend class ScanRing;
    size_t left = 0;                 ///< steps left in the revolution
    std::vector<uint8_t> sel;        ///< routing mask, nq x chunks
    std::unique_ptr<float[]> logits; ///< kept logits of chunks >= joinedAt
    std::vector<size_t> keptAt;      ///< their offsets, per chunk
};

/** A cooperative circular scan over one knowledge base. See header. */
class ScanRing
{
  public:
    /**
     * @param kb          Rows the ring streams; must outlive it.
     * @param cfg         Engine tunables (chunk size, streaming, zero-
     *                    skip, routing, chunkObserver); threads and
     *                    scheduleGroups are ignored.
     * @param first_chunk Chunk number of kb's first chunk for the
     *                    observer (a shard's first chunk in its parent).
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

  private:
    /** Rows of chunk c, with the look-ahead reach into chunk c + 1
     *  when streaming and one of `rs` streams it. */
    ChunkSpan span(size_t c, const std::vector<ScanRider *> &rs) const;

    /** r's questions that stream chunk c, into q; returns the count. */
    size_t select(const ScanRider &r, size_t c, uint32_t *q) const;

    /** Phases 2-3 of r's kept chunks, in order, after the wrap. */
    void replay(ScanRider &r);

    /** Phases 2-3 of chunk `rows` for r's n questions of `t`. */
    void accumulate(const ChunkSweep &sweep, ChunkSpan rows, float *t,
                    size_t tstride, size_t n, const uint32_t *sel,
                    ScanRider &r);

    const KnowledgeBase &kb;
    EngineConfig cfg;
    size_t nChunks;
    size_t firstChunk;
    std::unique_ptr<ChunkSummaryIndex> index; ///< routing only
    size_t cursor = 0;
    std::vector<ScanRider *> riders; ///< attach order

    // Step scratch, reused (capacity retained).
    std::vector<float> uTile;   ///< questions streaming the chunk
    std::vector<float> tile;    ///< their logits, stride chunkSize
    std::vector<uint32_t> qsel; ///< their indices, rider by rider
    std::vector<size_t> nbOf;   ///< how many per rider
    std::vector<float> subO;    ///< compaction state (sub-batch)
    std::vector<double> subSum;
    std::vector<float> subMax;
    runtime::ScratchArena scratch; ///< selection temporaries
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_SCAN_RING_HH
