/**
 * @file
 * The cooperative scan as a service: one core::ScanRing per knowledge-
 * base view, stepped one chunk at a time by a pool of worker threads,
 * that any number of in-flight jobs ride at once (DESIGN.md §9, §12).
 *
 * A job is one batch of questions with one rider per ring. submit()
 * attaches every ride at its ring's next chunk boundary; once each
 * ride has ridden its ring one revolution, a worker calls the job's
 * settled() with the rings' *undivided* partials in the rides — each
 * ride's partial is the single-group pass over its view, bit for bit,
 * whatever chunk it joined at (scan_ring.hh). What a job does with its
 * partials is its owner's business: LiveServer's in-process scan
 * merges a batch's partials into answers, and a net::ShardNode sends
 * its one ring's partial back over the wire.
 *
 * Rings: one per shard view of a core::ShardedKnowledgeBase (chunk
 * numbers as in the parent, for the observer), or one over a whole
 * knowledge base. A ring is stepped by one worker at a time; workers
 * take rings with work in rotation, so no ring starves, and more
 * workers than rings only wait.
 *
 * Completion: rides on one ring finish in attach order, since each
 * rides exactly one revolution, so single-ring jobs settle in submit
 * order. settled() runs on the worker, outside the backend's lock; the
 * ring it came from waits meanwhile, so it should not block (a node
 * hands its response to a per-connection sender).
 *
 * Counters: every step's core::ScanTotals (rows kept, skipped and
 * routed, chunks bypassed, steps, questions streamed, chunks kept,
 * phase seconds) add into totals(), which a serving layer reads for
 * its snapshot, with the workers' busy seconds: the wall time spent
 * attaching riders and stepping rings, timed once per step.
 *
 * Teardown: the destructor stops the workers after their current
 * step; jobs still riding then never settle, so an owner that needs
 * every job settled waits for that first.
 */

#ifndef MNNFAST_SERVE_SCAN_BACKEND_HH
#define MNNFAST_SERVE_SCAN_BACKEND_HH

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "core/config.hh"
#include "core/knowledge_base.hh"
#include "core/scan_ring.hh"
#include "core/sharded_knowledge_base.hh"
#include "runtime/thread_pool.hh"

namespace mnnfast::serve {

/** One batch's rides on every ring of a ScanBackend. See file header. */
class ScanJob
{
  public:
    /** A job with one ride per ring of a backend with `rings` rings. */
    explicit ScanJob(size_t rings);
    virtual ~ScanJob() = default;

    /** The backend holds the job's address while it rides. */
    ScanJob(const ScanJob &) = delete;
    ScanJob &operator=(const ScanJob &) = delete;

    /** The ride on ring r: set its u and nq before submit; its partial
     *  is complete when settled() runs. */
    core::ScanRider &ride(size_t r) { return rides[r]; }

  protected:
    /**
     * Called once per submit, by a worker, when every ride is done,
     * outside the backend's lock. From here on the job may be
     * submitted again or destroyed.
     */
    virtual void settled() = 0;

  private:
    friend class ScanBackend;

    struct Ride : core::ScanRider
    {
        ScanJob *job = nullptr;
    };

    std::vector<Ride> rides;
    size_t pending = 0; ///< rides not done (guarded by the backend)
};

/** Rings stepped by a worker pool, ridden by ScanJobs. See header. */
class ScanBackend
{
  public:
    /**
     * One ring per shard view of `skb`, with cfg's chunk size set to
     * the partition's. `skb` must outlive the backend.
     */
    ScanBackend(const core::ShardedKnowledgeBase &skb,
                const core::EngineConfig &cfg, size_t workers);

    /** One ring over `kb` (non-empty; must outlive the backend). */
    ScanBackend(const core::KnowledgeBase &kb, const core::EngineConfig &cfg,
                size_t workers);

    ~ScanBackend();

    ScanBackend(const ScanBackend &) = delete;
    ScanBackend &operator=(const ScanBackend &) = delete;

    /**
     * Attach `job`'s rides, each at its ring's next chunk. The job
     * must have a ride per ring, each with questions, and must not be
     * riding already. Thread-safe; never blocks on the scan.
     */
    void submit(ScanJob &job);

    /** Every step's ring totals, and the workers' busy seconds. */
    struct Totals
    {
        core::ScanTotals rings; ///< every step's ring totals
        double busy = 0.0; ///< seconds attaching riders and stepping
    };

    /** What the workers did since construction (thread-safe). */
    Totals totals() const;

  private:
    /** One ring and its hand-off state (guarded by mutex). */
    struct Lane
    {
        std::unique_ptr<core::ScanRing> ring;
        std::vector<core::ScanRider *> joining; ///< attach next step
        bool busy = false;   ///< a worker is stepping the ring
        bool riding = false; ///< the ring has riders
    };

    /** Start the workers (at least one). */
    void start(size_t workers);

    /** A worker: step any ring with work that no other worker holds,
     *  one chunk at a time. */
    void work(size_t worker);

    /** Guards the lanes' hand-off state, ScanJob::pending, sums and
     *  stopping. */
    mutable std::mutex mutex;
    std::vector<Lane> lanes;
    Totals sums; ///< every step's totals and busy seconds
    std::condition_variable workCv; ///< workers: a ring has work
    bool stopping = false;
    // Declared last: its threads touch every member above.
    runtime::ThreadPool pool;
};

} // namespace mnnfast::serve

#endif // MNNFAST_SERVE_SCAN_BACKEND_HH
