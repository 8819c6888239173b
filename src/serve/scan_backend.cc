#include "serve/scan_backend.hh"

#include <utility>

#include "util/logging.hh"
#include "util/timer.hh"

namespace mnnfast::serve {

ScanJob::ScanJob(size_t rings) : rides(rings)
{
    for (Ride &r : rides)
        r.job = this;
}

ScanBackend::ScanBackend(const core::ShardedKnowledgeBase &skb,
                         const core::EngineConfig &cfg, size_t workers)
    : lanes(skb.shardCount()), pool(workers)
{
    core::EngineConfig ecfg = cfg;
    ecfg.chunkSize = skb.chunkSize();
    for (size_t s = 0; s < lanes.size(); ++s)
        lanes[s].ring = std::make_unique<core::ScanRing>(
            skb.shard(s), ecfg, skb.rows(s).begin / skb.chunkSize());
    start(workers);
}

ScanBackend::ScanBackend(const core::KnowledgeBase &kb,
                         const core::EngineConfig &cfg, size_t workers)
    : lanes(1), pool(workers)
{
    lanes[0].ring = std::make_unique<core::ScanRing>(kb, cfg);
    start(workers);
}

void
ScanBackend::start(size_t workers)
{
    // Without a worker no ring would ever step.
    if (workers == 0)
        fatal("scan backend needs a nonzero worker count");
    for (size_t w = 0; w < workers; ++w)
        pool.submit([this, w] { work(w); });
}

ScanBackend::~ScanBackend()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    workCv.notify_all();
}

void
ScanBackend::submit(ScanJob &job)
{
    mnn_assert(job.rides.size() == lanes.size(),
               "scan job rides disagree with the ring count");
    {
        std::lock_guard<std::mutex> lock(mutex);
        mnn_assert(job.pending == 0, "scan job submitted while riding");
        job.pending = lanes.size();
        for (size_t s = 0; s < lanes.size(); ++s)
            lanes[s].joining.push_back(&job.rides[s]);
    }
    workCv.notify_all();
}

ScanBackend::Totals
ScanBackend::totals() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return sums;
}

void
ScanBackend::work(size_t worker)
{
    std::vector<core::ScanRider *> joining, done;
    std::vector<ScanJob *> settled;
    size_t from = worker % lanes.size();
    // The first free ring with work, searching from `from`.
    const auto claim = [&]() -> Lane * {
        for (size_t i = 0; i < lanes.size(); ++i) {
            Lane &l = lanes[(from + i) % lanes.size()];
            if (!l.busy && (l.riding || !l.joining.empty())) {
                from = (from + i + 1) % lanes.size();
                return &l;
            }
        }
        return nullptr;
    };
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        Lane *lane = nullptr;
        workCv.wait(lock, [&] {
            lane = claim();
            return lane || stopping;
        });
        if (stopping)
            return;
        lane->busy = true;
        joining.swap(lane->joining);
        lock.unlock();

        const Timer timer;
        for (core::ScanRider *r : joining)
            lane->ring->attach(*r);
        joining.clear();
        lane->ring->step(worker, done);
        const core::ScanTotals step = lane->ring->takeTotals();
        const double busySeconds = timer.seconds();

        lock.lock();
        lane->busy = false;
        lane->riding = !lane->ring->idle();
        sums.rings += step;
        sums.busy += busySeconds;
        for (core::ScanRider *r : done) {
            ScanJob *job = static_cast<ScanJob::Ride *>(r)->job;
            if (--job->pending == 0)
                settled.push_back(job);
        }
        done.clear();
        if (settled.empty())
            continue;
        // Another worker may take the ring meanwhile.
        workCv.notify_one();
        lock.unlock();
        for (ScanJob *job : settled)
            job->settled();
        settled.clear();
        lock.lock();
    }
}

} // namespace mnnfast::serve
