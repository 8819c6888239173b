/**
 * @file
 * Tests for the thread pool and parallel-for runtime, including the
 * inline (0-thread) mode used by single-thread benchmarks, the scratch
 * arena and the kernel plan table.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/kernel_tuner.hh"
#include "runtime/parallel_for.hh"
#include "runtime/scratch_arena.hh"
#include "runtime/thread_pool.hh"
#include "util/aligned_buffer.hh"

namespace mnnfast::runtime {
namespace {

TEST(SplitRange, EmptyInputGivesNoRanges)
{
    EXPECT_TRUE(splitRange(0, 4).empty());
}

TEST(SplitRange, FewerItemsThanParts)
{
    const auto r = splitRange(3, 8);
    ASSERT_EQ(r.size(), 3u);
    for (const Range &x : r)
        EXPECT_EQ(x.size(), 1u);
}

class SplitRangeProperty
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{};

TEST_P(SplitRangeProperty, CoversExactlyOnceAndBalanced)
{
    const auto [n, parts] = GetParam();
    const auto ranges = splitRange(n, parts);

    // Contiguous, ordered, covering [0, n).
    size_t expected_begin = 0;
    size_t min_size = n, max_size = 0;
    for (const Range &r : ranges) {
        EXPECT_EQ(r.begin, expected_begin);
        EXPECT_GT(r.end, r.begin);
        expected_begin = r.end;
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
    }
    EXPECT_EQ(expected_begin, n);
    if (n > 0) {
        EXPECT_LE(max_size - min_size, 1u);
    }
    EXPECT_LE(ranges.size(), parts);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SplitRangeProperty,
    ::testing::Values(std::pair<size_t, size_t>{0, 1},
                      std::pair<size_t, size_t>{1, 1},
                      std::pair<size_t, size_t>{10, 3},
                      std::pair<size_t, size_t>{100, 7},
                      std::pair<size_t, size_t>{7, 100},
                      std::pair<size_t, size_t>{1024, 16}));

TEST(ThreadPool, InlineModeRunsOnCaller)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 0u);
    std::thread::id id;
    pool.submit([&] { id = std::this_thread::get_id(); });
    EXPECT_EQ(id, std::this_thread::get_id());
    pool.waitIdle(); // no-op, must not hang
}

TEST(ThreadPool, ExecutesAllSubmittedTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&] { count.fetch_add(1); });
        pool.waitIdle();
        EXPECT_EQ(count.load(), (round + 1) * 10);
    }
}

TEST(ThreadPool, DrainsQueueOnDestruction)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { count.fetch_add(1); });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, ComputesCorrectSum)
{
    ThreadPool pool(4);
    std::vector<int> data(10000);
    std::iota(data.begin(), data.end(), 0);
    std::atomic<long long> total{0};
    parallelFor(pool, data.size(), [&](Range r) {
        long long local = 0;
        for (size_t i = r.begin; i < r.end; ++i)
            local += data[i];
        total.fetch_add(local);
    });
    EXPECT_EQ(total.load(), 10000LL * 9999 / 2);
}

TEST(ParallelFor, InlineModeCoversRange)
{
    ThreadPool pool(0);
    std::vector<bool> seen(100, false);
    parallelFor(pool, seen.size(), [&](Range r) {
        for (size_t i = r.begin; i < r.end; ++i)
            seen[i] = true;
    });
    for (bool b : seen)
        EXPECT_TRUE(b);
}

TEST(ParallelFor, EmptyRangeRunsNothing)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    parallelFor(pool, 0, [&](Range) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForParts, ProducesRequestedPartition)
{
    ThreadPool pool(2);
    std::vector<int> part_of(100, -1);
    parallelForParts(pool, 100, 7, [&](size_t part, Range r) {
        for (size_t i = r.begin; i < r.end; ++i)
            part_of[i] = static_cast<int>(part);
    });
    // Every element assigned, parts contiguous and ascending.
    for (int p : part_of)
        EXPECT_GE(p, 0);
    EXPECT_TRUE(std::is_sorted(part_of.begin(), part_of.end()));
    EXPECT_EQ(part_of.back(), 6);
}

TEST(ParallelForParts, MorePartsThanItems)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    parallelForParts(pool, 3, 10, [&](size_t, Range r) {
        EXPECT_EQ(r.size(), 1u);
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelFor, TemporaryBodyOutlivesCaller)
{
    // The loops copy the body into the tasks; a lambda passed as a
    // temporary (with captured state by value) must stay valid while
    // workers run.
    ThreadPool pool(3);
    std::atomic<long long> total{0};
    {
        const std::vector<int> weights(1000, 2);
        parallelFor(pool, weights.size(), [&total, weights](Range r) {
            long long local = 0;
            for (size_t i = r.begin; i < r.end; ++i)
                local += weights[i];
            total.fetch_add(local);
        });
    }
    EXPECT_EQ(total.load(), 2000);
}

TEST(ParallelForDynamic, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    for (auto &h : hits)
        h.store(0);
    parallelForDynamic(pool, hits.size(), 7, [&](size_t, Range r) {
        for (size_t i = r.begin; i < r.end; ++i)
            hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1);
}

TEST(ParallelForDynamic, InlineModeCoversRange)
{
    ThreadPool pool(0);
    std::vector<bool> seen(100, false);
    size_t max_worker = 0;
    parallelForDynamic(pool, seen.size(), 3, [&](size_t w, Range r) {
        max_worker = std::max(max_worker, w);
        for (size_t i = r.begin; i < r.end; ++i)
            seen[i] = true;
    });
    EXPECT_EQ(max_worker, 0u); // single inline worker
    for (bool b : seen)
        EXPECT_TRUE(b);
}

TEST(ParallelForDynamic, EmptyRangeRunsNothing)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    parallelForDynamic(pool, 0, 4, [&](size_t, Range) {
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForDynamic, ZeroGrainBehavesAsOne)
{
    ThreadPool pool(2);
    std::atomic<int> items{0};
    parallelForDynamic(pool, 25, 0, [&](size_t, Range r) {
        EXPECT_EQ(r.size(), 1u);
        items.fetch_add(static_cast<int>(r.size()));
    });
    EXPECT_EQ(items.load(), 25);
}

TEST(ParallelForDynamic, WorkerIdsAreUniqueAndDense)
{
    ThreadPool pool(4);
    std::mutex mu;
    std::vector<size_t> seen_workers;
    parallelForDynamic(pool, 200, 1, [&](size_t w, Range) {
        std::lock_guard<std::mutex> lock(mu);
        seen_workers.push_back(w);
    });
    for (size_t w : seen_workers)
        EXPECT_LT(w, 4u);
}

TEST(ParallelForDynamic, RangesRespectGrainAndOrder)
{
    ThreadPool pool(3);
    std::mutex mu;
    std::vector<Range> claimed;
    parallelForDynamic(pool, 100, 8, [&](size_t, Range r) {
        std::lock_guard<std::mutex> lock(mu);
        claimed.push_back(r);
    });
    size_t total = 0;
    for (const Range &r : claimed) {
        EXPECT_TRUE(r.size() == 8 || r.end == 100);
        total += r.size();
    }
    EXPECT_EQ(total, 100u);
}

TEST(ParallelForDynamic, BlockedWorkerLeavesItsShareToOthers)
{
    // Load balance without wall-clock shares: the body of the first
    // claimed item blocks until every other item has finished. Only a
    // loop whose other workers claim what the blocked one would have
    // taken can get there; a static partition leaves the blocked
    // worker's items undone and runs into the timeout. The blocked
    // worker then finds the cursor exhausted, so it ran that one item.
    constexpr size_t kWorkers = 4;
    constexpr size_t kItems = 200;
    ThreadPool pool(kWorkers);
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0; // items finished, the blocking one excluded
    bool timed_out = false;
    size_t blocked = kWorkers; // the worker that ran item 0
    std::vector<std::atomic<size_t>> per_worker(kWorkers);
    std::vector<std::atomic<int>> runs(kItems);
    parallelForDynamic(pool, kItems, 1, [&](size_t w, Range r) {
        per_worker[w].fetch_add(r.size());
        runs[r.begin].fetch_add(1);
        std::unique_lock<std::mutex> lock(mu);
        if (r.begin == 0) {
            blocked = w;
            timed_out = !cv.wait_for(lock, std::chrono::seconds(60), [&] {
                return done == kItems - 1;
            });
            return;
        }
        if (++done == kItems - 1)
            cv.notify_all();
    });
    ASSERT_FALSE(timed_out)
        << "the other workers never finished the blocked worker's items";
    for (size_t i = 0; i < kItems; ++i)
        ASSERT_EQ(runs[i].load(), 1) << i;
    size_t total = 0;
    for (const auto &c : per_worker)
        total += c.load();
    EXPECT_EQ(total, kItems);
    ASSERT_LT(blocked, kWorkers);
    EXPECT_EQ(per_worker[blocked].load(), 1u);
}

TEST(ThreadPool, SubmitFromWorkerDoesNotDeadlock)
{
    // The idle-waiter-gated notify must still wake someone when tasks
    // are enqueued from inside a worker (nested submits).
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i) {
        pool.submit([&] {
            count.fetch_add(1);
            pool.submit([&] { count.fetch_add(1); });
        });
    }
    pool.waitIdle();
    EXPECT_EQ(count.load(), 20);
}

TEST(ScratchArena, SpansAreCacheLineAligned)
{
    ScratchArena arena;
    for (size_t n : {1ul, 3ul, 17ul, 1000ul}) {
        auto f = reinterpret_cast<uintptr_t>(arena.floats(n));
        auto d = reinterpret_cast<uintptr_t>(arena.doubles(n));
        EXPECT_EQ(f % kCacheLineBytes, 0u) << "n=" << n;
        EXPECT_EQ(d % kCacheLineBytes, 0u) << "n=" << n;
    }
}

TEST(ScratchArena, SpansPersistUntilReset)
{
    // Growth mid-cycle must never move live spans: earlier claims
    // stay readable (and disjoint from later ones) until reset().
    ScratchArena arena;
    std::vector<float *> spans;
    for (int i = 0; i < 50; ++i) {
        float *s = arena.floats(100);
        s[0] = float(i);
        s[99] = float(-i);
        spans.push_back(s);
    }
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(spans[i][0], float(i));
        EXPECT_EQ(spans[i][99], float(-i));
    }
}

TEST(ScratchArena, CapacityIsStableAtSteadyState)
{
    // A serving loop claiming the same shapes every cycle must stop
    // allocating: capacity settles after the first cycle and reset()
    // recycles it.
    ScratchArena arena;
    auto cycle = [&] {
        arena.reset();
        arena.floats(4096);
        arena.doubles(64);
        arena.floats(64);
    };
    cycle();
    const size_t cap = arena.capacityBytes();
    EXPECT_GE(cap, 4096 * sizeof(float) + 64 * sizeof(double)
                       + 64 * sizeof(float));
    for (int i = 0; i < 10; ++i)
        cycle();
    EXPECT_EQ(arena.capacityBytes(), cap);
    EXPECT_EQ(arena.blockCount(), 1u);
}

TEST(ScratchArena, ResetCoalescesGrowthIntoOneBlock)
{
    // Overflowing a cycle appends blocks; the next reset() merges the
    // retained capacity so the following cycle of equal total size is
    // a single bump-pointer walk.
    ScratchArena arena;
    arena.floats(100);
    arena.floats(10000);
    arena.floats(100000);
    EXPECT_GT(arena.blockCount(), 1u);
    const size_t cap = arena.capacityBytes();
    arena.reset();
    EXPECT_EQ(arena.blockCount(), 1u);
    EXPECT_EQ(arena.capacityBytes(), cap);
    // The whole prior footprint now fits in the single block.
    float *s = arena.floats(cap / sizeof(float));
    s[cap / sizeof(float) - 1] = 1.f;
    EXPECT_EQ(arena.blockCount(), 1u);
}

TEST(ScratchArena, ZeroSizedClaimIsHarmless)
{
    ScratchArena arena;
    arena.floats(0);
    EXPECT_EQ(arena.capacityBytes(), 0u);
    float *s = arena.floats(8);
    s[7] = 3.f;
    EXPECT_EQ(s[7], 3.f);
}

TEST(ScratchArena, MoveTransfersOwnership)
{
    ScratchArena a;
    float *s = a.floats(256);
    s[0] = 42.f;
    const size_t cap = a.capacityBytes();

    ScratchArena b(std::move(a));
    EXPECT_EQ(b.capacityBytes(), cap);
    EXPECT_EQ(s[0], 42.f); // span owned by b now, still alive

    ScratchArena c;
    c.floats(64); // existing capacity must be released, not leaked
    c = std::move(b);
    EXPECT_EQ(c.capacityBytes(), cap);
    EXPECT_EQ(s[0], 42.f);
}

// ---------------------------------------------------------------------
// Kernel plan table: constant entries, nothing measured.
// ---------------------------------------------------------------------

TEST(PlanTable, EveryStripIsAMultipleOfFourOrTheWholeChunk)
{
    for (const PlanEntry &e : kPlanTable) {
        for (const KernelPlan &p : {e.single, e.multi}) {
            // No strip may end in a row tail of the 4-row register
            // group; kWholeChunk (0) is one call per chunk.
            EXPECT_EQ(p.stripRows % 4, 0u) << e.sweep;
            // A row look-ahead is a distance in rows, within the
            // candidates bench/plan_sweep times.
            EXPECT_LE(p.lookaheadRows, 32u) << e.sweep;
        }
    }
    // int8 amortizes its query sums over a call: its single-question
    // sweep is the whole chunk.
    const KernelPlan i8 = kernelPlan("i8", 1);
    EXPECT_EQ(i8.stripRows, kWholeChunk);
    // The bound sweep's kernel has no look-ahead.
    EXPECT_EQ(kernelPlan("bound", 1).lookaheadRows, 0u);
    EXPECT_EQ(kernelPlan("bound", 2).lookaheadRows, 0u);
}

TEST(PlanTable, LookupPicksTheSingleOrMultiQuestionEntry)
{
    for (const PlanEntry &e : kPlanTable) {
        for (size_t nq : {size_t{0}, size_t{1}}) {
            const KernelPlan p = kernelPlan(e.sweep, nq);
            EXPECT_EQ(p.stripRows, e.single.stripRows) << e.sweep;
            EXPECT_EQ(p.lookaheadRows, e.single.lookaheadRows);
        }
        for (size_t nq : {size_t{2}, size_t{16}, size_t{1000}}) {
            const KernelPlan p = kernelPlan(e.sweep, nq);
            EXPECT_EQ(p.stripRows, e.multi.stripRows) << e.sweep;
            EXPECT_EQ(p.lookaheadRows, e.multi.lookaheadRows);
        }
    }
    for (const char *sweep : {"f32", "bf16", "i8", "bound"})
        kernelPlan(sweep, 1); // every sweep the engines name exists
    EXPECT_DEATH(kernelPlan("f64", 1), "no kernel plan");
}

TEST(PlanTable, OverrideAppliesWhileAliveAndNests)
{
    const KernelPlan table = kernelPlan("f32", 4);
    {
        PlanOverride outer({32, 4});
        EXPECT_EQ(kernelPlan("bf16", 1).stripRows, 32u);
        {
            PlanOverride inner({kWholeChunk, 0});
            EXPECT_EQ(kernelPlan("f32", 4).stripRows, kWholeChunk);
            EXPECT_EQ(kernelPlan("f32", 4).lookaheadRows, 0u);
        }
        EXPECT_EQ(kernelPlan("i8", 16).lookaheadRows, 4u);
    }
    EXPECT_EQ(kernelPlan("f32", 4).stripRows, table.stripRows);
    EXPECT_EQ(kernelPlan("f32", 4).lookaheadRows, table.lookaheadRows);

    // A strip off the kernels' 4-row register grid would be rounded
    // into a split the caller did not ask for: refused, by size.
    EXPECT_EXIT({ PlanOverride pin({6, 0}); },
                ::testing::ExitedWithCode(1), "strip of 6 rows");
    for (size_t strip : {size_t{4}, kWholeChunk}) {
        PlanOverride pin({strip, 0});
        EXPECT_EQ(kernelPlan("f32", 1).stripRows, strip);
    }
}

TEST(PlanTable, ExportJsonListsEveryEntry)
{
    KernelTuner &tuner = KernelTuner::instance();
    const std::string json = tuner.exportJson();
    for (const char *field :
         {"\"backend\"", "\"entries\"", "\"precision\"", "\"ed\"",
          "\"nq\"", "\"strip_rows\"", "\"prefetch_stride\"",
          "\"lookahead_rows\"", "\"origin\""})
        EXPECT_NE(json.find(field), std::string::npos) << field;
    EXPECT_EQ(json.find("\"measured\""), std::string::npos);
    // Every entry in table order: "prefetch_stride", the key older
    // records carry, reports 0 (the engines no longer prefetch the
    // next chunk) and "lookahead_rows" the entry's distance.
    size_t pos = 0;
    for (const PlanEntry &e : kPlanTable)
        for (const KernelPlan &p : {e.single, e.multi}) {
            pos = json.find("\"prefetch_stride\": 0, \"lookahead_rows\": "
                                + std::to_string(p.lookaheadRows) + ",",
                            pos);
            ASSERT_NE(pos, std::string::npos) << e.sweep;
            ++pos;
        }
    // One object per (sweep, single/multi) entry, all "default".
    size_t objects = 0, defaults = 0;
    for (size_t at = json.find("{\"precision\""); at != std::string::npos;
         at = json.find("{\"precision\"", at + 1))
        ++objects;
    for (size_t at = json.find("\"default\""); at != std::string::npos;
         at = json.find("\"default\"", at + 1))
        ++defaults;
    EXPECT_EQ(objects, 2 * std::size(kPlanTable));
    EXPECT_EQ(defaults, objects);
    for (const PlanEntry &e : kPlanTable)
        EXPECT_NE(json.find(std::string("\"precision\": \"") + e.sweep
                            + "\""),
                  std::string::npos)
            << e.sweep;
    // clear() keeps its old signature and has nothing to drop.
    tuner.clear();
    EXPECT_EQ(tuner.exportJson(), json);
}

} // namespace
} // namespace mnnfast::runtime
