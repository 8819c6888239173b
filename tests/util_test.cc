/**
 * @file
 * Unit tests for src/util: RNG determinism and distribution sanity,
 * timers, aligned buffers, logging levels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <thread>

#include "util/aligned_buffer.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/timer.hh"

namespace mnnfast {
namespace {

TEST(XorShiftRng, DeterministicForSameSeed)
{
    XorShiftRng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(XorShiftRng, DifferentSeedsDiverge)
{
    XorShiftRng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(XorShiftRng, ZeroSeedIsRemapped)
{
    XorShiftRng a(0);
    EXPECT_NE(a.next(), 0u);
}

TEST(XorShiftRng, UniformInUnitInterval)
{
    XorShiftRng rng(7);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(XorShiftRng, UniformRangeRespectsBounds)
{
    XorShiftRng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const float v = rng.uniformRange(-2.5f, 7.5f);
        ASSERT_GE(v, -2.5f);
        ASSERT_LT(v, 7.5f);
    }
}

TEST(XorShiftRng, BelowCoversAllResidues)
{
    XorShiftRng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(7));
    EXPECT_EQ(seen.size(), 7u);
    EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(XorShiftRng, GaussianMomentsAreSane)
{
    XorShiftRng rng(13);
    const int n = 50000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(XorShiftRng, ChanceProbabilityMatches)
{
    XorShiftRng rng(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(double(hits) / n, 0.25, 0.02);
}

TEST(XorShiftRng, SplitStreamsAreIndependent)
{
    XorShiftRng parent(21);
    XorShiftRng child = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next() == child.next();
    EXPECT_EQ(same, 0);
}

TEST(Timer, MeasuresElapsedTime)
{
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double s = t.seconds();
    EXPECT_GE(s, 0.015);
    EXPECT_LT(s, 5.0);
}

TEST(Timer, ResetRestartsFromZero)
{
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    t.reset();
    EXPECT_LT(t.seconds(), 0.015);
}

TEST(PhaseTimer, AccumulatesIntervals)
{
    PhaseTimer pt;
    for (int i = 0; i < 3; ++i) {
        pt.start();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        pt.stop();
    }
    EXPECT_GE(pt.seconds(), 0.010);
    pt.clear();
    EXPECT_EQ(pt.seconds(), 0.0);
}

TEST(PhaseTimer, StopWithoutStartIsNoOp)
{
    PhaseTimer pt;
    pt.stop();
    EXPECT_EQ(pt.seconds(), 0.0);
}

TEST(AlignedBuffer, IsCacheLineAligned)
{
    AlignedBuffer<float> buf(100);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % 64, 0u);
}

TEST(AlignedBuffer, ZeroInitialized)
{
    AlignedBuffer<float> buf(1000);
    for (float v : buf)
        ASSERT_EQ(v, 0.0f);
}

TEST(AlignedBuffer, SizeAndIndexing)
{
    AlignedBuffer<int> buf(10);
    EXPECT_EQ(buf.size(), 10u);
    buf[3] = 42;
    EXPECT_EQ(buf[3], 42);
}

TEST(AlignedBuffer, MoveTransfersOwnership)
{
    AlignedBuffer<float> a(16);
    a[0] = 3.0f;
    float *p = a.data();
    AlignedBuffer<float> b(std::move(a));
    EXPECT_EQ(b.data(), p);
    EXPECT_EQ(b[0], 3.0f);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, MoveAssignReleasesOld)
{
    AlignedBuffer<float> a(16), b(8);
    a[1] = 5.0f;
    b = std::move(a);
    EXPECT_EQ(b.size(), 16u);
    EXPECT_EQ(b[1], 5.0f);
}

TEST(AlignedBuffer, EmptyBufferIsSafe)
{
    AlignedBuffer<float> buf;
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.begin(), buf.end());
}

TEST(AlignedBuffer, ReallocateDiscardsAndZeroes)
{
    AlignedBuffer<float> buf(4);
    buf[0] = 9.0f;
    buf.allocate(32);
    EXPECT_EQ(buf.size(), 32u);
    for (float v : buf)
        ASSERT_EQ(v, 0.0f);
}

TEST(AlignedBuffer, HugePageThresholdAlignsAndZeroes)
{
    // 2 MiB - 1 element, exactly 2 MiB and 2 MiB + 1 element: from the
    // threshold up the buffer is 2 MiB-aligned, below it 64-byte
    // aligned, and every element is zero either way. Whether the host
    // backs it with huge pages is the host's business, not asserted.
    constexpr size_t kAt = kHugePageBytes / sizeof(float);
    for (size_t n : {kAt - 1, kAt, kAt + 1}) {
        AlignedBuffer<float> buf(n);
        ASSERT_EQ(buf.size(), n);
        const size_t align = n >= kAt ? kHugePageBytes : kCacheLineBytes;
        EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % align, 0u)
            << n;
        for (float v : buf)
            ASSERT_EQ(v, 0.0f) << n;
    }
}

TEST(AlignedBuffer, ReallocateAndMoveAcrossHugePageThreshold)
{
    // allocate() into and out of the 2 MiB class, twice each way, and
    // a move construction and assignment at every size: size() and the
    // contents follow the buffer.
    constexpr size_t kAt = kHugePageBytes / sizeof(float);
    AlignedBuffer<float> buf;
    for (size_t n : {kAt - 1, kAt + 1, kAt, kAt - 1, kAt + 1}) {
        buf.allocate(n);
        ASSERT_EQ(buf.size(), n);
        for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(buf[i], 0.0f) << n;
            buf[i] = float(i % 1021);
        }
        AlignedBuffer<float> moved(std::move(buf));
        EXPECT_EQ(buf.size(), 0u);
        AlignedBuffer<float> small(16);
        small = std::move(moved);
        ASSERT_EQ(small.size(), n);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(small[i], float(i % 1021)) << n;
        buf = std::move(small);
        ASSERT_EQ(buf.size(), n);
        EXPECT_EQ(buf[n - 1], float((n - 1) % 1021));
    }
}

TEST(Logging, LevelRoundTrips)
{
    const LogLevel old = logLevel();
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(LogLevel::Verbose);
    EXPECT_EQ(logLevel(), LogLevel::Verbose);
    setLogLevel(old);
}

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(panic("test panic %d", 1), "panic");
}

TEST(Logging, FatalExitsWithCodeOne)
{
    EXPECT_EXIT(fatal("test fatal"), ::testing::ExitedWithCode(1),
                "fatal");
}

TEST(Logging, AssertMacroPanicsOnFailure)
{
    EXPECT_DEATH(mnn_assert(1 == 2, "math broke"), "math broke");
}

TEST(Logging, AssertMacroPassesOnSuccess)
{
    mnn_assert(1 == 1, "fine");
    SUCCEED();
}

} // namespace
} // namespace mnnfast
