#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "blas/kernels.hh"
#include "core/chunk_summary_index.hh"
#include "net/wire.hh"
#include "util/logging.hh"

namespace servebench {

namespace core = mnnfast::core;
namespace blas = mnnfast::blas;
namespace net = mnnfast::net;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Run body(t) on `threads` threads at once; wall seconds. */
double
parallel(size_t threads, const std::function<void(size_t)> &body)
{
    std::vector<std::thread> pool;
    const auto t0 = Clock::now();
    for (size_t t = 1; t < threads; ++t)
        pool.emplace_back(body, t);
    body(0);
    for (auto &th : pool)
        th.join();
    return since(t0);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Median wall time of `reps` calls of parallel(threads, body). */
double
medianParallel(size_t reps, size_t threads,
               const std::function<void(size_t)> &body)
{
    std::vector<double> t;
    for (size_t r = 0; r < reps; ++r)
        t.push_back(parallel(threads, body));
    return median(t);
}

constexpr size_t kStrip = 64;

/** One contiguous row slice [begin, end) per thread. */
struct Slice
{
    size_t begin = 0;
    size_t end = 0;
};

std::vector<Slice>
slices(size_t rows, size_t threads)
{
    std::vector<Slice> s(threads);
    for (size_t t = 0; t < threads; ++t) {
        s[t].begin = rows * t / threads;
        s[t].end = rows * (t + 1) / threads;
    }
    return s;
}

/** End of the strip starting at row r: kStrip rows, cut at the slice
 *  end and, for int8, at the quantization-group end. */
size_t
stripEnd(const core::KnowledgeBase &kb, size_t r, size_t end)
{
    size_t e = std::min(end, r + kStrip);
    if (kb.precision() == core::Precision::I8)
        e = std::min(e, kb.i8GroupEnd(r));
    return e;
}

/** Phase 1 over [s.begin, s.end): logits into out (nq x slice). */
void
dotSlice(const core::KnowledgeBase &kb, const float *u, size_t nq,
         Slice s, float *out)
{
    const size_t ed = kb.dim();
    const size_t ostride = s.end - s.begin;
    for (size_t r = s.begin; r < s.end;) {
        const size_t e = stripEnd(kb, r, s.end);
        float *o = out + (r - s.begin);
        switch (kb.precision()) {
          case core::Precision::F32:
            blas::dotBatchMulti(u, nq, ed, kb.minData() + r * ed, e - r,
                                ed, ed, o, ostride);
            break;
          case core::Precision::BF16:
            blas::dotBatchMultiBf16(u, nq, ed, kb.minData16() + r * ed,
                                    e - r, ed, ed, o, ostride);
            break;
          case core::Precision::I8:
            blas::dotBatchMultiI8(u, nq, ed, kb.minData8() + r * ed,
                                  e - r, ed, ed, kb.minScale(r),
                                  kb.minZero(r), o, ostride);
            break;
        }
        r = e;
    }
}

/** Phase 3 over [s.begin, s.end) with e values `ev` (nq x slice). */
void
wsumSlice(const core::KnowledgeBase &kb, const float *ev, size_t nq,
          Slice s, float threshold, double *sums, float *acc)
{
    const size_t ed = kb.dim();
    const size_t estride = s.end - s.begin;
    std::fill(sums, sums + nq, 0.0);
    std::fill(acc, acc + nq * ed, 0.f);
    uint64_t kept = 0, skipped = 0;
    for (size_t r = s.begin; r < s.end;) {
        const size_t e = stripEnd(kb, r, s.end);
        const float *x = ev + (r - s.begin);
        switch (kb.precision()) {
          case core::Precision::F32:
            blas::weightedSumSkipMulti(x, nq, estride,
                                       kb.moutData() + r * ed, e - r, ed,
                                       ed, threshold, sums, acc, ed,
                                       kept, skipped);
            break;
          case core::Precision::BF16:
            blas::weightedSumSkipMultiBf16(
                x, nq, estride, kb.moutData16() + r * ed, e - r, ed, ed,
                threshold, sums, acc, ed, kept, skipped);
            break;
          case core::Precision::I8:
            blas::weightedSumSkipMultiI8(
                x, nq, estride, kb.moutData8() + r * ed, e - r, ed, ed,
                kb.moutScale(r), kb.moutZero(r), threshold, sums, acc,
                ed, kept, skipped);
            break;
        }
        r = e;
    }
}

} // namespace

double
readBandwidthGbps(size_t bytes, size_t threads)
{
    const size_t words = bytes / sizeof(uint64_t);
    std::unique_ptr<uint64_t[]> buf(new uint64_t[words]);
    for (size_t i = 0; i < words; ++i)
        buf[i] = i * 0x9E3779B97F4A7C15ull;
    const std::vector<Slice> s = slices(words, threads);
    std::vector<uint64_t> sink(threads);
    const double seconds =
        medianParallel(7, threads, [&](size_t t) {
            const uint64_t *p = buf.get();
            uint64_t a = 0, b = 0, c = 0, d = 0;
            size_t i = s[t].begin;
            for (; i + 4 <= s[t].end; i += 4) {
                a += p[i];
                b += p[i + 1];
                c += p[i + 2];
                d += p[i + 3];
            }
            for (; i < s[t].end; ++i)
                a += p[i];
            sink[t] = a ^ b ^ c ^ d;
        });
    uint64_t keep = 0;
    for (uint64_t v : sink)
        keep ^= v;
    // Fold the sums into the result's last bit so the passes stay live.
    return static_cast<double>(words * sizeof(uint64_t)) / seconds / 1e9
         + static_cast<double>(keep & 1) * 1e-12;
}

BlasSweep
blasSweep(const core::KnowledgeBase &kb, const float *u, size_t nq,
          size_t threads, float skip, size_t chunk)
{
    constexpr size_t kReps = 5;
    const size_t ed = kb.dim();
    const std::vector<Slice> s = slices(kb.size(), threads);
    std::vector<std::vector<float>> logits(threads);
    std::vector<std::vector<float>> ev(threads);
    std::vector<std::vector<double>> sums(threads,
                                          std::vector<double>(nq));
    std::vector<std::vector<float>> acc(threads,
                                        std::vector<float>(nq * ed));
    for (size_t t = 0; t < threads; ++t) {
        logits[t].resize(nq * (s[t].end - s[t].begin));
        ev[t].resize(logits[t].size());
    }

    const double tDot = medianParallel(kReps, threads, [&](size_t t) {
        dotSlice(kb, u, nq, s[t], logits[t].data());
    });
    const double tExpWsum =
        medianParallel(kReps, threads, [&](size_t t) {
            std::memcpy(ev[t].data(), logits[t].data(),
                        ev[t].size() * sizeof(float));
            blas::expInplace(ev[t].data(), ev[t].size());
            wsumSlice(kb, ev[t].data(), nq, s[t], skip,
                      sums[t].data(), acc[t].data());
        });
    const double tWsumAll =
        medianParallel(kReps, threads, [&](size_t t) {
            wsumSlice(kb, ev[t].data(), nq, s[t], 0.f, sums[t].data(),
                      acc[t].data());
        });

    const core::ChunkSummaryIndex index(kb, chunk);
    const size_t chunks = index.chunks();
    std::vector<float> bounds(nq * chunks);
    const size_t boundBytes = 2 * chunks * ed * sizeof(float);
    size_t calls = 0;
    const auto b0 = Clock::now();
    do {
        for (size_t i = 0; i < 64; ++i, ++calls)
            blas::chunkBoundBatch(u, nq, ed, index.loData(),
                                  index.hiData(), chunks, ed, ed,
                                  bounds.data(), chunks);
    } while (since(b0) < 0.02);
    const double tBound = since(b0) / static_cast<double>(calls);

    const double halfBytes = static_cast<double>(kb.bytes()) / 2.0;
    BlasSweep r;
    r.dotGbps = halfBytes / tDot / 1e9;
    r.wsumGbps = halfBytes / tWsumAll / 1e9;
    r.boundGbps = static_cast<double>(boundBytes) / tBound / 1e9;
    r.batchSeconds = tDot + tExpWsum;
    return r;
}

WireCost
wireCost(const float *u, size_t nq, size_t ed,
         const core::StreamPartial &partial)
{
    constexpr size_t kReps = 200;
    net::ScatterRequest req;
    req.requestId = 7;
    req.nq = static_cast<uint32_t>(nq);
    req.ed = static_cast<uint32_t>(ed);
    req.u.assign(u, u + nq * ed);
    net::PartialResponse resp;
    resp.requestId = 7;
    resp.nq = static_cast<uint32_t>(nq);
    resp.ed = static_cast<uint32_t>(ed);
    resp.partial = partial;

    std::vector<uint8_t> reqBytes, respBytes;
    const auto e0 = Clock::now();
    for (size_t i = 0; i < kReps; ++i) {
        reqBytes = net::encodeFrame(net::encodeScatterRequest(req));
        respBytes = net::encodeFrame(net::encodePartialResponse(resp));
    }
    const double encode = since(e0);

    net::Frame frame;
    net::ScatterRequest reqOut;
    net::PartialResponse respOut;
    bool ok = true;
    const auto d0 = Clock::now();
    for (size_t i = 0; i < kReps; ++i) {
        ok = ok
          && net::decodeFrame(reqBytes.data(), reqBytes.size(), frame)
                 == net::WireStatus::Ok
          && net::decodeScatterRequest(frame, reqOut)
                 == net::WireStatus::Ok
          && net::decodeFrame(respBytes.data(), respBytes.size(), frame)
                 == net::WireStatus::Ok
          && net::decodePartialResponse(frame, respOut)
                 == net::WireStatus::Ok;
    }
    const double decode = since(d0);
    if (!ok || reqOut.u != req.u)
        mnnfast::fatal("servebench: wire codec round trip failed");

    WireCost c;
    c.encodeUs = encode / kReps * 1e6;
    c.decodeUs = decode / kReps * 1e6;
    c.bytes = reqBytes.size() + respBytes.size();
    return c;
}

} // namespace servebench
