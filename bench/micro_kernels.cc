/**
 * @file
 * Supporting microbenchmarks (google-benchmark): the BLAS kernels the
 * engines are built on, and the engines themselves at small scale.
 * Not a paper figure — these guard against kernel-level regressions
 * that would invalidate the Fig. 9 measurements.
 *
 * Each dispatched kernel is benchmarked next to its scalar reference
 * (the `*Scalar` variants call blas::scalar:: directly, which is the
 * seed implementation verbatim), so one run quantifies the SIMD
 * speedup per kernel. Kernel buffers are 64-byte aligned, as the
 * engines' are, so no vector load splits a cache line it would not
 * split in an engine. Results default to machine-readable JSON in
 * ./BENCH_kernels.json; pass --benchmark_out=... to override. The
 * record's context names the build type, the kernel backend, the git
 * revision, the source digest and the host's last-level cache
 * (bench_common.hh).
 *
 * The BM_Phase1* cases are the phase-1 streaming diagnostic: one
 * thread sweeps an f32 ed=128 matrix of at least twice the LLC in the
 * engine's 1024-row chunk calls — a read-only sweep (the same loads,
 * no fmas), the dot over one cache-resident chunk, and the streamed
 * dot with the row look-ahead off and at the plan table's distance —
 * at nq 1, 8 and 16. If streamed ~ read-only + cached, the stream and
 * the arithmetic do not overlap. Their names avoid "Multi", so a
 * --benchmark_filter=Multi smoke skips their large matrix.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "blas/kernels.hh"
#include "core/baseline_engine.hh"
#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
#include "runtime/kernel_tuner.hh"
#include "util/aligned_buffer.hh"
#include "util/bf16.hh"
#include "util/rng.hh"

using namespace mnnfast;

namespace {

/** Kernel operand buffers: 64-byte aligned, zero-initialized. */
template <class T>
using Buf = AlignedBuffer<T>;

Buf<float>
randomVec(size_t n, uint64_t seed)
{
    XorShiftRng rng(seed);
    Buf<float> v(n);
    for (float &x : v)
        x = rng.uniformRange(-1.f, 1.f);
    return v;
}

void
BM_Dot(benchmark::State &state)
{
    const size_t n = state.range(0);
    const auto x = randomVec(n, 1), y = randomVec(n, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(blas::dot(x.data(), y.data(), n));
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Dot)->Arg(48)->Arg(256)->Arg(1024)->Arg(4096);

void
BM_DotScalar(benchmark::State &state)
{
    const size_t n = state.range(0);
    const auto x = randomVec(n, 1), y = randomVec(n, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            blas::scalar::dot(x.data(), y.data(), n));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DotScalar)->Arg(48)->Arg(256)->Arg(1024)->Arg(4096);

void
BM_DotBatchMulti(benchmark::State &state)
{
    // Query-blocked inner products: rows x queries at d=256 (the
    // engine's hot shape). Items processed counts every (q, r) dot so
    // throughput is directly comparable across batch sizes; nq=1 is
    // the single-query sweep.
    const size_t rows = state.range(0), nq = state.range(1), d = 256;
    const auto x = randomVec(nq * d, 1);
    const auto m = randomVec(rows * d, 2);
    Buf<float> out(nq * rows);
    for (auto _ : state) {
        blas::dotBatchMulti(x.data(), nq, d, m.data(), rows, d, d,
                            out.data(), rows);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * nq * rows * d);
}
BENCHMARK(BM_DotBatchMulti)
    ->Args({512, 1})
    ->Args({512, 3})
    ->Args({512, 4})
    ->Args({512, 8})
    ->Args({512, 16});

void
BM_WeightedSumSkipMulti(benchmark::State &state)
{
    // Query-blocked weighted sum: each kept row is loaded once and
    // accumulated into every query's output.
    const size_t rows = state.range(0), nq = state.range(1), d = 256;
    const float threshold = state.range(2) != 0 ? 0.1f : 0.f;
    auto e = randomVec(nq * rows, 3);
    for (float &v : e)
        v = v * 0.5f + 0.5f; // positive exp-like weights
    const auto m = randomVec(rows * d, 4);
    Buf<float> acc(nq * d);
    std::vector<double> s(nq);
    for (auto _ : state) {
        std::fill(s.begin(), s.end(), 0.0);
        uint64_t kept = 0, skipped = 0;
        blas::weightedSumSkipMulti(e.data(), nq, rows, m.data(), rows,
                                   d, d, threshold, s.data(), acc.data(),
                                   d, kept, skipped);
        benchmark::DoNotOptimize(acc.data());
        benchmark::DoNotOptimize(s.data());
    }
    state.SetItemsProcessed(state.iterations() * nq * rows * d);
}
BENCHMARK(BM_WeightedSumSkipMulti)
    ->Args({512, 1, 0})
    ->Args({512, 16, 0})
    ->Args({512, 16, 1});

Buf<uint16_t>
randomVecBf16(size_t n, uint64_t seed)
{
    const auto f = randomVec(n, seed);
    Buf<uint16_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = bf16FromFloat(f[i]);
    return v;
}

void
BM_DotBatchMultiBf16(benchmark::State &state)
{
    // bf16-storage counterpart of BM_DotBatchMulti at the same shape:
    // the rows stream at half the bytes and widen in-register.
    const size_t rows = state.range(0), nq = state.range(1), d = 256;
    const auto x = randomVec(nq * d, 1);
    const auto m = randomVecBf16(rows * d, 2);
    Buf<float> out(nq * rows);
    for (auto _ : state) {
        blas::dotBatchMultiBf16(x.data(), nq, d, m.data(), rows, d, d,
                                out.data(), rows);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * nq * rows * d);
}
BENCHMARK(BM_DotBatchMultiBf16)
    ->Args({512, 1})
    ->Args({512, 3})
    ->Args({512, 4})
    ->Args({512, 8})
    ->Args({512, 16});

void
BM_WeightedSumSkipMultiBf16(benchmark::State &state)
{
    const size_t rows = state.range(0), nq = state.range(1), d = 256;
    const float threshold = state.range(2) != 0 ? 0.1f : 0.f;
    auto e = randomVec(nq * rows, 3);
    for (float &v : e)
        v = v * 0.5f + 0.5f; // positive exp-like weights
    const auto m = randomVecBf16(rows * d, 4);
    Buf<float> acc(nq * d);
    std::vector<double> s(nq);
    for (auto _ : state) {
        std::fill(s.begin(), s.end(), 0.0);
        uint64_t kept = 0, skipped = 0;
        blas::weightedSumSkipMultiBf16(e.data(), nq, rows, m.data(),
                                       rows, d, d, threshold, s.data(),
                                       acc.data(), d, kept, skipped);
        benchmark::DoNotOptimize(acc.data());
        benchmark::DoNotOptimize(s.data());
    }
    state.SetItemsProcessed(state.iterations() * nq * rows * d);
}
BENCHMARK(BM_WeightedSumSkipMultiBf16)
    ->Args({512, 1, 0})
    ->Args({512, 16, 0})
    ->Args({512, 16, 1});

Buf<int8_t>
randomVecI8(size_t n, uint64_t seed)
{
    XorShiftRng rng(seed);
    Buf<int8_t> v(n);
    for (int8_t &x : v)
        x = static_cast<int8_t>(static_cast<int>(rng.below(256)) - 128);
    return v;
}

void
BM_DotBatchMultiI8(benchmark::State &state)
{
    // int8-storage counterpart of BM_DotBatchMulti at the same shape:
    // the rows stream at a quarter of the fp32 bytes and dequantize
    // in-register via the factored affine form (DESIGN.md §10).
    const size_t rows = state.range(0), nq = state.range(1), d = 256;
    const auto x = randomVec(nq * d, 1);
    const auto m = randomVecI8(rows * d, 2);
    Buf<float> out(nq * rows);
    for (auto _ : state) {
        blas::dotBatchMultiI8(x.data(), nq, d, m.data(), rows, d, d,
                              0.0123f, -0.456f, out.data(), rows);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * nq * rows * d);
}
BENCHMARK(BM_DotBatchMultiI8)
    ->Args({512, 1})
    ->Args({512, 3})
    ->Args({512, 4})
    ->Args({512, 8})
    ->Args({512, 16});

void
BM_WeightedSumSkipMultiI8(benchmark::State &state)
{
    const size_t rows = state.range(0), nq = state.range(1), d = 256;
    const float threshold = state.range(2) != 0 ? 0.1f : 0.f;
    auto e = randomVec(nq * rows, 3);
    for (float &v : e)
        v = v * 0.5f + 0.5f; // positive exp-like weights
    const auto m = randomVecI8(rows * d, 4);
    Buf<float> acc(nq * d);
    std::vector<double> s(nq);
    for (auto _ : state) {
        std::fill(s.begin(), s.end(), 0.0);
        uint64_t kept = 0, skipped = 0;
        blas::weightedSumSkipMultiI8(e.data(), nq, rows, m.data(),
                                     rows, d, d, 0.0123f, -0.456f,
                                     threshold, s.data(), acc.data(),
                                     d, kept, skipped);
        benchmark::DoNotOptimize(acc.data());
        benchmark::DoNotOptimize(s.data());
    }
    state.SetItemsProcessed(state.iterations() * nq * rows * d);
}
BENCHMARK(BM_WeightedSumSkipMultiI8)
    ->Args({512, 1, 0})
    ->Args({512, 16, 0})
    ->Args({512, 16, 1});

// --- Phase-1 streaming diagnostic (see the file header) ---------------

constexpr size_t kDiagDim = 128, kDiagChunk = 1024;

/**
 * The diagnostic's f32 M_IN, built once: whole 1024-row chunks
 * covering at least twice the LLC sysfs reports (256 MiB if it
 * reports none).
 */
const Buf<float> &
diagMatrix()
{
    static const Buf<float> m = [] {
        const size_t bytes =
            std::max<size_t>(2 * bench::llcBytes(), size_t{256} << 20);
        const size_t chunk_bytes = kDiagChunk * kDiagDim * sizeof(float);
        const size_t chunks = (bytes + chunk_bytes - 1) / chunk_bytes;
        return randomVec(chunks * kDiagChunk * kDiagDim, 21);
    }();
    return m;
}

size_t
diagChunks()
{
    return diagMatrix().size() / (kDiagChunk * kDiagDim);
}

void
BM_Phase1ReadSweep(benchmark::State &state)
{
    // The streamed dot's loads without its fmas: an 8-lane sum per
    // chunk call.
    const Buf<float> &m = diagMatrix();
    const size_t chunk = kDiagChunk * kDiagDim;
    for (auto _ : state) {
        float s = 0.f;
        for (size_t off = 0; off < m.size(); off += chunk)
            s += blas::sum(m.data() + off, chunk);
        benchmark::DoNotOptimize(s);
    }
    state.SetBytesProcessed(state.iterations() * m.size() * sizeof(float));
}
BENCHMARK(BM_Phase1ReadSweep)->Unit(benchmark::kMillisecond);

void
BM_Phase1CachedDot(benchmark::State &state)
{
    // The arithmetic alone: one cache-resident chunk, swept as many
    // times as the streamed dot makes chunk calls.
    const size_t nq = state.range(0);
    const Buf<float> &m = diagMatrix();
    const auto x = randomVec(nq * kDiagDim, 22);
    Buf<float> out(nq * kDiagChunk);
    for (auto _ : state) {
        for (size_t c = 0; c < diagChunks(); ++c)
            blas::dotBatchMulti(x.data(), nq, kDiagDim, m.data(),
                                kDiagChunk, kDiagDim, kDiagDim, out.data(),
                                kDiagChunk);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() * m.size() * sizeof(float));
}
BENCHMARK(BM_Phase1CachedDot)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void
BM_Phase1StreamedDot(benchmark::State &state)
{
    // The engine's phase-1 sweep on one thread: whole-chunk calls over
    // the DRAM-resident matrix, the row look-ahead off (second arg 0)
    // or at the f32 plan's distance, reaching into the next chunk.
    const size_t nq = state.range(0);
    const size_t ahead =
        state.range(1) != 0 ? runtime::kernelPlan("f32", nq).lookaheadRows
                            : 0;
    const Buf<float> &m = diagMatrix();
    const size_t chunks = diagChunks();
    const auto x = randomVec(nq * kDiagDim, 22);
    Buf<float> out(nq * kDiagChunk);
    for (auto _ : state) {
        for (size_t c = 0; c < chunks; ++c)
            blas::dotBatchMulti(
                x.data(), nq, kDiagDim, m.data() + c * kDiagChunk * kDiagDim,
                kDiagChunk, kDiagDim, kDiagDim, out.data(), kDiagChunk,
                {ahead, c + 1 < chunks ? kDiagChunk : 0});
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() * m.size() * sizeof(float));
    state.SetLabel("lookahead_rows=" + std::to_string(ahead));
}
BENCHMARK(BM_Phase1StreamedDot)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Unit(benchmark::kMillisecond);

void
BM_ExpInplace(benchmark::State &state)
{
    const size_t n = state.range(0);
    const auto x = randomVec(n, 5);
    Buf<float> work(n);
    for (auto _ : state) {
        blas::copy(x.data(), work.data(), n);
        blas::expInplace(work.data(), n);
        benchmark::DoNotOptimize(work.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExpInplace)->Arg(1000)->Arg(100000);

void
BM_Axpy(benchmark::State &state)
{
    const size_t n = state.range(0);
    const auto x = randomVec(n, 3);
    auto y = randomVec(n, 4);
    for (auto _ : state) {
        blas::axpy(1.1f, x.data(), y.data(), n);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Axpy)->Arg(48)->Arg(4096);

void
BM_Gemv(benchmark::State &state)
{
    const size_t rows = state.range(0), cols = 48;
    const auto a = randomVec(rows * cols, 5);
    const auto x = randomVec(cols, 6);
    Buf<float> y(rows);
    for (auto _ : state) {
        blas::gemv(a.data(), rows, cols, x.data(), y.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_Gemv)->Arg(1000)->Arg(10000);

void
BM_Gemm(benchmark::State &state)
{
    const size_t m = state.range(0), k = 48, n = 48;
    const auto a = randomVec(m * k, 7);
    const auto b = randomVec(k * n, 8);
    Buf<float> c(m * n);
    for (auto _ : state) {
        blas::gemm(a.data(), b.data(), c.data(), m, k, n);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(512);

// gemm with the embedding-sized inner dimension (d=1024): the shape
// the trainer's projection layers stress.
void
BM_Gemm1024(benchmark::State &state)
{
    const size_t m = 64, k = 1024, n = 64;
    const auto a = randomVec(m * k, 7);
    const auto b = randomVec(k * n, 8);
    Buf<float> c(m * n);
    for (auto _ : state) {
        blas::gemm(a.data(), b.data(), c.data(), m, k, n);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_Gemm1024);

void
BM_Gemm1024Scalar(benchmark::State &state)
{
    const size_t m = 64, k = 1024, n = 64;
    const auto a = randomVec(m * k, 7);
    const auto b = randomVec(k * n, 8);
    Buf<float> c(m * n);
    for (auto _ : state) {
        blas::scalar::gemm(a.data(), b.data(), c.data(), m, k, n,
                           false);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_Gemm1024Scalar);

void
BM_Softmax(benchmark::State &state)
{
    const size_t n = state.range(0);
    const auto x = randomVec(n, 9);
    Buf<float> work(n);
    for (auto _ : state) {
        blas::copy(x.data(), work.data(), n);
        blas::softmax(work.data(), n);
        benchmark::DoNotOptimize(work.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Softmax)->Arg(1000)->Arg(100000);

core::KnowledgeBase &
sharedKb()
{
    static core::KnowledgeBase kb = [] {
        core::KnowledgeBase k(48);
        XorShiftRng rng(10);
        std::vector<float> a(48), b(48);
        for (size_t i = 0; i < 65536; ++i) {
            for (size_t e = 0; e < 48; ++e) {
                a[e] = rng.uniformRange(-0.3f, 0.3f);
                b[e] = rng.uniformRange(-0.3f, 0.3f);
            }
            k.addSentence(a.data(), b.data());
        }
        return k;
    }();
    return kb;
}

void
BM_BaselineEngine(benchmark::State &state)
{
    core::EngineConfig cfg;
    core::BaselineEngine engine(sharedKb(), cfg);
    const auto u = randomVec(48, 11);
    std::vector<float> o(48);
    for (auto _ : state) {
        engine.infer(u.data(), o.data());
        benchmark::DoNotOptimize(o.data());
    }
    state.SetItemsProcessed(state.iterations() * sharedKb().size());
}
BENCHMARK(BM_BaselineEngine);

void
BM_ColumnEngine(benchmark::State &state)
{
    core::EngineConfig cfg;
    cfg.chunkSize = state.range(0);
    cfg.streaming = state.range(1) != 0;
    core::ColumnEngine engine(sharedKb(), cfg);
    const auto u = randomVec(48, 12);
    std::vector<float> o(48);
    for (auto _ : state) {
        engine.infer(u.data(), o.data());
        benchmark::DoNotOptimize(o.data());
    }
    state.SetItemsProcessed(state.iterations() * sharedKb().size());
}
BENCHMARK(BM_ColumnEngine)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({100, 1})
    ->Args({10000, 1});

void
BM_MnnFastEngine(benchmark::State &state)
{
    core::EngineConfig cfg;
    cfg.chunkSize = 1000;
    cfg.streaming = true;
    cfg.skipThreshold = 0.1f;
    core::ColumnEngine engine(sharedKb(), cfg);
    const auto u = randomVec(48, 13);
    std::vector<float> o(48);
    for (auto _ : state) {
        engine.infer(u.data(), o.data());
        benchmark::DoNotOptimize(o.data());
    }
    state.SetItemsProcessed(state.iterations() * sharedKb().size());
}
BENCHMARK(BM_MnnFastEngine);

} // namespace

namespace {

/**
 * Splice the constant kernel plan table (runtime::kPlanTable) into the
 * benchmark JSON artifact as a top-level "kernel_tuner" key, and the
 * run's CPU steal share with its comparability verdict
 * (bench_common.hh) as "cpu_steal_frac" and "comparable", keeping the
 * file valid JSON.
 */
void
appendPlanTable(const std::string &path, double steal_frac)
{
    std::ifstream in(path);
    if (!in)
        return;
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    in.close();
    const size_t close = text.find_last_of('}');
    if (close == std::string::npos)
        return;
    std::string spliced = text.substr(0, close);
    // Trim trailing whitespace back to the last value before the brace.
    while (!spliced.empty() &&
           (spliced.back() == '\n' || spliced.back() == ' ' ||
            spliced.back() == '\t' || spliced.back() == '\r'))
        spliced.pop_back();
    spliced += ",\n  \"kernel_tuner\": ";
    spliced += runtime::KernelTuner::instance().exportJson();
    spliced += ",\n  \"cpu_steal_frac\": ";
    spliced += std::to_string(steal_frac);
    spliced += ",\n  \"comparable\": ";
    spliced += steal_frac <= bench::kMaxStealFrac ? "true" : "false";
    spliced += "\n}\n";
    std::ofstream out(path, std::ios::trunc);
    out << spliced;
}

} // namespace

/**
 * Like BENCHMARK_MAIN(), but defaults --benchmark_out to
 * ./BENCH_kernels.json (JSON format) so every run leaves a
 * machine-readable record (with the kernel plan table and CPU steal
 * spliced in);
 * explicit --benchmark_out wins and is left untouched.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], "--benchmark_out", 15) == 0)
            has_out = true;
    std::string out_flag = "--benchmark_out=BENCH_kernels.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    // Provenance: kernel numbers count only from an optimized build
    // with the SIMD backend active.
    benchmark::AddCustomContext("mnnfast_build_type", MNNFAST_BUILD_TYPE);
    benchmark::AddCustomContext("kernel_backend",
                                blas::kernelBackendName());
    benchmark::AddCustomContext("git_revision", bench::gitRevision());
    benchmark::AddCustomContext("source_digest", bench::sourceDigest());
    benchmark::AddCustomContext("llc_bytes",
                                std::to_string(bench::llcBytes()));
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    const bench::StealClock steal;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!has_out)
        appendPlanTable("BENCH_kernels.json", steal.frac());
    return 0;
}
