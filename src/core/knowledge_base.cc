#include "core/knowledge_base.hh"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "util/bf16.hh"
#include "util/logging.hh"

namespace mnnfast::core {
namespace {

/**
 * Quantize n floats under the affine code x_hat = scale*q + zero
 * (blas::quantizeI8: round to nearest even, clamped to the int8
 * range), for both the single-row and the requantize-the-tail-chunk
 * paths so their results agree by construction. Elementwise, so the
 * staged rows of a tail chunk, contiguous like their stored codes,
 * take one call.
 */
void
quantizeRows(const float *src, int8_t *dst, size_t n, float scale,
            float zero)
{
    if (scale == 0.f) { // constant chunk: every element equals zero
        std::memset(dst, 0, n);
        return;
    }
    blas::quantizeI8(src, n, zero, 1.f / scale, dst);
}

/** Element range of one row, and whether every element is finite. */
struct RowRange
{
    float lo, hi;
    bool finite;
};

/**
 * The range of n > 0 floats in eight independent chains of the
 * compare-selects minps/maxps implement, which the compiler
 * vectorizes (std::minmax_element's branchy scan cost more than the
 * whole int8 encode). v * 0 is NaN exactly when v is NaN or infinite,
 * so `finite` covers every element, not only the extremes. Which of
 * two equal zeros is the extreme cannot change a stored bit: the code
 * depends on hi - lo and lo + 128 * scale only.
 */
RowRange
rowRange(const float *x, size_t n)
{
    constexpr size_t kChains = 8;
    float lo[kChains], hi[kChains], probe[kChains] = {};
    for (size_t j = 0; j < kChains; ++j)
        lo[j] = hi[j] = x[0];
    size_t e = 0;
    for (; e + kChains <= n; e += kChains)
        for (size_t j = 0; j < kChains; ++j) {
            const float v = x[e + j];
            lo[j] = v < lo[j] ? v : lo[j];
            hi[j] = hi[j] < v ? v : hi[j];
            probe[j] += v * 0.f;
        }
    for (; e < n; ++e) {
        const float v = x[e];
        lo[0] = v < lo[0] ? v : lo[0];
        hi[0] = hi[0] < v ? v : hi[0];
        probe[0] += v * 0.f;
    }
    float p = probe[0];
    RowRange r{lo[0], hi[0], true};
    for (size_t j = 1; j < kChains; ++j) {
        r.lo = lo[j] < r.lo ? lo[j] : r.lo;
        r.hi = r.hi < hi[j] ? hi[j] : r.hi;
        p += probe[j];
    }
    r.finite = p == 0.f;
    return r;
}

/**
 * Run call(g0, g1, ahead) once per int8 quantization group
 * [g0, g1) of rows [begin, end). A named look-ahead runs on across
 * the split: the call ending at g1 also owns the (end - g1) rows left
 * in the range. Without one, every call takes the int8 default.
 */
template <typename Call>
void
forEachI8Group(const KnowledgeBase &kb, size_t begin, size_t end,
               const std::optional<blas::RowLookahead> &ahead, Call call)
{
    for (size_t g0 = begin; g0 < end;) {
        const size_t g1 = std::min(end, kb.i8GroupEnd(g0));
        call(g0, g1,
             ahead ? blas::RowLookahead{ahead->rows,
                                        ahead->beyond + (end - g1)}
                   : blas::kI8CallLookahead);
        g0 = g1;
    }
}

/** The storage precision whose elements are T. */
template <typename T>
constexpr Precision
storedAs()
{
    if constexpr (std::is_same_v<T, float>)
        return Precision::F32;
    else if constexpr (std::is_same_v<T, uint16_t>)
        return Precision::BF16;
    else
        return Precision::I8;
}

/** Names in the wrong-precision panics, indexed by Precision. */
const char *const kPrecisionTag[] = {"F32", "BF16", "I8"};

} // namespace

const char *
precisionName(Precision p)
{
    switch (p) {
      case Precision::F32: return "f32";
      case Precision::BF16: return "bf16";
      case Precision::I8: return "i8";
    }
    panic("unknown Precision %d", static_cast<int>(p));
}

size_t
precisionBytes(Precision p)
{
    switch (p) {
      case Precision::F32: return sizeof(float);
      case Precision::BF16: return sizeof(uint16_t);
      case Precision::I8: return sizeof(int8_t);
    }
    panic("unknown Precision %d", static_cast<int>(p));
}

KnowledgeBase::KnowledgeBase(size_t embedding_dim, Precision precision,
                             size_t i8_chunk_rows)
    : ed(embedding_dim), prec(precision), qchunk(i8_chunk_rows)
{
    if (ed == 0)
        fatal("KnowledgeBase embedding dimension must be nonzero");
    if (prec == Precision::I8 && qchunk == 0)
        fatal("KnowledgeBase I8 chunk rows must be nonzero");
}

void
KnowledgeBase::reserve(size_t ns)
{
    if (viewed)
        fatal("reserve() on a knowledge-base view");
    if (ns > capacity) {
        grow(ns);
        ++gen; // the rows moved
    }
}

void
KnowledgeBase::clear()
{
    if (viewed)
        fatal("clear() on a knowledge-base view");
    ++gen;
    count = 0;
    for (RowStore *m : {&in, &out}) {
        m->scaleV.clear();
        m->zeroV.clear();
    }
}

KnowledgeBase
KnowledgeBase::view(size_t row_begin, size_t row_end) const
{
    if (row_begin >= row_end || row_end > count)
        fatal("knowledge-base view [%zu, %zu) outside [0, %zu)",
              row_begin, row_end, count);
    KnowledgeBase v(ed, prec, qchunk);
    v.viewed = true;
    v.count = row_end - row_begin;
    v.rowOff = rowOff + row_begin;
    const size_t row_bytes = ed * elemBytes();
    for (auto [dst, src] : {std::pair{&v.in, &in}, {&v.out, &out}}) {
        dst->rows = src->rows + row_begin * row_bytes;
        dst->scales = src->scales;
        dst->zeros = src->zeros;
    }
    return v;
}

void
KnowledgeBase::grow(size_t min_capacity)
{
    const size_t new_cap = std::max(min_capacity,
                                    std::max<size_t>(16, capacity * 2));
    const size_t row_bytes = ed * elemBytes();
    for (RowStore *m : {&in, &out}) {
        AlignedBuffer<std::byte> bigger(new_cap * row_bytes);
        if (count > 0)
            std::memcpy(bigger.data(), m->store.data(),
                        count * row_bytes);
        m->store = std::move(bigger);
        m->rows = m->store.data();
    }
    capacity = new_cap;
}

void
KnowledgeBase::RowStore::appendI8(const float *row, size_t i, size_t ed,
                                  size_t qchunk)
{
    if (tail.empty())
        tail.resize(qchunk * ed);
    const size_t k = i % qchunk; // row within the tail chunk
    const size_t c = i / qchunk;
    if (k == 0) { // starting a fresh quantization chunk
        scaleV.push_back(0.f);
        zeroV.push_back(0.f);
        scales = scaleV.data();
        zeros = zeroV.data();
    }
    // Stage the fp32 row, and either quantize just this row under the
    // chunk's frozen-so-far code, or — when the row extends the
    // chunk's element range — recompute the code and requantize the
    // whole staged tail chunk so the stored bytes match a
    // from-scratch quantization.
    const RowRange range = rowRange(row, ed);
    if (!range.finite)
        fatal("I8 knowledge bases require finite embeddings");
    float *slot = tail.data() + k * ed;
    std::memcpy(slot, row, ed * sizeof(float));
    int8_t *base = reinterpret_cast<int8_t *>(store.data()) + (i - k) * ed;
    if (k == 0 || range.lo < lo || range.hi > hi) {
        lo = (k == 0) ? range.lo : std::min(lo, range.lo);
        hi = (k == 0) ? range.hi : std::max(hi, range.hi);
        const float scale = (hi > lo) ? (hi - lo) / 255.f : 0.f;
        const float zero = lo + 128.f * scale;
        scaleV[c] = scale;
        zeroV[c] = zero;
        quantizeRows(tail.data(), base, (k + 1) * ed, scale, zero);
    } else {
        quantizeRows(slot, base + k * ed, ed, scaleV[c], zeroV[c]);
    }
}

void
KnowledgeBase::addSentence(const float *min_row, const float *mout_row)
{
    if (viewed)
        fatal("addSentence() on a knowledge-base view");
    ++gen;
    if (count == capacity)
        grow(count + 1);
    for (auto [m, row] : {std::pair{&in, min_row}, {&out, mout_row}}) {
        std::byte *dst = m->store.data() + count * ed * elemBytes();
        switch (prec) {
          case Precision::F32:
            std::memcpy(dst, row, ed * sizeof(float));
            break;
          case Precision::BF16: {
            uint16_t *h = reinterpret_cast<uint16_t *>(dst);
            for (size_t e = 0; e < ed; ++e)
                h[e] = bf16FromFloat(row[e]);
            break;
          }
          case Precision::I8:
            m->appendI8(row, count, ed, qchunk);
            break;
        }
    }
    ++count;
}

template <typename T>
const T *
KnowledgeBase::typedRows(const RowStore &m, const char *what) const
{
    constexpr Precision want = storedAs<T>();
    if (prec != want)
        panic("%s on a non-%s knowledge base", what,
              kPrecisionTag[static_cast<int>(want)]);
    return reinterpret_cast<const T *>(m.rows);
}

float
KnowledgeBase::code(const float *codes, size_t i, const char *what) const
{
    mnn_assert(i < count, "knowledge-base row out of range");
    if (prec != Precision::I8)
        panic("%s on a non-I8 knowledge base", what);
    return codes[(rowOff + i) / qchunk];
}

const float *
KnowledgeBase::minData() const
{
    return typedRows<float>(in, "minData()");
}

const float *
KnowledgeBase::moutData() const
{
    return typedRows<float>(out, "moutData()");
}

const uint16_t *
KnowledgeBase::minData16() const
{
    return typedRows<uint16_t>(in, "minData16()");
}

const uint16_t *
KnowledgeBase::moutData16() const
{
    return typedRows<uint16_t>(out, "moutData16()");
}

const int8_t *
KnowledgeBase::minData8() const
{
    return typedRows<int8_t>(in, "minData8()");
}

const int8_t *
KnowledgeBase::moutData8() const
{
    return typedRows<int8_t>(out, "moutData8()");
}

const float *
KnowledgeBase::minRow(size_t i) const
{
    mnn_assert(i < count, "M_IN row out of range");
    return minData() + i * ed;
}

const float *
KnowledgeBase::moutRow(size_t i) const
{
    mnn_assert(i < count, "M_OUT row out of range");
    return moutData() + i * ed;
}

const uint16_t *
KnowledgeBase::minRow16(size_t i) const
{
    mnn_assert(i < count, "M_IN row out of range");
    return minData16() + i * ed;
}

const uint16_t *
KnowledgeBase::moutRow16(size_t i) const
{
    mnn_assert(i < count, "M_OUT row out of range");
    return moutData16() + i * ed;
}

const int8_t *
KnowledgeBase::minRow8(size_t i) const
{
    mnn_assert(i < count, "M_IN row out of range");
    return minData8() + i * ed;
}

const int8_t *
KnowledgeBase::moutRow8(size_t i) const
{
    mnn_assert(i < count, "M_OUT row out of range");
    return moutData8() + i * ed;
}

size_t
KnowledgeBase::i8ChunkRows() const
{
    mnn_assert(prec == Precision::I8,
               "i8ChunkRows() on a non-I8 knowledge base");
    return qchunk;
}

float
KnowledgeBase::minScale(size_t i) const
{
    return code(in.scales, i, "minScale()");
}

float
KnowledgeBase::minZero(size_t i) const
{
    return code(in.zeros, i, "minZero()");
}

float
KnowledgeBase::moutScale(size_t i) const
{
    return code(out.scales, i, "moutScale()");
}

float
KnowledgeBase::moutZero(size_t i) const
{
    return code(out.zeros, i, "moutZero()");
}

size_t
KnowledgeBase::i8GroupEnd(size_t i) const
{
    mnn_assert(prec == Precision::I8,
               "i8GroupEnd() on a non-I8 knowledge base");
    mnn_assert(i < count, "i8GroupEnd row out of range");
    const size_t next = ((rowOff + i) / qchunk + 1) * qchunk;
    return std::min(next - rowOff, count);
}

void
KnowledgeBase::dotMin(const float *u, size_t nq, size_t begin,
                      size_t end, float *out, size_t ostride,
                      std::optional<blas::RowLookahead> ahead) const
{
    mnn_assert(begin < end && end <= count, "dotMin row range");
    switch (prec) {
      case Precision::F32:
        blas::dotBatchMulti(u, nq, ed, minRow(begin), end - begin, ed,
                            ed, out, ostride, ahead.value_or(
                                blas::RowLookahead{}));
        return;
      case Precision::BF16:
        blas::dotBatchMultiBf16(u, nq, ed, minRow16(begin), end - begin,
                                ed, ed, out, ostride, ahead.value_or(
                                    blas::RowLookahead{}));
        return;
      case Precision::I8:
        forEachI8Group(*this, begin, end, ahead,
                       [&](size_t g0, size_t g1, blas::RowLookahead a) {
                           blas::dotBatchMultiI8(
                               u, nq, ed, minRow8(g0), g1 - g0, ed, ed,
                               minScale(g0), minZero(g0),
                               out + (g0 - begin), ostride, a);
                       });
        return;
    }
}

void
KnowledgeBase::weightedSumMout(const float *e, size_t nq, size_t estride,
                               size_t begin, size_t end,
                               float threshold, double *running_sums,
                               float *acc, uint64_t &kept,
                               uint64_t &skipped,
                               std::optional<blas::RowLookahead> ahead)
    const
{
    mnn_assert(begin < end && end <= count, "weightedSumMout row range");
    switch (prec) {
      case Precision::F32:
        blas::weightedSumSkipMulti(e, nq, estride, moutRow(begin),
                                   end - begin, ed, ed, threshold,
                                   running_sums, acc, ed, kept, skipped,
                                   ahead.value_or(blas::RowLookahead{}));
        return;
      case Precision::BF16:
        blas::weightedSumSkipMultiBf16(
            e, nq, estride, moutRow16(begin), end - begin, ed, ed,
            threshold, running_sums, acc, ed, kept, skipped,
            ahead.value_or(blas::RowLookahead{}));
        return;
      case Precision::I8:
        forEachI8Group(
            *this, begin, end, ahead,
            [&](size_t g0, size_t g1, blas::RowLookahead a) {
                blas::weightedSumSkipMultiI8(
                    e + (g0 - begin), nq, estride, moutRow8(g0), g1 - g0,
                    ed, ed, moutScale(g0), moutZero(g0), threshold,
                    running_sums, acc, ed, kept, skipped, a);
            });
        return;
    }
}

} // namespace mnnfast::core
