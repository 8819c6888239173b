#include "core/chunk_summary_index.hh"

#include <algorithm>
#include <limits>

#include "util/bf16.hh"
#include "util/logging.hh"

namespace mnnfast::core {

namespace {

float widen(float v) { return v; }
float widen(uint16_t h) { return bf16ToFloat(h); }

/**
 * Widen n rows of ed elements (fp32, or bf16 decoded exactly) and
 * fold them into the per-dimension envelope [lo, hi].
 */
template <typename T>
void
envelopeRows(const T *rows, size_t n, size_t ed, float *lo, float *hi)
{
    for (size_t r = 0; r < n; ++r) {
        const T *row = rows + r * ed;
        for (size_t d = 0; d < ed; ++d) {
            const float v = widen(row[d]);
            lo[d] = std::min(lo[d], v);
            hi[d] = std::max(hi[d], v);
        }
    }
}

} // namespace

ChunkSummaryIndex::ChunkSummaryIndex(const KnowledgeBase &kb,
                                     size_t chunk_rows)
    : ed(kb.dim()),
      chunk(chunk_rows),
      nChunks(0),
      nRows(kb.size())
{
    if (chunk_rows == 0)
        fatal("ChunkSummaryIndex: chunk_rows must be nonzero");
    if (nRows == 0)
        fatal("ChunkSummaryIndex: empty knowledge base");
    nChunks = (nRows + chunk - 1) / chunk;
    loV.resize(nChunks * ed);
    hiV.resize(nChunks * ed);

    for (size_t c = 0; c < nChunks; ++c) {
        const size_t c0 = c * chunk;
        const size_t c1 = std::min(c0 + chunk, nRows);
        float *lo = loV.data() + c * ed;
        float *hi = hiV.data() + c * ed;
        std::fill(lo, lo + ed, std::numeric_limits<float>::infinity());
        std::fill(hi, hi + ed,
                  -std::numeric_limits<float>::infinity());

        switch (kb.precision()) {
        case Precision::F32:
            envelopeRows(kb.minRow(c0), c1 - c0, ed, lo, hi);
            break;
        case Precision::BF16:
            envelopeRows(kb.minRow16(c0), c1 - c0, ed, lo, hi);
            break;
        case Precision::I8:
            // Per quantization group: int8 extremes first, then one
            // affine map per dimension. scale >= 0 by construction
            // ((hi-lo)/255), so the int8 order is the dequantized
            // order and the extremes commute with the map.
            for (size_t g0 = c0; g0 < c1;) {
                const size_t g1 = std::min(kb.i8GroupEnd(g0), c1);
                const float scale = kb.minScale(g0);
                const float zero = kb.minZero(g0);
                std::vector<int8_t> qlo(ed, int8_t(127));
                std::vector<int8_t> qhi(ed, int8_t(-128));
                for (size_t r = g0; r < g1; ++r) {
                    const int8_t *row = kb.minRow8(r);
                    for (size_t d = 0; d < ed; ++d) {
                        qlo[d] = std::min(qlo[d], row[d]);
                        qhi[d] = std::max(qhi[d], row[d]);
                    }
                }
                for (size_t d = 0; d < ed; ++d) {
                    lo[d] = std::min(lo[d],
                                     scale * float(qlo[d]) + zero);
                    hi[d] = std::max(hi[d],
                                     scale * float(qhi[d]) + zero);
                }
                g0 = g1;
            }
            break;
        }
    }
}

} // namespace mnnfast::core
