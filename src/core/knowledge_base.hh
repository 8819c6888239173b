/**
 * @file
 * The input/output memory (M_IN / M_OUT) of a memory network: the
 * embedded story sentences the inference operation reasons over.
 */

#ifndef MNNFAST_CORE_KNOWLEDGE_BASE_HH
#define MNNFAST_CORE_KNOWLEDGE_BASE_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "blas/kernels.hh"
#include "util/aligned_buffer.hh"

namespace mnnfast::core {

/**
 * Storage precision of the knowledge-base matrices. The KB stream is
 * the dominant memory traffic of MemNN inference, so halving the
 * element size halves the bytes every chunk pulls from DRAM; BF16
 * stores rows as bfloat16 (top 16 bits of the fp32 pattern,
 * nearest-even rounded at ingest) and the fused bf16 kernels
 * upconvert on the fly. I8 halves the stream again: rows are stored
 * as int8 under a per-chunk affine code (x ~ scale*q + zero, q in
 * [-128, 127]) and the fused i8 kernels dequantize on the fly. F32 is
 * the default and the accuracy reference. See DESIGN.md §7 and §10.
 */
enum class Precision {
    F32,  ///< fp32 rows (reference; exact)
    BF16, ///< bfloat16 rows (half the bytes, ~2^-8 relative rounding)
    I8,   ///< int8 rows (quarter the bytes, per-chunk affine code)
};

/** Display name: "f32", "bf16" or "i8". */
const char *precisionName(Precision p);

/** Bytes per stored element: 4 (F32), 2 (BF16) or 1 (I8). */
size_t precisionBytes(Precision p);

/**
 * Default rows per int8 quantization chunk. Matches the default
 * EngineConfig::chunkSize so one engine chunk reads one scale/zero
 * pair, but any value works: the row sweeps (KnowledgeBase::dotMin,
 * weightedSumMout) split their kernel calls at quantization-chunk
 * boundaries.
 */
inline constexpr size_t kI8ChunkRowsDefault = 1000;

/**
 * Paired row-major (ns x ed) matrices M_IN and M_OUT, growable by
 * appending embedded sentences. Rows are appended in story order so
 * row index == sentence index (the temporal position used by the
 * trained model's temporal embeddings).
 *
 * Rows are always *ingested* as fp32 (the embedders produce floats);
 * in BF16 mode they are rounded to bfloat16 on append and stay bf16
 * in memory. In I8 mode rows are affine-quantized to int8 at append
 * time under one (scale, zero) pair per quantization chunk of
 * i8ChunkRows() consecutive rows, per matrix: the chunk's running
 * [lo, hi] element range maps onto q in [-128, 127] via
 * x_hat = scale*q + zero with scale = (hi-lo)/255 and
 * zero = lo + 128*scale. The fp32 rows of the current (tail) chunk
 * are staged so a range-extending append requantizes the whole tail
 * chunk from the exact inputs — the stored bytes therefore depend
 * only on the row contents and chunk boundaries, exactly as if the
 * full chunk had been quantized at once. The typed accessors are
 * precision-checked: minData()/minRow() are valid only in F32 mode,
 * minData16()/minRow16() only in BF16 mode, minData8()/minRow8()
 * (plus the per-row minScale()/minZero() code lookups) only in I8
 * mode, so a caller can never silently reinterpret one layout as
 * another.
 *
 * Each matrix is one row store: an AlignedBuffer of capacity x ed
 * elements of the storage precision (64-byte aligned; from 2 MiB up
 * on 2 MiB pages where the host grants them), plus, in I8 mode,
 * that matrix's per-chunk codes and tail-chunk staging. Every read
 * goes through one row base (and, in I8 mode, one pair of code
 * arrays), which a view points into its parent's storage, so owners
 * and views share one read path; only the encode in addSentence()
 * and the kernel choice in the sweeps below depend on the precision.
 *
 * The engines reach the rows through two const row-range sweeps,
 * dotMin() (phase 1) and weightedSumMout() (phase 3), which hold the
 * only storage-precision switch of the fused sweep: they pick the
 * typed rows and the matching blas kernel, and in I8 mode make one
 * kernel call per quantization group. Concurrent sweeps over one
 * knowledge base are safe; they only read it.
 *
 * view() produces a non-owning window over a contiguous row range —
 * the storage behind knowledge-base sharding (sharded_knowledge_base
 * .hh). A view aliases the parent's rows (zero copy), reports the
 * window's size()/bytes(), and refuses mutation (addSentence/reserve/
 * clear are fatal); the parent must outlive every view.
 */
class KnowledgeBase
{
  public:
    /**
     * Create an empty knowledge base with embedding dimension ed.
     * `i8_chunk_rows` sets the I8 quantization-chunk size (rows per
     * scale/zero pair; ignored in F32/BF16 modes, must be nonzero).
     */
    explicit KnowledgeBase(size_t embedding_dim,
                           Precision precision = Precision::F32,
                           size_t i8_chunk_rows = kI8ChunkRowsDefault);

    /** Pre-allocate capacity for `ns` sentences. */
    void reserve(size_t ns);

    /**
     * Append one embedded sentence: min_row goes to M_IN, mout_row to
     * M_OUT; both are ed floats (rounded to bf16 in BF16 mode).
     */
    void addSentence(const float *min_row, const float *mout_row);

    /** Remove all sentences (capacity retained). Fatal on a view. */
    void clear();

    /**
     * Non-owning window over rows [row_begin, row_end) of this
     * knowledge base (same embedding dimension and precision; the
     * range must be non-empty and in bounds). The view aliases this
     * KB's storage — no rows are copied — so it is valid only while
     * this KB is alive and un-mutated. Views are read-only: mutating
     * calls on them are fatal. Taking a view of a view is allowed and
     * windows the underlying rows.
     */
    KnowledgeBase view(size_t row_begin, size_t row_end) const;

    /**
     * Bumped by every addSentence, clear and reallocating reserve: a
     * knowledge base whose generation has not changed holds the same
     * rows at the same addresses (a view's never changes). Engines
     * rebuild what they derive from the rows when it changes.
     */
    uint64_t generation() const { return gen; }

    /** True for non-owning views produced by view(). */
    bool isView() const { return viewed; }

    /** Number of stored sentences (ns). */
    size_t size() const { return count; }

    /** Embedding dimension (ed). */
    size_t dim() const { return ed; }

    /** Storage precision of the M_IN/M_OUT rows. */
    Precision precision() const { return prec; }

    /** Bytes per stored element (4 for F32, 2 for BF16, 1 for I8). */
    size_t elemBytes() const { return precisionBytes(prec); }

    /** Row-major (ns x ed) input memory (F32 mode only). */
    const float *minData() const;

    /** Row-major (ns x ed) output memory (F32 mode only). */
    const float *moutData() const;

    /** Row-major (ns x ed) bf16 input memory (BF16 mode only). */
    const uint16_t *minData16() const;

    /** Row-major (ns x ed) bf16 output memory (BF16 mode only). */
    const uint16_t *moutData16() const;

    /** Row i of M_IN (F32 mode only). */
    const float *minRow(size_t i) const;

    /** Row i of M_OUT (F32 mode only). */
    const float *moutRow(size_t i) const;

    /** Row i of M_IN as bf16 (BF16 mode only). */
    const uint16_t *minRow16(size_t i) const;

    /** Row i of M_OUT as bf16 (BF16 mode only). */
    const uint16_t *moutRow16(size_t i) const;

    /** Row-major (ns x ed) int8 input memory (I8 mode only). */
    const int8_t *minData8() const;

    /** Row-major (ns x ed) int8 output memory (I8 mode only). */
    const int8_t *moutData8() const;

    /** Row i of M_IN as int8 (I8 mode only). */
    const int8_t *minRow8(size_t i) const;

    /** Row i of M_OUT as int8 (I8 mode only). */
    const int8_t *moutRow8(size_t i) const;

    /** Rows per int8 quantization chunk (I8 mode only). */
    size_t i8ChunkRows() const;

    /** Dequantization scale of row i's M_IN chunk (I8 mode only). */
    float minScale(size_t i) const;

    /** Dequantization zero of row i's M_IN chunk (I8 mode only). */
    float minZero(size_t i) const;

    /** Dequantization scale of row i's M_OUT chunk (I8 mode only). */
    float moutScale(size_t i) const;

    /** Dequantization zero of row i's M_OUT chunk (I8 mode only). */
    float moutZero(size_t i) const;

    /**
     * First row index after `i` where the (scale, zero) pair may
     * change, clamped to size() — i.e. rows [i, i8GroupEnd(i)) share
     * row i's quantization code. Views may start mid-chunk (sharding
     * cuts at engine chunk boundaries, which need not be quantization
     * boundaries), so the first group of a view can be shorter than
     * i8ChunkRows(). The row sweeps below split their kernel calls
     * here; the chunk-summary index reduces per group. I8 mode only.
     */
    size_t i8GroupEnd(size_t i) const;

    /**
     * Phase-1 sweep over M_IN rows [begin, end) (non-empty, in
     * bounds) for nq questions of dim() floats each, contiguous in u:
     *
     *   out[q * ostride + (r - begin)] = u_q . M_IN[r]
     *
     * through the fused dot kernel of this precision (blas::
     * dotBatchMulti and its Bf16/I8 forms). In I8 mode it makes one
     * call per quantization group [g0, min(end, i8GroupEnd(g0))),
     * with that group's scale and zero; the split cannot change a
     * result bit (kernels.hh). `ahead` is the look-ahead of the whole
     * range: ahead->beyond counts rows past `end`, and a split call
     * ending at g1 gets beyond + (end - g1), so the look-ahead runs
     * on across group ends. Without one, each call takes its kernel's
     * default (none for F32 and BF16, blas::kI8CallLookahead for I8).
     */
    void dotMin(const float *u, size_t nq, size_t begin, size_t end,
                float *out, size_t ostride,
                std::optional<blas::RowLookahead> ahead = {}) const;

    /**
     * Phase-3 sweep: the blas::weightedSumSkipMulti contract over
     * M_OUT rows [begin, end) (non-empty, in bounds) for nq
     * questions, with e[q * estride + (r - begin)] the e value of
     * (q, r) and acc holding nq accumulators of dim() floats each,
     * contiguous. Threshold 0 is the dense weighted sum. The I8 group
     * split and the look-ahead rule are dotMin's.
     */
    void weightedSumMout(const float *e, size_t nq, size_t estride,
                         size_t begin, size_t end, float threshold,
                         double *running_sums, float *acc,
                         uint64_t &kept, uint64_t &skipped,
                         std::optional<blas::RowLookahead> ahead =
                             {}) const;

    /**
     * Total bytes held by M_IN + M_OUT (for footprint and traffic
     * reporting): element size honest, not hard-coded fp32. The I8
     * per-chunk scale/zero metadata (16 bytes per i8ChunkRows() rows)
     * is excluded — it is noise next to the row payload.
     */
    size_t bytes() const { return 2 * count * ed * elemBytes(); }

  private:
    /**
     * One matrix (M_IN or M_OUT). Readers use only the first three
     * fields: the row base and, in I8 mode, one scale/zero pair per
     * quantization chunk of the owning KB (indexed through rowOff).
     * An owner points them at its own storage below; a view points
     * them at its parent's, so owners and views read alike.
     */
    struct RowStore
    {
        const std::byte *rows = nullptr; ///< row 0
        const float *scales = nullptr;   ///< I8 per-chunk scales
        const float *zeros = nullptr;    ///< I8 per-chunk zeros

        // Owner storage: capacity x ed elements of the KB's
        // precision, an AlignedBuffer, zero-filled; in I8 mode one
        // code per started chunk, the fp32 staging copy of the tail
        // chunk (allocated on first append) and its running element
        // range. Empty in a view.
        AlignedBuffer<std::byte> store;
        std::vector<float> scaleV, zeroV;
        std::vector<float> tail;
        float lo = 0.f, hi = 0.f;

        /** I8 mode: quantize `row` into row i, the next one. */
        void appendI8(const float *row, size_t i, size_t ed,
                      size_t qchunk);
    };

    void grow(size_t min_capacity);
    template <typename T>
    const T *typedRows(const RowStore &m, const char *what) const;
    float code(const float *codes, size_t i, const char *what) const;

    size_t ed;
    Precision prec;
    size_t qchunk; ///< I8 quantization-chunk rows
    size_t count = 0;
    size_t capacity = 0;
    uint64_t gen = 0; ///< see generation()
    bool viewed = false;
    size_t rowOff = 0; ///< row 0's index in the owner (views)
    RowStore in;  ///< M_IN
    RowStore out; ///< M_OUT
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_KNOWLEDGE_BASE_HH
