/**
 * @file
 * Cache-line-aligned float buffers, on 2 MiB pages when large.
 *
 * The compute kernels assume 64-byte alignment so the compiler can emit
 * aligned vector loads; std::vector<float> gives only 16-byte alignment
 * on most platforms.
 *
 * A buffer of at least kHugePageBytes is the storage a kernel streams
 * (the knowledge-base row stores, bench matrices): it is allocated
 * 2 MiB-aligned, its length rounded up to whole 2 MiB, and marked
 * madvise(MADV_HUGEPAGE) before the zero-fill first touches it. Where
 * transparent huge pages are `always` or `madvise`, the kernel then
 * backs it with 2 MiB pages: filling 512 MiB takes 256 page faults
 * instead of 131 072, and a sequential sweep crosses a page-table
 * entry (a TLB miss, a two-dimensional walk under nested paging)
 * every 2 MiB instead of every 4 KiB. The advice is only a hint: with
 * THP `never`, or no huge page free, the same memory sits on 4 KiB
 * pages and holds the same bytes. Allocation stays in
 * std::aligned_alloc, so the sanitizers still track every buffer.
 */

#ifndef MNNFAST_UTIL_ALIGNED_BUFFER_HH
#define MNNFAST_UTIL_ALIGNED_BUFFER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

#include <sys/mman.h>

#include "util/logging.hh"

namespace mnnfast {

/** Cache line size assumed throughout the library (bytes). */
inline constexpr size_t kCacheLineBytes = 64;

/**
 * Transparent-huge-page size: buffers of at least this many bytes are
 * aligned to it and advised onto huge pages (see the file header).
 */
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/**
 * A fixed-capacity, 64-byte-aligned array of trivially-copyable
 * elements; from kHugePageBytes up, 2 MiB-aligned on huge pages where
 * the host grants them. Movable but not copyable (copies of
 * multi-GB matrices should always be explicit).
 */
template <typename T>
class AlignedBuffer
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "AlignedBuffer only supports trivially copyable types");

  public:
    AlignedBuffer() = default;

    /** Allocate n elements, zero-initialized. */
    explicit AlignedBuffer(size_t n) { allocate(n); }

    AlignedBuffer(const AlignedBuffer &) = delete;
    AlignedBuffer &operator=(const AlignedBuffer &) = delete;

    AlignedBuffer(AlignedBuffer &&other) noexcept
        : ptr(std::exchange(other.ptr, nullptr)),
          count(std::exchange(other.count, 0))
    {}

    AlignedBuffer &
    operator=(AlignedBuffer &&other) noexcept
    {
        if (this != &other) {
            release();
            ptr = std::exchange(other.ptr, nullptr);
            count = std::exchange(other.count, 0);
        }
        return *this;
    }

    ~AlignedBuffer() { release(); }

    /** Reallocate to n zero-initialized elements (old contents lost). */
    void
    allocate(size_t n)
    {
        release();
        if (n == 0)
            return;
        if (n > (SIZE_MAX - kHugePageBytes) / sizeof(T))
            throw std::bad_alloc();
        const size_t want = n * sizeof(T);
        const size_t align =
            want >= kHugePageBytes ? kHugePageBytes : kCacheLineBytes;
        const size_t bytes = (want + align - 1) / align * align;
        void *raw = std::aligned_alloc(align, bytes);
        if (!raw)
            throw std::bad_alloc();
        // Before the zero-fill faults the pages in. A refused hint
        // (no THP in this kernel) leaves 4 KiB pages: ignored.
        if (align == kHugePageBytes)
            (void)madvise(raw, bytes, MADV_HUGEPAGE);
        ptr = static_cast<T *>(raw);
        count = n;
        zero();
    }

    /** Set every element to T{}. */
    void
    zero()
    {
        std::fill(ptr, ptr + count, T{});
    }

    T *data() { return ptr; }
    const T *data() const { return ptr; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }

    T &
    operator[](size_t i)
    {
        mnn_assert(i < count, "AlignedBuffer index out of range");
        return ptr[i];
    }

    const T &
    operator[](size_t i) const
    {
        mnn_assert(i < count, "AlignedBuffer index out of range");
        return ptr[i];
    }

    T *begin() { return ptr; }
    T *end() { return ptr + count; }
    const T *begin() const { return ptr; }
    const T *end() const { return ptr + count; }

  private:
    void
    release()
    {
        std::free(ptr);
        ptr = nullptr;
        count = 0;
    }

    T *ptr = nullptr;
    size_t count = 0;
};

} // namespace mnnfast

#endif // MNNFAST_UTIL_ALIGNED_BUFFER_HH
