/**
 * @file
 * Minimal over-aligned allocator for SIMD-friendly containers.
 *
 * std::vector<T> only guarantees alignof(std::max_align_t) (16 bytes
 * on x86-64); the AVX2 QK kernel loads the query's byte mirror with
 * aligned 32-byte vector loads, and bit-plane rows keep the same
 * 32-byte boundary. The allocator delegates to the C++17 aligned
 * operator new/delete, so it composes with sanitizers and custom
 * global allocators.
 */

#ifndef PADE_COMMON_ALIGNED_H
#define PADE_COMMON_ALIGNED_H

#include <cstddef>
#include <new>

namespace pade {

/**
 * STL allocator yielding storage aligned to @p Align bytes.
 *
 * @tparam T element type; Align must be a power of two and at least
 *         alignof(T).
 */
template <typename T, std::size_t Align>
struct AlignedAllocator
{
    static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                  "Align must be a power of two covering alignof(T)");

    using value_type = T;

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &)
    {}

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t(Align)));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t(Align));
    }

    friend bool
    operator==(const AlignedAllocator &, const AlignedAllocator &)
    {
        return true;
    }
};

} // namespace pade

#endif // PADE_COMMON_ALIGNED_H
