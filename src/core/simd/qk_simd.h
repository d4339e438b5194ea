/**
 * @file
 * The SIMD QK backend behind QkKernel::kSimd: two per-key kernels, one
 * per ISA, each in its own translation unit, and the CPU-selected
 * choice between them.
 *
 *  - scoreKeyAvx512 (qk_avx512.cc, -mavx512f -mavx512bw): at one word
 *    per plane (head_dim <= 64) a key plane word *is* a __mmask64.
 *    vmovdqu8 with that mask loads exactly the selected bytes of the
 *    query's byte mirror (QPlaneView::values), XOR 0x80 makes them
 *    unsigned, vpsadbw sums them, and the 128-per-byte bias is
 *    subtracted. Wider rows loop over words. The masked load never
 *    reads a query byte past cols (those mask bits are zero), and the
 *    reduction is 64-bit, so there is no row-length limit.
 *  - scoreKeyAvx2 (qk_avx2.cc, -mavx2), for CPUs without AVX-512BW,
 *    is value-domain too. Per key plane, 32 mask bits at a time are
 *    broadcast (vpbroadcastd), fanned out to a byte select (vpshufb +
 *    bit-test vpcmpeqb), ANDed with the query's byte mirror and
 *    accumulated pairwise into 16-bit lanes with vpmaddubsw: one pass
 *    over head_dim bytes per key plane, independent of the query's
 *    bit-width. The lanes are widened to 32 bits every 127 chunks
 *    (4064 elements), before they can wrap, so any row length is
 *    exact.
 *
 * A per-key kernel runs the whole plane loop of one (key, query) pair
 * with the BUI-GF guard inline (guardedKeyScore, core/guard_filter.h)
 * and returns at the first pruning plane: one call per pair, no call
 * per plane. Target-specific code cannot inline into baseline code,
 * which is why the loop lives here and not in the caller.
 *
 * Only these two files are built with wider ISA flags. Callers reach
 * them through keyKernel(), which picks AVX-512BW when it is compiled
 * in and the CPU and OS support it, AVX2 otherwise; kSimd itself is
 * only dispatched when qkSimdAvailable() (core/simd/qk_dispatch.h).
 * When a backend is not compiled (PADE_AVX2=OFF, or a compiler
 * without the flags) its file builds a portable fallback with the
 * same results and its *Compiled() predicate reports false.
 */

#ifndef PADE_CORE_SIMD_QK_SIMD_H
#define PADE_CORE_SIMD_QK_SIMD_H

#include <cstddef>
#include <cstdint>

#include "core/guard_filter.h"

namespace pade {
namespace simd {

/**
 * Raw view of a QueryPlanes object (QueryPlanes owns the invariants):
 *  - plane t of planes starts at offset t * stride;
 *  - stride is a multiple of 4 words and the pointers are 32-byte
 *    aligned, so plane rows support aligned 32-byte loads;
 *  - padding words beyond the logical row length are zero;
 *  - values holds the cols int8 elements the planes decompose
 *    (exactly their plane reconstruction, so plane-domain and
 *    value-domain sums agree bit for bit), 32-byte aligned and
 *    zero-padded to the next 32-byte boundary.
 */
struct QPlaneView
{
    const uint64_t *planes; //!< packed query planes
    const int8_t *values;   //!< byte mirror of the query row
    int stride;             //!< words between consecutive planes
    int bits;               //!< number of query planes
    int cols;               //!< logical row length in elements
};

/** The guard a per-key kernel applies; a null guard scores densely. */
struct KeyGuard
{
    GuardFilter *filter; //!< the query row's guard, updated in place
    const int64_t *lo;   //!< BUI I^{r,min} per plane (BuiTable::lo)
    const int64_t *hi;   //!< BUI I^{r,max} per plane (BuiTable::hi)
    bool prune;          //!< false: observe only (dense ablation)
};

/**
 * Per-key kernel: score planes 0 .. @p nplanes - 1 of one key against
 * the query @p q. Plane p of the key starts at kplanes + p * kstride
 * and has weight -2^{kbits-1} (p = 0) or 2^{kbits-1-p}. With a guard,
 * runs guardedKeyScore() and may stop early; with @p guard null it
 * returns the plain partial dot over all nplanes planes.
 *
 * @p kplanes rows may be caller memory of exactly ceil(cols / 64)
 * words each: no kernel reads past a row's logical words.
 */
using KeyKernel = KeyScore (*)(const QPlaneView &q,
                               const uint64_t *kplanes, int kstride,
                               int kbits, int nplanes,
                               const KeyGuard *guard);

KeyScore scoreKeyAvx2(const QPlaneView &q, const uint64_t *kplanes,
                      int kstride, int kbits, int nplanes,
                      const KeyGuard *guard);
KeyScore scoreKeyAvx512(const QPlaneView &q, const uint64_t *kplanes,
                        int kstride, int kbits, int nplanes,
                        const KeyGuard *guard);

/** True when this build carries real AVX2 code paths. */
bool qkAvx2Compiled();
/** True when this build carries real AVX-512BW code paths. */
bool qkAvx512Compiled();

/**
 * The per-key kernel kSimd runs on this CPU: scoreKeyAvx512 when it
 * is compiled and the CPU reports AVX-512F and AVX-512BW with
 * OS-saved ZMM state, scoreKeyAvx2 otherwise. Cached after the first
 * call. Only meaningful when qkSimdAvailable().
 */
KeyKernel keyKernel();

/**
 * The body both per-key kernels share: plane weights, the guarded or
 * dense plane loop, and a register copy of the guard. @p sum(mask)
 * returns the query values selected by one key plane. Instantiated
 * with a kernel-local lambda, so each ISA gets its own copy.
 */
template <class PlaneSum>
PADE_ALWAYS_INLINE KeyScore
scoreKeyWith(const uint64_t *kplanes, int kstride, int kbits,
             int nplanes, const KeyGuard *guard, PlaneSum &&sum)
{
    const auto delta = [&](int p) {
        const int64_t w = p == 0 ? -(int64_t{1} << (kbits - 1))
                                 : int64_t{1} << (kbits - 1 - p);
        return w * sum(kplanes + static_cast<std::ptrdiff_t>(p) * kstride);
    };
    if (!guard) {
        int64_t score = 0;
        for (int p = 0; p < nplanes; p++)
            score += delta(p);
        return {score, nplanes, false};
    }
    GuardFilter g = *guard->filter;
    const KeyScore ks = guardedKeyScore(g, guard->lo, guard->hi,
                                        nplanes, guard->prune, delta);
    *guard->filter = g;
    return ks;
}

} // namespace simd
} // namespace pade

#endif // PADE_CORE_SIMD_QK_SIMD_H
