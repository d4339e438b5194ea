/**
 * @file
 * The SIMD backend behind QkKernel::kSimd: two tile kernels, one per
 * ISA, each in its own translation unit, and the CPU-selected choice
 * between them.
 *
 * A tile kernel scores one ISTA tile — up to tile_bc consecutive keys
 * of one plane store — for every query row of a GQA group, with the
 * BUI-GF guard applied per (key, row) pair in key order, and leaves
 * each row's GuardFilter where the per-plane observe/shouldPrune
 * sequence of guardedKeyScore (core/guard_filter.h) would: one call
 * per tile, no call per key or plane. Target-specific code cannot
 * inline into baseline code, which is why the loops live here and
 * not in the caller.
 *
 *  - scanTileAvx512 (qk_avx512.cc, -mavx512f -mavx512bw) scores every
 *    plane of every pair with no branch. A key plane word *is* a
 *    __mmask64: a masked byte select of the query's biased bytes and
 *    vpsadbw give one plane's sum per 64 elements. Rows go two per
 *    vector in 32-bit lanes (row A's eight planes in lanes 0-7, row
 *    B's in lanes 8-15), and two such pairs share each key, so a
 *    key's plane masks load once for four rows. Weighted prefix sums,
 *    the BUI bounds, the running maximum of the lower bounds and the
 *    threshold are then lane-wise per row, and each row's stop plane
 *    is one compare of the upper bounds against the threshold and a
 *    tzcnt. 32 bits are exact because, with kbits * head_dim <=
 *    kMaxWorkPrefixElems, every lane value stays inside +-2^30 and a
 *    margin past 2^31 - 1 can saturate; a row whose guard max or BUI
 *    bounds would leave that range, and a lone or odd row, run the
 *    same steps alone in 64-bit lanes.
 *  - scanTileAvx2 (qk_avx2.cc, -mavx2), for CPUs without AVX-512BW,
 *    loops its per-pair body through guardedKeyScore. Per key plane,
 *    32 mask bits at a time are broadcast (vpbroadcastd), fanned out
 *    to a byte select (vpshufb + bit-test vpcmpeqb), ANDed with the
 *    query's bytes and accumulated pairwise into 16-bit lanes
 *    with vpmaddubsw: one pass over head_dim bytes per key plane. The
 *    lanes are widened to 32 bits every 127 chunks (4064 elements),
 *    before they can wrap, so any row length is exact.
 *
 * Only these two files are built with wider ISA flags. Callers reach
 * them through tileKernel(), which picks AVX-512BW when it is
 * compiled in and the CPU and OS support it, AVX2 otherwise; kSimd
 * itself is only dispatched when qkSimdAvailable()
 * (core/simd/qk_dispatch.h). When a backend is not compiled
 * (PADE_AVX2=OFF, or a compiler without the flags) its file builds a
 * portable fallback with the same results and its *Compiled()
 * predicate reports false.
 *
 * The AVX2 file also holds the value stage's row update
 * (valueRowAvx2), chosen by valueRowKernel() the same way. It stays
 * out of the AVX-512 file on purpose: -mavx512f brings FMA, and a
 * fused multiply-add would round differently from the scalar loop.
 */

#ifndef PADE_CORE_SIMD_QK_SIMD_H
#define PADE_CORE_SIMD_QK_SIMD_H

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/guard_filter.h"

namespace pade {
namespace simd {

/**
 * The query row a tile kernel reads: its int8 values, zero-padded to
 * the next 32-byte boundary past cols (the AVX2 kernel loads whole
 * 32-byte chunks). The row's length also fixes the key layout: a key
 * plane is ceil(cols / 64) words.
 */
struct QPlaneView
{
    const int8_t *values; //!< the query row, zero-padded
    int cols;             //!< row length in elements
};

/** One query row of a tile scan: its query, BUI table and guard. */
struct TileRow
{
    QPlaneView q;
    const int64_t *lo;  //!< BUI I^{r,min}, one per scored plane
    const int64_t *hi;  //!< BUI I^{r,max}, one per scored plane
    GuardFilter *guard; //!< the row's guard, updated in place
};

/** Planes a tile kernel scores per key at most (BuiTable::kMaxPlanes). */
inline constexpr int kMaxTilePlanes = 8;

/**
 * One tile: @p keys keys stored back to back from kplanes in
 * BitPlaneSet's layout — with words = ceil(cols / 64) of the rows
 * scoring them, key i's planes start at kplanes + i * kbits * words
 * and plane p of a key at + p * words — with weight -2^{kbits-1}
 * (p = 0) or 2^{kbits-1-p}. Planes 0 .. nplanes - 1 are scored
 * (nplanes <= kbits <= kMaxTilePlanes). With prune clear the guard
 * observes every plane and nothing stops early (the dense ablation).
 * No kernel reads past a key plane's words.
 */
struct Tile
{
    const uint64_t *kplanes;
    int kbits;
    int nplanes;
    int keys;
    bool prune;
};

/**
 * Tile kernel: score every (key, row) pair of @p tile against
 * @p rows, each row's keys in order through its guard, and write
 * pair (i, g) to @p out[i * rows.size() + g].
 */
using TileKernel = void (*)(const Tile &tile,
                            std::span<const TileRow> rows,
                            KeyScore *out);

void scanTileAvx2(const Tile &tile, std::span<const TileRow> rows,
                  KeyScore *out);
void scanTileAvx512(const Tile &tile, std::span<const TileRow> rows,
                    KeyScore *out);

/** True when this build carries real AVX2 code paths. */
bool qkAvx2Compiled();
/** True when this build carries real AVX-512BW code paths. */
bool qkAvx512Compiled();

/**
 * The tile kernel kSimd runs on this CPU: scanTileAvx512 when it is
 * compiled and the CPU reports AVX-512F and AVX-512BW with OS-saved
 * ZMM state, scanTileAvx2 otherwise. Cached after the first call.
 * Only meaningful when qkSimdAvailable().
 */
TileKernel tileKernel();

/**
 * The value stage's update of one int8 value row:
 * acc[d] += p * (scale * float(v[d])) for d < dim. scale * float(v[d])
 * is the float dequantize() gives for scale * int8, so the update is
 * bit-identical to one over dequantized float rows. Every kernel
 * rounds the two products and the sum separately, in this order.
 */
using ValueRowKernel = void (*)(float *acc, const int8_t *v, int dim,
                                float p, float scale);

/** The portable loop (qk_dispatch.cc, baseline ISA). */
void valueRowScalar(float *acc, const int8_t *v, int dim, float p,
                    float scale);
/** Eight lanes per step (qk_avx2.cc); the portable loop when AVX2 is
 *  not compiled. */
void valueRowAvx2(float *acc, const int8_t *v, int dim, float p,
                  float scale);

/**
 * The value-row kernel for this CPU: valueRowAvx2 when AVX2 is
 * compiled and the CPU and OS support it, valueRowScalar otherwise.
 * Cached after the first call.
 */
ValueRowKernel valueRowKernel();

/**
 * The tile loop of the per-plane kernels (AVX2 and the portable
 * stub): rows outer, keys inner, each pair through guardedKeyScore
 * with a register copy of the row's guard. @p sum(q, mask) returns
 * the values of query @p q selected by one key plane. Instantiated
 * with a kernel-local lambda, so each ISA gets its own copy.
 */
template <class PlaneSum>
PADE_ALWAYS_INLINE void
scanTileWith(const Tile &tile, std::span<const TileRow> rows,
             KeyScore *out, PlaneSum &&sum)
{
    const std::size_t nrows = rows.size();
    for (std::size_t g = 0; g < nrows; g++) {
        const TileRow &row = rows[g];
        const std::ptrdiff_t words = (row.q.cols + 63) / 64;
        GuardFilter guard = *row.guard;
        for (int i = 0; i < tile.keys; i++) {
            const uint64_t *kp = tile.kplanes + i * tile.kbits * words;
            out[static_cast<std::size_t>(i) * nrows + g] =
                guardedKeyScore(
                    guard, row.lo, row.hi, tile.nplanes, tile.prune,
                    [&](int p) {
                        const int64_t w = p == 0
                            ? -(int64_t{1} << (tile.kbits - 1))
                            : int64_t{1} << (tile.kbits - 1 - p);
                        return w * sum(row.q, kp + p * words);
                    });
        }
        *row.guard = guard;
    }
}

} // namespace simd
} // namespace pade

#endif // PADE_CORE_SIMD_QK_SIMD_H
