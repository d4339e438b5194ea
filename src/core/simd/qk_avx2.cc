#include "core/simd/qk_simd.h"

#include <cassert>
#include <cstddef>

#ifdef PADE_HAVE_AVX2

#include <algorithm>
#include <cstring>

#include <immintrin.h>

namespace pade {
namespace simd {
namespace {

/**
 * Chunks one 16-bit lane accumulation may span: each 32-element chunk
 * adds one vpmaddubsw pair sum (<= 256 in magnitude, |q| <= 128) to a
 * lane, so 127 chunks (4064 elements) is the last count that can
 * never reach +-2^15.
 */
constexpr int kMaxChunksPerFlush = 127;

/**
 * Fan 32 mask bits (bits 32c .. 32c+31 of @p mask) out to a 0/-1
 * byte-select register: vpbroadcastd replicates the dword, vpshufb
 * replicates each of its 4 bytes across its 8 byte positions, and a
 * bit-test against 2^{j%8} turns bit j into byte j's select.
 */
inline __m256i
expandMask32(const uint64_t *mask, int c)
{
    int32_t dword;
    std::memcpy(&dword,
                reinterpret_cast<const unsigned char *>(mask) +
                    static_cast<std::size_t>(c) * 4,
                sizeof(dword));
    const __m256i spread = _mm256_shuffle_epi8(
        _mm256_set1_epi32(dword),
        _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1,
                         1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3,
                         3, 3));
    const __m256i bit = _mm256_set1_epi64x(
        static_cast<int64_t>(0x8040201008040201ULL));
    return _mm256_cmpeq_epi8(_mm256_and_si256(spread, bit), bit);
}

/**
 * Value-domain masked sum in 16-bit lanes: sum of the int8 query
 * values selected by one key plane, accumulated chunkwise with
 * vpmaddubsw(1, selected). Each chunk contributes one pair sum in
 * [-256, 254] per lane and nothing flushes inside, so callers must
 * keep c1 - c0 at or below kMaxChunksPerFlush or the lanes wrap.
 */
inline __m256i
valuePlaneSum16(const int8_t *values, const uint64_t *mask, int c0,
                int c1)
{
    const __m256i ones = _mm256_set1_epi8(1);
    __m256i acc16 = _mm256_setzero_si256();
    for (int c = c0; c < c1; c++) {
        const __m256i v = _mm256_and_si256(
            expandMask32(mask, c),
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                values + static_cast<std::size_t>(c) * 32)));
        acc16 = _mm256_add_epi16(acc16,
                                 _mm256_maddubs_epi16(ones, v));
    }
    return acc16;
}

/** Horizontal sum of 8 int32 lanes. */
inline int64_t
hsum32(__m256i v)
{
    const __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                                    _mm256_extracti128_si256(v, 1));
    const __m128i t = _mm_add_epi32(s, _mm_srli_si128(s, 8));
    return _mm_cvtsi128_si32(t) +
        _mm_cvtsi128_si32(_mm_srli_si128(t, 4));
}

/** Widen a 16-bit lane accumulator to 32-bit lanes. */
inline __m256i
widen16(__m256i acc16)
{
    return _mm256_madd_epi16(acc16, _mm256_set1_epi16(1));
}

/**
 * Value-domain maskedSum of chunks [c0, c1) of one key plane, c1 - c0
 * at most kMaxChunksPerFlush. Chunk counts derive from cols, so at
 * most 4 * ceil(cols/32) <= 8 * words mask bytes are read — never
 * past the key plane. The query row's zero padding absorbs mask bits
 * between cols and the chunk boundary.
 * Force-inlined: the per-key kernel calls it once per key plane.
 */
PADE_ALWAYS_INLINE int64_t
blockSum(const int8_t *values, const uint64_t *mask, int c0, int c1)
{
    return hsum32(widen16(valuePlaneSum16(values, mask, c0, c1)));
}

/** maskedSum over any number of chunks: one blockSum per block of at
 *  most kMaxChunksPerFlush chunks, added into a 64-bit sum. */
int64_t
blockedSum(const int8_t *values, const uint64_t *mask, int chunks)
{
    int64_t sum = 0;
    for (int c0 = 0; c0 < chunks; c0 += kMaxChunksPerFlush)
        sum += blockSum(values, mask, c0,
                        std::min(chunks, c0 + kMaxChunksPerFlush));
    return sum;
}

} // namespace

bool
qkAvx2Compiled()
{
    return true;
}

void
valueRowAvx2(float *acc, const int8_t *v, int dim, float p, float scale)
{
    // -mavx2 carries no FMA, so the multiplies and the add round one
    // by one, as valueRowScalar's do.
    const __m256 vp = _mm256_set1_ps(p);
    const __m256 vs = _mm256_set1_ps(scale);
    int d = 0;
    for (; d + 8 <= dim; d += 8) {
        const __m256 x = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(v + d))));
        const __m256 a = _mm256_loadu_ps(acc + d);
        _mm256_storeu_ps(acc + d,
                         _mm256_add_ps(a, _mm256_mul_ps(
                                              vp, _mm256_mul_ps(vs, x))));
    }
    for (; d < dim; d++)
        acc[d] += p * (scale * static_cast<float>(v[d]));
}

void
scanTileAvx2(const Tile &tile, std::span<const TileRow> rows,
             KeyScore *out)
{
    // Rows up to 4064 elements (every realistic head_dim) fit one
    // block. Scoring them with blockSum directly, not through
    // blockedSum's loop, keeps the plane loop's registers: through
    // the loop a head_dim-64 key scored ~35% slower on a Xeon with
    // AVX2 (GCC 12.2, -O2). The rows of a group share one length.
    const int chunks = rows.empty() ? 0 : (rows[0].q.cols + 31) / 32;
    // head_dim 33..64, the shape every servbench workload runs, gets
    // a constant chunk count so the chunk loop unrolls: BM_ScanTile
    // read 24.7 against 32.6 ns per (key, head) on the same Xeon.
    if (chunks == 2)
        return scanTileWith(tile, rows, out,
                            [](const QPlaneView &q, const uint64_t *mask) {
                                return blockSum(q.values, mask, 0, 2);
                            });
    if (chunks > kMaxChunksPerFlush)
        return scanTileWith(tile, rows, out,
                            [chunks](const QPlaneView &q,
                                     const uint64_t *mask) {
                                return blockedSum(q.values, mask,
                                                  chunks);
                            });
    scanTileWith(tile, rows, out,
                 [chunks](const QPlaneView &q, const uint64_t *mask) {
                     assert((q.cols + 31) / 32 == chunks);
                     return blockSum(q.values, mask, 0, chunks);
                 });
}

} // namespace simd
} // namespace pade

#else // !PADE_HAVE_AVX2: portable stubs with identical semantics.

namespace pade {
namespace simd {
namespace {

/** Sum of the query bytes one key plane selects (set-bit walk). */
int64_t
selectedSum(const QPlaneView &q, const uint64_t *mask)
{
    int64_t sum = 0;
    for (int w = 0; w < (q.cols + 63) / 64; w++)
        for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1)
            sum += q.values[w * 64 + __builtin_ctzll(bits)];
    return sum;
}

} // namespace

bool
qkAvx2Compiled()
{
    return false;
}

void
valueRowAvx2(float *acc, const int8_t *v, int dim, float p, float scale)
{
    valueRowScalar(acc, v, dim, p, scale);
}

void
scanTileAvx2(const Tile &tile, std::span<const TileRow> rows,
             KeyScore *out)
{
    scanTileWith(tile, rows, out, selectedSum);
}

} // namespace simd
} // namespace pade

#endif // PADE_HAVE_AVX2
