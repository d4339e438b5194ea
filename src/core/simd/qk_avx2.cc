#include "core/simd/qk_simd.h"

#include <cassert>
#include <cstddef>

#ifdef PADE_HAVE_AVX2

#include <cstring>

#include <immintrin.h>

namespace pade {
namespace simd {
namespace {

/** Words per 256-bit chunk; also the QueryPlanes stride quantum. */
constexpr int kChunkWords = 4;

/**
 * Row-length threshold (in words) below which the value-domain
 * kernel always runs; see useValueKernel() for the wide-row rule.
 */
constexpr int kValueWords = 4;

/**
 * Value-kernel row-length ceiling: each 32-element chunk adds one
 * vpmaddubsw pair sum (<= 256 in magnitude, |q| <= 128) to a 16-bit
 * lane, so 127 chunks (= 4064 elements) is the last count that can
 * never reach +-2^15.
 */
constexpr int kValueMaxCols = 127 * 32;

inline __m256i
nibbleLut()
{
    return _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
}

inline __m256i
nibbleMask()
{
    return _mm256_set1_epi8(0x0f);
}

/** Per-byte popcount of @p v via the vpshufb nibble LUT. */
inline __m256i
popcountBytes(__m256i v)
{
    const __m256i lut = nibbleLut();
    const __m256i nib = nibbleMask();
    const __m256i lo = _mm256_and_si256(v, nib);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

/** Sum the per-byte counts into the 4 quadword lanes. */
inline __m256i
sumBytes(__m256i byte_counts)
{
    return _mm256_sad_epu8(byte_counts, _mm256_setzero_si256());
}

/** Horizontal sum of the 4 quadword lanes. */
inline int64_t
hsum(__m256i v)
{
    const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                    _mm256_extracti128_si256(v, 1));
    return _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
}

/** Shift all quadword lanes left by the runtime count @p n. */
inline __m256i
shiftLanes(__m256i v, int n)
{
    return _mm256_sll_epi64(v, _mm_cvtsi32_si128(n));
}

/**
 * Load @p valid (1..3) words from @p p into the low lanes, zeroing
 * the rest, without reading past p[valid-1] (vpmaskmovq suppresses
 * masked-out loads architecturally).
 */
inline __m256i
loadTail(const uint64_t *p, int valid)
{
    const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i live =
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(valid), lane);
    return _mm256_maskload_epi64(
        reinterpret_cast<const long long *>(p), live);
}

/** Carry-save adder: (h, l) = full-adder(a, b, c) per bit lane. */
inline void
csa(__m256i &h, __m256i &l, __m256i a, __m256i b, __m256i c)
{
    const __m256i u = _mm256_xor_si256(a, b);
    h = _mm256_or_si256(_mm256_and_si256(a, b),
                        _mm256_and_si256(u, c));
    l = _mm256_xor_si256(u, c);
}

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
 * [-256, 254] per lane and nothing flushes mid-row, so callers must
 * keep c1 - c0 at or below 127 chunks (the kValueMaxCols ceiling) or
 * the lanes can saturate.
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
            _mm256_load_si256(reinterpret_cast<const __m256i *>(
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
 * Value-domain maskedSum for one key plane over a row of any length.
 * The chunk count is derived from cols, so at most
 * 4 * ceil(cols/32) <= 8 * words mask bytes are read — never past
 * the caller's span. The query byte mirror's zero padding absorbs
 * mask bits between cols and the chunk boundary. Force-inlined: the
 * per-key kernel calls it once per key plane.
 */
PADE_ALWAYS_INLINE int64_t
maskedSumValues(const int8_t *values, const uint64_t *mask, int cols)
{
    const int chunks = (cols + 31) / 32;
    return hsum32(widen16(valuePlaneSum16(values, mask, 0, chunks)));
}

/**
 * Kernel choice per row shape. Short rows (words <= kValueWords)
 * always take the value kernel — per-plane fixed costs dominate
 * there and it has the smallest. On wider rows the trade is bytes
 * touched per element: 1 for the value kernel versus bits/8 for the
 * plane-domain path, with the crossover measured near 6 query
 * planes. Rows past the 16-bit saturation ceiling always take the
 * plane path (which has no length limit).
 */
inline bool
useValueKernel(const QPlaneView &q, int words)
{
    if (words <= kValueWords)
        return true;
    return q.bits >= 6 && q.cols <= kValueMaxCols;
}

/**
 * General rows (words > 4). Per query plane, full 32-byte chunks
 * accumulate nibble popcounts in a byte accumulator, flushed through
 * vpsadbw before any byte can reach 255 (each chunk adds at most 8
 * per byte, so 31 chunks are safe). Rows of >= 16 full chunks first
 * collapse 16 chunks at a time through a Harley-Seal carry-save
 * adder tree so only one in sixteen vectors pays the pshufb popcount
 * at full weight. Plane weights fold in the quadword lanes; a single
 * horizontal sum runs at the end.
 */
int64_t
maskedSumWide(const QPlaneView &q, const uint64_t *mask, int words)
{
    const int full = words / kChunkWords;
    const int tail = words % kChunkWords;

    __m256i weighted = _mm256_setzero_si256();
    for (int t = 0; t < q.bits; t++) {
        const uint64_t *qp =
            q.planes + static_cast<std::size_t>(t) * q.stride;
        const auto chunk = [&](int i) {
            return _mm256_and_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                    mask + static_cast<std::size_t>(i) * kChunkWords)),
                _mm256_load_si256(reinterpret_cast<const __m256i *>(
                    qp + static_cast<std::size_t>(i) * kChunkWords)));
        };

        __m256i total = _mm256_setzero_si256();
        int i = 0;
        if (full >= 16) {
            __m256i ones = _mm256_setzero_si256();
            __m256i twos = _mm256_setzero_si256();
            __m256i fours = _mm256_setzero_si256();
            __m256i eights = _mm256_setzero_si256();
            for (; i + 16 <= full; i += 16) {
                __m256i twos_a, twos_b, fours_a, fours_b;
                __m256i eights_a, eights_b, sixteens;
                csa(twos_a, ones, ones, chunk(i + 0), chunk(i + 1));
                csa(twos_b, ones, ones, chunk(i + 2), chunk(i + 3));
                csa(fours_a, twos, twos, twos_a, twos_b);
                csa(twos_a, ones, ones, chunk(i + 4), chunk(i + 5));
                csa(twos_b, ones, ones, chunk(i + 6), chunk(i + 7));
                csa(fours_b, twos, twos, twos_a, twos_b);
                csa(eights_a, fours, fours, fours_a, fours_b);
                csa(twos_a, ones, ones, chunk(i + 8), chunk(i + 9));
                csa(twos_b, ones, ones, chunk(i + 10), chunk(i + 11));
                csa(fours_a, twos, twos, twos_a, twos_b);
                csa(twos_a, ones, ones, chunk(i + 12), chunk(i + 13));
                csa(twos_b, ones, ones, chunk(i + 14), chunk(i + 15));
                csa(fours_b, twos, twos, twos_a, twos_b);
                csa(eights_b, fours, fours, fours_a, fours_b);
                csa(sixteens, eights, eights, eights_a, eights_b);
                total = _mm256_add_epi64(
                    total, sumBytes(popcountBytes(sixteens)));
            }
            total = _mm256_slli_epi64(total, 4);
            total = _mm256_add_epi64(
                total, _mm256_slli_epi64(
                           sumBytes(popcountBytes(eights)), 3));
            total = _mm256_add_epi64(
                total, _mm256_slli_epi64(
                           sumBytes(popcountBytes(fours)), 2));
            total = _mm256_add_epi64(
                total, _mm256_slli_epi64(
                           sumBytes(popcountBytes(twos)), 1));
            total = _mm256_add_epi64(total,
                                     sumBytes(popcountBytes(ones)));
        }

        __m256i bytes = _mm256_setzero_si256();
        int pending = 0;
        for (; i < full; i++) {
            bytes = _mm256_add_epi8(bytes, popcountBytes(chunk(i)));
            if (++pending == 31) {
                total = _mm256_add_epi64(total, sumBytes(bytes));
                bytes = _mm256_setzero_si256();
                pending = 0;
            }
        }
        if (tail) {
            // The query padding beyond `words` is zero, so a full
            // aligned load on the q side is safe and the AND drops
            // whatever the masked key load zeroed out.
            const __m256i v = _mm256_and_si256(
                loadTail(mask + static_cast<std::size_t>(full) *
                                    kChunkWords,
                         tail),
                _mm256_load_si256(reinterpret_cast<const __m256i *>(
                    qp + static_cast<std::size_t>(full) *
                             kChunkWords)));
            bytes = _mm256_add_epi8(bytes, popcountBytes(v));
            pending++;
        }
        if (pending)
            total = _mm256_add_epi64(total, sumBytes(bytes));

        const __m256i c = shiftLanes(
            total, t == 0 ? q.bits - 1 : q.bits - 1 - t);
        weighted = t == 0 ? _mm256_sub_epi64(weighted, c)
                          : _mm256_add_epi64(weighted, c);
    }
    return hsum(weighted);
}

} // namespace

bool
qkAvx2Compiled()
{
    return true;
}

int64_t
maskedSumAvx2(const QPlaneView &q, const uint64_t *mask, int words)
{
    assert(q.stride % kChunkWords == 0);
    assert(reinterpret_cast<std::uintptr_t>(q.planes) % 32 == 0);
    assert(reinterpret_cast<std::uintptr_t>(q.values) % 32 == 0);
    if (q.bits == 0 || words == 0)
        return 0;
    if (useValueKernel(q, words))
        return maskedSumValues(q.values, mask, q.cols);
    return maskedSumWide(q, mask, words);
}

KeyScore
scoreKeyAvx2(const QPlaneView &q, const uint64_t *kplanes, int kstride,
             int kbits, int nplanes, const KeyGuard *guard)
{
    assert(q.stride % kChunkWords == 0);
    assert(reinterpret_cast<std::uintptr_t>(q.planes) % 32 == 0);
    assert(reinterpret_cast<std::uintptr_t>(q.values) % 32 == 0);
    const int words = (q.cols + 63) / 64;
    if (useValueKernel(q, words))
        return scoreKeyWith(kplanes, kstride, kbits, nplanes, guard,
                            [&q](const uint64_t *mask) {
                                return maskedSumValues(q.values, mask,
                                                       q.cols);
                            });
    return scoreKeyWith(kplanes, kstride, kbits, nplanes, guard,
                        [&q, words](const uint64_t *mask) {
                            return maskedSumWide(q, mask, words);
                        });
}

} // namespace simd
} // namespace pade

#else // !PADE_HAVE_AVX2: portable stubs with identical semantics.

#include <bit>

namespace pade {
namespace simd {
namespace {

int64_t
maskedSumPortable(const QPlaneView &q, const uint64_t *mask, int words)
{
    int64_t pos = 0;
    int64_t neg = 0;
    for (int t = 0; t < q.bits; t++) {
        const uint64_t *qp =
            q.planes + static_cast<std::size_t>(t) * q.stride;
        int64_t ones = 0;
        for (int w = 0; w < words; w++)
            ones += std::popcount(qp[w] & mask[w]);
        if (t == 0)
            neg = ones;
        else
            pos += ones << (q.bits - 1 - t);
    }
    return pos - (neg << (q.bits - 1));
}

} // namespace

bool
qkAvx2Compiled()
{
    return false;
}

int64_t
maskedSumAvx2(const QPlaneView &q, const uint64_t *mask, int words)
{
    return maskedSumPortable(q, mask, words);
}

KeyScore
scoreKeyAvx2(const QPlaneView &q, const uint64_t *kplanes, int kstride,
             int kbits, int nplanes, const KeyGuard *guard)
{
    const int words = (q.cols + 63) / 64;
    return scoreKeyWith(kplanes, kstride, kbits, nplanes, guard,
                        [&q, words](const uint64_t *mask) {
                            return maskedSumPortable(q, mask, words);
                        });
}

} // namespace simd
} // namespace pade

#endif // PADE_HAVE_AVX2
