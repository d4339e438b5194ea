#include "core/simd/qk_simd.h"

#ifdef PADE_HAVE_AVX512BW

#include <algorithm>
#include <bit>

#include <immintrin.h>

namespace pade {
namespace simd {
namespace {

// GCC 12's unmasked max, alignr, permutexvar, sllv, unpack, shuffle
// and extract intrinsics pass _mm512_undefined_epi32() as the merge
// source, which trips -Wmaybe-uninitialized inside avx512fintrin.h
// (GCC bug 105593); the zero-masked forms below with every lane
// enabled are the same instructions without the warning.
constexpr __mmask8 kAll = 0xFF;

inline __m512i
max64(__m512i a, __m512i b)
{
    return _mm512_maskz_max_epi64(kAll, a, b);
}

/** Lane i takes lane i - K of @p v; lanes below K take @p fill. */
template <int K>
inline __m512i
shiftUp(__m512i v, __m512i fill)
{
    return _mm512_maskz_alignr_epi64(kAll, v, fill, 8 - K);
}

/** Lane r = v[0] + ... + v[r]. */
inline __m512i
prefixSum(__m512i v)
{
    const __m512i zero = _mm512_setzero_si512();
    v = _mm512_add_epi64(v, shiftUp<1>(v, zero));
    v = _mm512_add_epi64(v, shiftUp<2>(v, zero));
    return _mm512_add_epi64(v, shiftUp<4>(v, zero));
}

/** Lane r = max(v[0], ..., v[r]). */
inline __m512i
prefixMax(__m512i v, __m512i lowest)
{
    v = max64(v, shiftUp<1>(v, lowest));
    v = max64(v, shiftUp<2>(v, lowest));
    return max64(v, shiftUp<4>(v, lowest));
}

/**
 * Words one plane sum may span in a 16-bit field: vpsadbw of biased
 * bytes adds at most 255 per element, and 4 * 64 * 255 < 2^16.
 */
constexpr int kWordsPerSum = 4;

/**
 * Lane p = the sum of the eight lanes of a[p], each plane's total
 * below 2^16 (at most kWordsPerSum words): four planes share a qword
 * in 16-bit fields (shifts, not a transpose), one unpack and two
 * block shuffles total both qwords, and a zero extension spreads the
 * eight fields over the lanes.
 */
inline __m512i
sumLanes(const __m512i (&a)[kMaxTilePlanes])
{
    const auto pack = [](const __m512i *q) {
        return _mm512_or_si512(
            _mm512_ternarylogic_epi64(
                q[0], _mm512_maskz_slli_epi64(kAll, q[1], 16),
                _mm512_maskz_slli_epi64(kAll, q[2], 32), 0xFE),
            _mm512_maskz_slli_epi64(kAll, q[3], 48));
    };
    const __m512i lo = pack(a);
    const __m512i hi = pack(a + 4);
    __m512i z = _mm512_add_epi64(_mm512_maskz_unpacklo_epi64(kAll, lo, hi),
                                 _mm512_maskz_unpackhi_epi64(kAll, lo, hi));
    z = _mm512_add_epi64(z, _mm512_maskz_shuffle_i64x2(kAll, z, z, 0x4E));
    z = _mm512_add_epi64(z, _mm512_maskz_shuffle_i64x2(kAll, z, z, 0xB1));
    return _mm512_maskz_cvtepu16_epi64(
        kAll, _mm512_maskz_extracti32x4_epi32(0xF, z, 0));
}

/** Sum of the eight lanes of @p v. */
inline int64_t
hsum64(__m512i v)
{
    const __m256i s =
        _mm256_add_epi64(_mm512_maskz_extracti64x4_epi64(0xF, v, 0),
                         _mm512_maskz_extracti64x4_epi64(0xF, v, 1));
    const __m128i t = _mm_add_epi64(_mm256_castsi256_si128(s),
                                    _mm256_extracti128_si256(s, 1));
    return _mm_cvtsi128_si64(t) + _mm_extract_epi64(t, 1);
}

/** Lane 0 of @p v. */
inline int64_t
lane0(__m512i v)
{
    return _mm_cvtsi128_si64(_mm512_maskz_extracti32x4_epi32(0xF, v, 0));
}

/**
 * Elements the query bytes of one 64-element word are loaded through:
 * all 64, except the row's last word when cols is not a multiple of
 * 64 (the query row is only padded to 32 bytes).
 */
inline __mmask64
wordLoadMask(int cols, int w)
{
    const int left = cols - 64 * w;
    return left >= 64 ? ~__mmask64{0} : (__mmask64{1} << left) - 1;
}

/**
 * One row's scan of a tile. kOneWord (head_dim <= 64) keeps the row's
 * biased query bytes in one register for the whole tile; wider rows
 * reload them per word.
 *
 * Every plane is scored with positive weight 2^{kbits-1-p}, plane 0
 * from the bytes its mask does NOT select (sum_sel x = qsum -
 * sum_unsel x), and the biases that leaves — 128 per element from
 * vpsadbw, and -(qsum + bias) 2^{kbits-1} from the sign plane — sum
 * to a per-row constant corr[r] per plane that is folded into the
 * BUI bounds once, not subtracted per key.
 */
template <bool kOneWord>
inline void
scanRow(const Tile &tile, const TileRow &row, KeyScore *out,
        std::size_t out_stride)
{
    const int nplanes = tile.nplanes;
    const int words = (row.q.cols + 63) / 64;
    const std::ptrdiff_t key_words =
        static_cast<std::ptrdiff_t>(tile.kbits) * words;
    const __mmask8 valid = static_cast<__mmask8>((1u << nplanes) - 1);
    const __mmask8 prunable = tile.prune ? valid : 0;
    const unsigned last = 1u << (nplanes - 1);

    const __m512i zero = _mm512_setzero_si512();
    const __m512i bias8 = _mm512_set1_epi8(static_cast<char>(0x80));
    // x XOR 0x80 = x + 128 as an unsigned byte; past cols it is 128.
    const auto biasedWord = [&](int w) {
        return _mm512_xor_si512(
            _mm512_maskz_loadu_epi8(wordLoadMask(row.q.cols, w),
                                    row.q.values +
                                        static_cast<std::ptrdiff_t>(w) *
                                            64),
            bias8);
    };
    const __m512i qx0 = biasedWord(0);

    // Lanes past the key's planes read plane nplanes - 1 again: they
    // only feed lanes the stop decision masks off.
    std::ptrdiff_t offset[kMaxTilePlanes];
    alignas(64) int64_t shift[kMaxTilePlanes];
    alignas(64) int64_t corr[kMaxTilePlanes];
    const int64_t bias = int64_t{64 * 128} * words;
    __m512i qsum_biased = zero;
    for (int w = 0; w < words; w++)
        qsum_biased = _mm512_add_epi64(
            qsum_biased, _mm512_sad_epu8(biasedWord(w), zero));
    // corr[0] = (qsum + bias) 2^{kbits-1}, the row's biased byte sum.
    int64_t c = hsum64(qsum_biased) << (tile.kbits - 1);
    for (int p = 0; p < kMaxTilePlanes; p++) {
        offset[p] = static_cast<std::ptrdiff_t>(std::min(p, nplanes - 1)) *
            words;
        shift[p] = std::max(0, tile.kbits - 1 - p);
        if (p > 0)
            c += bias << shift[p];
        corr[p] = c;
    }
    const __m512i shifts = _mm512_load_si512(shift);
    const __m512i corrv = _mm512_load_si512(corr);
    const __m512i lo =
        _mm512_sub_epi64(_mm512_maskz_loadu_epi64(valid, row.lo), corrv);
    const __m512i hi =
        _mm512_sub_epi64(_mm512_maskz_loadu_epi64(valid, row.hi), corrv);

    // The guard in registers. T = max(M, INT64_MIN + margin) - margin
    // is threshold()'s saturating form, lane-wise.
    GuardFilter &guard = *row.guard;
    const __m512i lowest = _mm512_set1_epi64(INT64_MIN);
    const __m512i margin = _mm512_set1_epi64(guard.margin());
    const __m512i floor = _mm512_set1_epi64(INT64_MIN + guard.margin());
    __m512i row_max = _mm512_set1_epi64(guard.maxLowerBound());
    // An unseen guard counts its first observe as an update.
    unsigned first_rise = guard.seen() ? 0 : 1;
    uint64_t updates = 0;

    for (int i = 0; i < tile.keys; i++) {
        const uint64_t *kp = tile.kplanes + key_words * i;
        // Plane p's biased byte sums in a[p]: a masked byte select
        // (other bytes read 128) and vpsadbw per plane and word,
        // folded into lanes = planes every kWordsPerSum words. The
        // plane loops unroll fully so that a[] lives in registers.
        const int nwords = kOneWord ? 1 : words;
        __m512i sums = zero;
        for (int w0 = 0; w0 < nwords; w0 += kWordsPerSum) {
            __m512i a[kMaxTilePlanes];
#pragma GCC unroll 8
            for (int p = 0; p < kMaxTilePlanes; p++)
                a[p] = zero;
            const int w1 = std::min(nwords, w0 + kWordsPerSum);
            for (int w = w0; w < w1; w++) {
                const __m512i qx = kOneWord ? qx0 : biasedWord(w);
                a[0] = _mm512_add_epi64(
                    a[0], _mm512_sad_epu8(
                              _mm512_mask_blend_epi8(kp[offset[0] + w],
                                                     qx, bias8),
                              zero));
#pragma GCC unroll 8
                for (int p = 1; p < kMaxTilePlanes; p++)
                    a[p] = _mm512_add_epi64(
                        a[p],
                        _mm512_sad_epu8(
                            _mm512_mask_blend_epi8(kp[offset[p] + w],
                                                   bias8, qx),
                            zero));
            }
            sums = _mm512_add_epi64(sums, sumLanes(a));
        }
        // Lanes are planes from here on: partial scores S^r (less
        // corr) and the BUI bounds of every plane at once.
        const __m512i score = prefixSum(
            _mm512_maskz_sllv_epi64(kAll, sums, shifts));
        const __m512i lb = _mm512_add_epi64(score, lo);
        const __m512i ub = _mm512_add_epi64(score, hi);
        // The row max after observe(lb[0..r]), per plane r: a rise
        // wherever it grows, and the threshold shouldPrune tests.
        const __m512i run_max = max64(row_max, prefixMax(lb, lowest));
        const unsigned rises =
            _mm512_cmpgt_epi64_mask(run_max, shiftUp<1>(run_max, row_max)) |
            first_rise;
        const __m512i thresh =
            _mm512_sub_epi64(max64(run_max, floor), margin);
        const unsigned prune =
            _mm512_mask_cmplt_epi64_mask(prunable, ub, thresh);
        const int stop = std::countr_zero(prune | last);

        row_max = _mm512_maskz_permutexvar_epi64(
            kAll, _mm512_set1_epi64(stop), run_max);
        updates += static_cast<uint64_t>(
            std::popcount(rises & ((2u << stop) - 1)));
        first_rise = 0;

        alignas(64) int64_t scores[kMaxTilePlanes];
        _mm512_store_si512(scores, score);
        out[static_cast<std::size_t>(i) * out_stride] = {
            scores[stop] - corr[stop], stop + 1,
            ((prune >> stop) & 1) != 0};
    }
    if (tile.keys > 0)
        guard.settle(lane0(row_max), updates);
}

} // namespace

bool
qkAvx512Compiled()
{
    return true;
}

void
scanTileAvx512(const Tile &tile, std::span<const TileRow> rows,
               KeyScore *out)
{
    for (std::size_t g = 0; g < rows.size(); g++) {
        if (rows[g].q.cols <= 64)
            scanRow<true>(tile, rows[g], out + g, rows.size());
        else
            scanRow<false>(tile, rows[g], out + g, rows.size());
    }
}

} // namespace simd
} // namespace pade

#else // !PADE_HAVE_AVX512BW: the AVX2 kernel (or its portable stub).

namespace pade {
namespace simd {

bool
qkAvx512Compiled()
{
    return false;
}

void
scanTileAvx512(const Tile &tile, std::span<const TileRow> rows,
               KeyScore *out)
{
    scanTileAvx2(tile, rows, out);
}

} // namespace simd
} // namespace pade

#endif // PADE_HAVE_AVX512BW
