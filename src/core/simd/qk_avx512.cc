#include "core/simd/qk_simd.h"

#ifdef PADE_HAVE_AVX512BW

#include <algorithm>
#include <bit>

#include <immintrin.h>

namespace pade {
namespace simd {
namespace {

// GCC 12's unmasked max, alignr, permutexvar, sllv, srlv, unpack,
// shuffle, extract and cast intrinsics pass _mm512_undefined_epi32()
// as the merge source, which trips -Wmaybe-uninitialized inside
// avx512fintrin.h (GCC bug 105593); the zero-masked forms below with
// every lane enabled are the same instructions without the warning.
constexpr __mmask8 kAll = 0xFF;
constexpr __mmask16 kAll16 = 0xFFFF;

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
 * Planes 0-3 of @p a (vpsadbw sums, each below 2^16) as the four
 * 16-bit fields of every qword: shifts, not a transpose.
 */
inline __m512i
packPlanes(const __m512i *a)
{
    return _mm512_or_si512(
        _mm512_ternarylogic_epi64(a[0], _mm512_maskz_slli_epi64(kAll, a[1], 16),
                                  _mm512_maskz_slli_epi64(kAll, a[2], 32),
                                  0xFE),
        _mm512_maskz_slli_epi64(kAll, a[3], 48));
}

/**
 * Per 128-bit block, the block's two qwords of packed planes 0-3
 * (@p lo) and 4-7 (@p hi) summed: words 0-7 = planes 0-7.
 */
inline __m512i
foldQwords(__m512i lo, __m512i hi)
{
    return _mm512_add_epi64(_mm512_maskz_unpacklo_epi64(kAll, lo, hi),
                            _mm512_maskz_unpackhi_epi64(kAll, lo, hi));
}

/**
 * Lane p = the sum of the eight lanes of a[p], each plane's total
 * below 2^16 (at most kWordsPerSum words): packed planes, two block
 * shuffles to total the blocks, and a zero extension that spreads the
 * eight fields over the lanes.
 */
inline __m512i
sumLanes(const __m512i (&a)[kMaxTilePlanes])
{
    __m512i z = foldQwords(packPlanes(a), packPlanes(a + 4));
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

/** Word @p w of query @p q as biased bytes: x XOR 0x80 = x + 128 as
 *  an unsigned byte; past cols it is 128. */
inline __m512i
biasedWord(const QPlaneView &q, int w)
{
    return _mm512_xor_si512(
        _mm512_maskz_loadu_epi8(wordLoadMask(q.cols, w),
                                q.values + static_cast<std::ptrdiff_t>(w) * 64),
        _mm512_set1_epi8(static_cast<char>(0x80)));
}

/**
 * Plane p's biased byte sums of one key against one row over words
 * w0 .. w1 - 1, into a[p] (vpsadbw lanes). Every plane is scored with
 * positive weight 2^{kbits-1-p}, plane 0 from the bytes its mask does
 * NOT select (sum_sel x = qsum - sum_unsel x); the plane loops unroll
 * fully so that a[] lives in registers.
 */
template <class Qx>
inline void
planeSums(const uint64_t *kp, const std::ptrdiff_t (&offset)[kMaxTilePlanes],
          int w0, int w1, Qx &&qx, __m512i (&a)[kMaxTilePlanes])
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i bias8 = _mm512_set1_epi8(static_cast<char>(0x80));
#pragma GCC unroll 8
    for (int p = 0; p < kMaxTilePlanes; p++)
        a[p] = zero;
    for (int w = w0; w < w1; w++) {
        const __m512i x = qx(w);
        a[0] = _mm512_add_epi64(
            a[0], _mm512_sad_epu8(
                      _mm512_mask_blend_epi8(kp[offset[0] + w], x, bias8),
                      zero));
#pragma GCC unroll 8
        for (int p = 1; p < kMaxTilePlanes; p++)
            a[p] = _mm512_add_epi64(
                a[p],
                _mm512_sad_epu8(
                    _mm512_mask_blend_epi8(kp[offset[p] + w], bias8, x),
                    zero));
    }
}

/**
 * A tile's constants, the same for every row (they share the key
 * layout): words per key plane, each plane's offset in a key, the
 * plane weights 2^{kbits-1-p} as 64-bit lane shifts (row path) and as
 * sumPairLanes() word factors (pair path), and the part of corr[p]
 * (see rowCorrection()) that only the layout fixes.
 */
struct TileConsts
{
    int words;
    std::ptrdiff_t offset[kMaxTilePlanes];
    __m512i shifts;
    __m512i weights;
    __m512i corr_base;

    TileConsts(const Tile &tile, int cols) : words((cols + 63) / 64)
    {
        // Lanes past the key's planes read plane nplanes - 1 again:
        // they only feed lanes the stop decision masks off.
        for (int p = 0; p < kMaxTilePlanes; p++)
            offset[p] = static_cast<std::ptrdiff_t>(
                            std::min(p, tile.nplanes - 1)) *
                words;
        const __m512i zero = _mm512_setzero_si512();
        // Lane p: max(0, kbits - 1 - p).
        shifts = _mm512_maskz_max_epi64(
            kAll, zero,
            _mm512_sub_epi64(_mm512_set1_epi64(tile.kbits - 1),
                             _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0)));
        // Word l of a block pair belongs to plane l / 2 mod 8.
        const __mmask32 all32 = ~__mmask32{0};
        const __m512i plane_of_word = _mm512_set_epi16(
            7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0, 0, 7, 7, 6, 6, 5, 5,
            4, 4, 3, 3, 2, 2, 1, 1, 0, 0);
        weights = _mm512_maskz_sllv_epi16(
            all32, _mm512_set1_epi16(1),
            _mm512_maskz_max_epi16(
                all32, zero,
                _mm512_sub_epi16(
                    _mm512_set1_epi16(static_cast<int16_t>(tile.kbits - 1)),
                    plane_of_word)));
        // 128 * 64 words times the weights of planes 1 .. p: a sum of
        // weights below 2^9 times words below 2^25, exact in vpmuludq.
        corr_base = _mm512_maskz_slli_epi64(
            kAll,
            _mm512_maskz_mul_epu32(
                kAll,
                prefixSum(_mm512_maskz_sllv_epi64(0xFE, _mm512_set1_epi64(1),
                                                  shifts)),
                _mm512_set1_epi64(words)),
            13);
    }
};

/**
 * corr[p] of @p row: the bias plane p's prefix score carries — 128 per
 * element from vpsadbw, and -(qsum + bias) 2^{kbits-1} from the sign
 * plane — which both paths fold into the BUI bounds once instead of
 * subtracting it per key. Below 2^48 for any int head_dim.
 */
inline __m512i
rowCorrection(const Tile &tile, const TileConsts &tc, const TileRow &row)
{
    const __m512i zero = _mm512_setzero_si512();
    __m512i qsum_biased = zero;
    for (int w = 0; w < tc.words; w++)
        qsum_biased = _mm512_add_epi64(
            qsum_biased, _mm512_sad_epu8(biasedWord(row.q, w), zero));
    // corr[0] = (qsum + bias) 2^{kbits-1}, the row's biased byte sum.
    return _mm512_add_epi64(
        _mm512_set1_epi64(hsum64(qsum_biased) << (tile.kbits - 1)),
        tc.corr_base);
}

/**
 * The row path: one row per vector, planes in 64-bit lanes. It takes
 * the rows the pair path cannot: a lone or odd row, or one whose
 * bounds leave the pair path's lane range. kOneWord (head_dim <= 64)
 * keeps the row's biased query bytes in one register for the whole
 * tile; wider rows reload them per word.
 */
template <bool kOneWord>
inline void
scanRow(const Tile &tile, const TileConsts &tc, const TileRow &row,
        const int64_t (&corr)[kMaxTilePlanes], KeyScore *out,
        std::size_t out_stride)
{
    const int nplanes = tile.nplanes;
    const std::ptrdiff_t key_words =
        static_cast<std::ptrdiff_t>(tile.kbits) * tc.words;
    const __mmask8 valid = static_cast<__mmask8>((1u << nplanes) - 1);
    const __mmask8 prunable = tile.prune ? valid : 0;
    const unsigned last = 1u << (nplanes - 1);

    const __m512i zero = _mm512_setzero_si512();
    const __m512i qx0 = biasedWord(row.q, 0);
    const auto qx = [&](int w) {
        return kOneWord ? qx0 : biasedWord(row.q, w);
    };
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
        // Plane p's biased byte sums, folded into lanes = planes every
        // kWordsPerSum words.
        const int nwords = kOneWord ? 1 : tc.words;
        __m512i sums = zero;
        for (int w0 = 0; w0 < nwords; w0 += kWordsPerSum) {
            __m512i a[kMaxTilePlanes];
            planeSums(kp, tc.offset, w0,
                      std::min(nwords, w0 + kWordsPerSum), qx, a);
            sums = _mm512_add_epi64(sums, sumLanes(a));
        }
        // Lanes are planes from here on: partial scores S^r (plus
        // corr) and the BUI bounds of every plane at once.
        const __m512i score = prefixSum(
            _mm512_maskz_sllv_epi64(kAll, sums, tc.shifts));
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
            scores[stop] - corr[stop], stop + 1, ((prune >> stop) & 1) != 0};
    }
    if (tile.keys > 0)
        guard.settle(lane0(row_max), updates);
}

// ---------------------------------------------------------------------
// The pair path: two rows per vector in 32-bit lanes, row A's planes
// in lanes 0-7 and row B's in lanes 8-15, and two such pairs per key.
//
// Why 32 bits are exact. A biased plane sum is at most 255 per
// element, so a lane's biased prefix score s_r lies in [0, U] with
// U = 255 * 64 words * (2^kbits - 1); with kbits * head_dim <= 65535
// (kMaxWorkPrefixElems), U < 2^29. The lower and upper bounds are
// s_r + lo'[r] and s_r + hi'[r], with lo' = lo - corr and
// hi' = hi - corr. A row is paired only when lo'[r] and hi'[r] lie in
// (-2^30, 2^30 - U) for every scored plane and its guard max (once
// seen) in (-2^30, 2^30): then every bound, and so the running max
// of the lower bounds, stays strictly inside +-2^30, and the
// difference of any two stays below 2^31 - 1. The threshold
// max(M, INT32_MIN + m) - m, with the margin saturated at
// m = min(margin, 2^31 - 1), then decides every compare as the 64-bit
// one does: a margin of 2^31 - 1 or more prunes nothing in either
// width, and a smaller one never wraps. Real BUI tables always
// qualify: corr[0] alone exceeds hi, so hi' <= 0, and |lo'| stays
// below 64 words * 511 * 2^{kbits-1} < 2^29. A guard seeded outside
// the range, or a hand-made table, takes the row path.
// ---------------------------------------------------------------------

/** Every pair-path lane value stays strictly inside +-kLaneBound. */
constexpr int64_t kLaneBound = int64_t{1} << 30;

/** Lanes of a pair vector that hold row B (the upper eight). */
constexpr __mmask16 kRowB = 0xFF00;

/** A row staged for the pair path, or on its way to the row path. */
struct PairRow
{
    const TileRow *row;
    std::size_t col;                           //!< the row's column of out
    alignas(64) int64_t corr[kMaxTilePlanes];  //!< see rowCorrection()
    __m256i lo;     //!< lo - corr per plane (0 past nplanes)
    __m256i hi;     //!< hi - corr per plane (0 past nplanes)
    int32_t max;    //!< the guard max, INT32_MIN unseen
    int32_t margin; //!< the guard margin, saturated

    /**
     * Stage row (row and corr already set) for the pair path: false
     * when one of its lane values could leave +-kLaneBound, and the
     * row path takes it.
     */
    bool
    stage(const Tile &tile, const TileConsts &tc)
    {
        const GuardFilter &guard = *row->guard;
        if (guard.seen() && (guard.maxLowerBound() <= -kLaneBound ||
                             guard.maxLowerBound() >= kLaneBound))
            return false;
        const auto valid = static_cast<__mmask8>((1u << tile.nplanes) - 1);
        const __m512i corrv = _mm512_load_si512(corr);
        const __m512i lo64 = _mm512_maskz_loadu_epi64(valid, row->lo);
        const __m512i hi64 = _mm512_maskz_loadu_epi64(valid, row->hi);
        const __m512i lo_c = _mm512_sub_epi64(lo64, corrv);
        const __m512i hi_c = _mm512_sub_epi64(hi64, corrv);
        // Bounds above -2^62 lose corr (below 2^48) without wrapping;
        // then bound - corr must lie in (-2^30, 2^30 - reach).
        const int64_t reach = int64_t{255 * 64} * tc.words *
            ((int64_t{1} << tile.kbits) - 1);
        const __m512i sane = _mm512_set1_epi64(-(int64_t{1} << 62));
        const __m512i floor = _mm512_set1_epi64(-kLaneBound);
        const __m512i ceil = _mm512_set1_epi64(kLaneBound - reach);
        __mmask8 ok = _mm512_mask_cmpgt_epi64_mask(valid, lo64, sane);
        ok = _mm512_mask_cmpgt_epi64_mask(ok, hi64, sane);
        ok = _mm512_mask_cmpgt_epi64_mask(ok, lo_c, floor);
        ok = _mm512_mask_cmpgt_epi64_mask(ok, hi_c, floor);
        ok = _mm512_mask_cmplt_epi64_mask(ok, lo_c, ceil);
        ok = _mm512_mask_cmplt_epi64_mask(ok, hi_c, ceil);
        if (ok != valid)
            return false;
        lo = _mm512_maskz_cvtepi64_epi32(valid, lo_c);
        hi = _mm512_maskz_cvtepi64_epi32(valid, hi_c);
        max = guard.seen() ? static_cast<int32_t>(guard.maxLowerBound())
                           : INT32_MIN;
        margin = static_cast<int32_t>(
            std::min<int64_t>(guard.margin(), INT32_MAX));
        return true;
    }
};

/** Row A's @p a in lanes 0-7, row B's @p b in lanes 8-15. */
inline __m512i
pairOf(__m256i a, __m256i b)
{
    return _mm512_maskz_inserti64x4(kAll, _mm512_castsi256_si512(a), b, 1);
}

/** @p a in lanes 0-7, @p b in lanes 8-15. */
inline __m512i
pairOf(int32_t a, int32_t b)
{
    return _mm512_mask_set1_epi32(_mm512_set1_epi32(a), kRowB, b);
}

/** Lanes of each row that take lane i - K in a K-lane scan step. */
template <int K>
constexpr __mmask16 kScanKeep =
    static_cast<__mmask16>(((0xFFu << K) & 0xFFu) * 0x0101u);

/** Every lane i of @p v rotated down from lane i - K (mod 16). */
template <int K>
inline __m512i
rotateUp(__m512i v)
{
    return _mm512_maskz_alignr_epi32(kAll16, v, v, 16 - K);
}

/** Per row, lane r = v[0] + ... + v[r]. */
inline __m512i
prefixSumPair(__m512i v)
{
    v = _mm512_mask_add_epi32(v, kScanKeep<1>, v, rotateUp<1>(v));
    v = _mm512_mask_add_epi32(v, kScanKeep<2>, v, rotateUp<2>(v));
    return _mm512_mask_add_epi32(v, kScanKeep<4>, v, rotateUp<4>(v));
}

/** Per row, lane r = max(v[0], ..., v[r]). */
inline __m512i
prefixMaxPair(__m512i v)
{
    v = _mm512_mask_max_epi32(v, kScanKeep<1>, v, rotateUp<1>(v));
    v = _mm512_mask_max_epi32(v, kScanKeep<2>, v, rotateUp<2>(v));
    return _mm512_mask_max_epi32(v, kScanKeep<4>, v, rotateUp<4>(v));
}

/**
 * Per row, lane i = lane i - 1 of @p v; each row's lane 0 takes
 * @p fill's.
 */
inline __m512i
previousPair(__m512i v, __m512i fill)
{
    return _mm512_mask_alignr_epi32(fill, kScanKeep<1>, v, v, 15);
}

inline __m512i
max32(__m512i a, __m512i b)
{
    return _mm512_maskz_max_epi32(kAll16, a, b);
}

/**
 * Planes 0-3 of @p a (vpsadbw sums, each below 2^16) as 16-bit fields,
 * two per plane in each 128-bit block: block b holds plane p's qwords
 * 2b and 2b + 1 in words 2p and 2p + 1 (two vpackusdw levels).
 */
inline __m512i
packPlaneWords(const __m512i *a)
{
    return _mm512_packus_epi32(_mm512_packus_epi32(a[0], a[1]),
                               _mm512_packus_epi32(a[2], a[3]));
}

/**
 * packPlaneWords() of planes 0-3 (@p lo) and 4-7 (@p hi) of one
 * one-word key against kRows rows (@p qx, biased bytes), plane-major:
 * each plane mask is loaded once for all the rows, and the sums are
 * packed as they come, so neither the masks nor the sums outgrow the
 * registers.
 */
template <int kRows>
inline void
planeWordsOneWord(const uint64_t *kp,
                  const std::ptrdiff_t (&offset)[kMaxTilePlanes],
                  const __m512i (&qx)[kRows], __m512i (&lo)[kRows],
                  __m512i (&hi)[kRows])
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i bias8 = _mm512_set1_epi8(static_cast<char>(0x80));
    // As in planeSums: plane 0 sums the bytes its mask does not select.
    const auto sum = [&](int p, __mmask64 m, __m512i x) {
        return _mm512_sad_epu8(p == 0 ? _mm512_mask_blend_epi8(m, x, bias8)
                                      : _mm512_mask_blend_epi8(m, bias8, x),
                               zero);
    };
#pragma GCC unroll 2
    for (int h = 0; h < 2; h++) {
        __m512i half[2][kRows];
#pragma GCC unroll 2
        for (int pp = 0; pp < 2; pp++) {
            const int p = 4 * h + 2 * pp;
            const __mmask64 m0 = kp[offset[p]];
            const __mmask64 m1 = kp[offset[p + 1]];
#pragma GCC unroll 4
            for (int r = 0; r < kRows; r++)
                half[pp][r] = _mm512_packus_epi32(sum(p, m0, qx[r]),
                                                  sum(p + 1, m1, qx[r]));
        }
#pragma GCC unroll 4
        for (int r = 0; r < kRows; r++)
            (h == 0 ? lo : hi)[r] = _mm512_packus_epi32(half[0][r], half[1][r]);
    }
}

/**
 * Lanes 0-7 = row A's eight weighted plane totals, lanes 8-15 = row
 * B's, from each row's plane words (packPlaneWords of planes 0-3 and
 * 4-7): total both rows' blocks with four block shuffles, then
 * vpmaddwd adds each plane's two words times its weight @p weights.
 * A word holds a quarter of a plane's vpsadbw lanes over at most
 * kWordsPerSum key words, 4 * 2040 * 4 < 2^15, so the signed multiply
 * reads it exactly.
 */
inline __m512i
sumPairLanes(__m512i a_lo, __m512i a_hi, __m512i b_lo, __m512i b_hi,
             __m512i weights)
{
    // Per row, blocks [lo 0+2, lo 1+3, hi 0+2, hi 1+3].
    const __m512i a =
        _mm512_add_epi16(_mm512_maskz_shuffle_i64x2(kAll, a_lo, a_hi, 0x44),
                         _mm512_maskz_shuffle_i64x2(kAll, a_lo, a_hi, 0xEE));
    const __m512i b =
        _mm512_add_epi16(_mm512_maskz_shuffle_i64x2(kAll, b_lo, b_hi, 0x44),
                         _mm512_maskz_shuffle_i64x2(kAll, b_lo, b_hi, 0xEE));
    // Blocks [A lo, A hi, B lo, B hi].
    const __m512i t =
        _mm512_add_epi16(_mm512_maskz_shuffle_i64x2(kAll, a, b, 0x88),
                         _mm512_maskz_shuffle_i64x2(kAll, a, b, 0xDD));
    return _mm512_maskz_madd_epi16(kAll16, t, weights);
}

/**
 * Score a tile for kPairs pairs of staged rows (rows[2q] is pair q's
 * row A, rows[2q + 1] its row B), each row's keys in order. The pairs
 * share each key's plane masks, and their guard chains overlap.
 */
template <bool kOneWord, int kPairs>
inline void
scanPairs(const Tile &tile, const TileConsts &tc, const PairRow *rows,
          KeyScore *out, std::size_t out_stride)
{
    constexpr int kRows = 2 * kPairs;
    const int nplanes = tile.nplanes;
    const std::ptrdiff_t key_words =
        static_cast<std::ptrdiff_t>(tile.kbits) * tc.words;
    const unsigned valid = ((1u << nplanes) - 1) * 0x0101u;
    const auto prunable = static_cast<__mmask16>(tile.prune ? valid : 0);
    // Each row's last plane: its stop when nothing prunes.
    const unsigned last = (1u << (nplanes - 1)) * 0x0101u;

    const __m512i zero = _mm512_setzero_si512();
    // vpermd reads an index's low four bits: row B's stop sits in bits
    // 4-7 of the broadcast and is shifted down in its lanes.
    const __m512i stop_shift = pairOf(0, 4);

    __m512i qx0[kRows];
    KeyScore *row_out[kRows];
    for (int r = 0; r < kRows; r++) {
        qx0[r] = biasedWord(rows[r].row->q, 0);
        row_out[r] = out + rows[r].col;
    }
    __m512i lo[kPairs], hi[kPairs], margin[kPairs], floor[kPairs];
    __m512i row_max[kPairs];
    unsigned first_rise[kPairs];
    uint64_t updates[kRows] = {};
    for (int q = 0; q < kPairs; q++) {
        const PairRow &a = rows[2 * q];
        const PairRow &b = rows[2 * q + 1];
        lo[q] = pairOf(a.lo, b.lo);
        hi[q] = pairOf(a.hi, b.hi);
        margin[q] = pairOf(a.margin, b.margin);
        floor[q] = _mm512_add_epi32(_mm512_set1_epi32(INT32_MIN), margin[q]);
        row_max[q] = pairOf(a.max, b.max);
        // An unseen guard counts its first observe as an update.
        first_rise[q] = (a.row->guard->seen() ? 0u : 1u) |
            (b.row->guard->seen() ? 0u : 0x100u);
    }

    for (int i = 0; i < tile.keys; i++) {
        const uint64_t *kp = tile.kplanes + key_words * i;
        const int nwords = kOneWord ? 1 : tc.words;
        __m512i sums[kPairs];
        for (int q = 0; q < kPairs; q++)
            sums[q] = zero;
        for (int w0 = 0; w0 < nwords; w0 += kWordsPerSum) {
            const int w1 = std::min(nwords, w0 + kWordsPerSum);
            __m512i packed_lo[kRows];
            __m512i packed_hi[kRows];
            if constexpr (kOneWord) {
                planeWordsOneWord(kp, tc.offset, qx0, packed_lo, packed_hi);
            } else {
                for (int r = 0; r < kRows; r++) {
                    const QPlaneView &q = rows[r].row->q;
                    __m512i a[kMaxTilePlanes];
                    planeSums(kp, tc.offset, w0, w1,
                              [&](int w) { return biasedWord(q, w); }, a);
                    packed_lo[r] = packPlaneWords(a);
                    packed_hi[r] = packPlaneWords(a + 4);
                }
            }
#pragma GCC unroll 2
            for (int q = 0; q < kPairs; q++)
                sums[q] = _mm512_add_epi32(
                    sums[q],
                    sumPairLanes(packed_lo[2 * q], packed_hi[2 * q],
                                 packed_lo[2 * q + 1],
                                 packed_hi[2 * q + 1], tc.weights));
        }
        const std::size_t at = static_cast<std::size_t>(i) * out_stride;
#pragma GCC unroll 2
        for (int q = 0; q < kPairs; q++) {
            // scanRow's steps, lane-wise for both rows at once.
            const __m512i score = prefixSumPair(sums[q]);
            const __m512i lb = _mm512_add_epi32(score, lo[q]);
            const __m512i ub = _mm512_add_epi32(score, hi[q]);
            const __m512i run_max = max32(row_max[q], prefixMaxPair(lb));
            const unsigned rises =
                _mm512_cmpgt_epi32_mask(run_max,
                                        previousPair(run_max, row_max[q])) |
                first_rise[q];
            const __m512i thresh =
                _mm512_sub_epi32(max32(run_max, floor[q]), margin[q]);
            const unsigned prune =
                _mm512_mask_cmplt_epi32_mask(prunable, ub, thresh);
            // Each row's stop plane, and its lanes up to the stop:
            // every byte of x is nonzero, so x - 0x0101 borrows within
            // each row only.
            const unsigned x = prune | last;
            const int stop_a = __builtin_ctz(x & 0xFFu);
            const int stop_b = __builtin_ctz(x >> 8);
            const unsigned counted = rises & (x ^ (x - 0x0101u));

            row_max[q] = _mm512_maskz_permutexvar_epi32(
                kAll16,
                _mm512_maskz_srlv_epi32(
                    kAll16, _mm512_set1_epi32(stop_a | (stop_b + 8) << 4),
                    stop_shift),
                run_max);
            updates[2 * q] +=
                static_cast<uint64_t>(std::popcount(counted & 0xFFu));
            updates[2 * q + 1] +=
                static_cast<uint64_t>(std::popcount(counted >> 8));
            first_rise[q] = 0;

            alignas(64) int32_t scores[2 * kMaxTilePlanes];
            _mm512_store_si512(scores, score);
            row_out[2 * q][at] = {
                scores[stop_a] - rows[2 * q].corr[stop_a], stop_a + 1,
                ((prune >> stop_a) & 1) != 0};
            row_out[2 * q + 1][at] = {
                scores[8 + stop_b] - rows[2 * q + 1].corr[stop_b],
                stop_b + 1, ((prune >> (8 + stop_b)) & 1) != 0};
        }
    }
    if (tile.keys == 0)
        return;
    for (int q = 0; q < kPairs; q++) {
        alignas(64) int32_t m[2 * kMaxTilePlanes];
        _mm512_store_si512(m, row_max[q]);
        rows[2 * q].row->guard->settle(m[0], updates[2 * q]);
        rows[2 * q + 1].row->guard->settle(m[8], updates[2 * q + 1]);
    }
}

template <int kPairs>
inline void
runPairs(const Tile &tile, const TileConsts &tc, const PairRow *rows,
         KeyScore *out, std::size_t out_stride)
{
    if (tc.words == 1)
        scanPairs<true, kPairs>(tile, tc, rows, out, out_stride);
    else
        scanPairs<false, kPairs>(tile, tc, rows, out, out_stride);
}

inline void
runRow(const Tile &tile, const TileConsts &tc, const PairRow &pr,
       KeyScore *out, std::size_t out_stride)
{
    if (tc.words == 1)
        scanRow<true>(tile, tc, *pr.row, pr.corr, out + pr.col, out_stride);
    else
        scanRow<false>(tile, tc, *pr.row, pr.corr, out + pr.col, out_stride);
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
    if (rows.empty())
        return;
    // Every row of a tile has the same words per key plane: the key
    // layout derives from it.
    const TileConsts tc(tile, rows[0].q.cols);
    const std::size_t nrows = rows.size();
    // In-range rows wait here for partners, four at a time (two
    // pairs); the rest run the row path at once.
    PairRow pending[4];
    int npending = 0;
    for (std::size_t g = 0; g < nrows; g++) {
        PairRow &pr = pending[npending];
        pr.row = &rows[g];
        pr.col = g;
        _mm512_store_si512(pr.corr, rowCorrection(tile, tc, rows[g]));
        if (nrows == 1 || !pr.stage(tile, tc)) {
            runRow(tile, tc, pr, out, nrows);
            continue;
        }
        if (++npending == 4) {
            runPairs<2>(tile, tc, pending, out, nrows);
            npending = 0;
        }
    }
    if (npending >= 2)
        runPairs<1>(tile, tc, pending, out, nrows);
    if (npending % 2 == 1)
        runRow(tile, tc, pending[npending - 1], out, nrows);
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
