#include "core/simd/qk_simd.h"

#ifdef PADE_HAVE_AVX512BW

#include <immintrin.h>

namespace pade {
namespace simd {
namespace {

/**
 * Horizontal sum of 8 quadword lanes. The zero-masked extracts keep
 * GCC 12 quiet: its unmasked _mm512_extracti64x4_epi64,
 * _mm512_reduce_add_epi64 and _mm512_castsi512_si256 trip
 * -Wmaybe-uninitialized inside avx512fintrin.h (GCC bug 105593).
 */
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

/**
 * Per-word byte sums of the selected query bytes, biased by +128 per
 * byte: the masked load zeroes unselected bytes, XOR 0x80 maps every
 * int8 x to the unsigned x + 128, and vpsadbw sums each 8-byte group.
 */
inline __m512i
biasedSum(const int8_t *values, uint64_t mask)
{
    const __m512i v = _mm512_xor_si512(
        _mm512_maskz_loadu_epi8(mask, values),
        _mm512_set1_epi8(static_cast<char>(0x80)));
    return _mm512_sad_epu8(v, _mm512_setzero_si512());
}

/** Bias vpsadbw adds per 64-element word (64 bytes x 128). */
constexpr int64_t kWordBias = 64 * 128;

} // namespace

bool
qkAvx512Compiled()
{
    return true;
}

KeyScore
scoreKeyAvx512(const QPlaneView &q, const uint64_t *kplanes, int kstride,
               int kbits, int nplanes, const KeyGuard *guard)
{
    const int words = (q.cols + 63) / 64;
    if (words == 1)
        return scoreKeyWith(kplanes, kstride, kbits, nplanes, guard,
                            [&q](const uint64_t *mask) {
                                return hsum64(biasedSum(q.values,
                                                        mask[0])) -
                                    kWordBias;
                            });
    return scoreKeyWith(
        kplanes, kstride, kbits, nplanes, guard,
        [&q, words](const uint64_t *mask) {
            __m512i acc = _mm512_setzero_si512();
            for (int w = 0; w < words; w++)
                acc = _mm512_add_epi64(
                    acc, biasedSum(q.values +
                                       static_cast<std::ptrdiff_t>(w) * 64,
                                   mask[w]));
            return hsum64(acc) - kWordBias * words;
        });
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

KeyScore
scoreKeyAvx512(const QPlaneView &q, const uint64_t *kplanes, int kstride,
               int kbits, int nplanes, const KeyGuard *guard)
{
    return scoreKeyAvx2(q, kplanes, kstride, kbits, nplanes, guard);
}

} // namespace simd
} // namespace pade

#endif // PADE_HAVE_AVX512BW
