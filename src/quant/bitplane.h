/**
 * @file
 * Two's-complement bit-plane decomposition of integer Key matrices.
 *
 * PADE's bit-serial stage fusion (BSF) streams the Key matrix MSB-plane
 * first: plane r of a p-bit value b_{p-1}..b_0 holds bit (p-1-r) of every
 * element, so plane 0 is the sign plane with weight -2^{p-1} and plane r>0
 * has weight +2^{p-1-r}. Because every non-sign bit contributes a
 * non-negative amount, knowing planes 0..r bounds the remaining magnitude
 * by M_r = 2^{p-1-r} - 1 per element — the property the BUI (bit-wise
 * uncertainty interval) exploits.
 *
 * Planes are stored packed (64 bits/word) per (row, plane), matching
 * the accelerator's K-SRAM layout in which one SRAM row holds the same
 * bit plane across the hidden dimension (paper Fig. 22).
 *
 * Storage layout shared by BitPlaneSet and QueryPlanes: plane t of row
 * r is the wordsPerPlane() = ceil(cols / 64) words at word
 * (r * bits + t) * wordsPerPlane(), with no padding between planes or
 * rows, so a row's planes are one contiguous block. Bits past the
 * column count within a plane's last word are zero.
 */

#ifndef PADE_QUANT_BITPLANE_H
#define PADE_QUANT_BITPLANE_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "tensor/matrix.h"

namespace pade {

/**
 * Packed bit planes of an integer matrix (rows = keys/tokens).
 */
class BitPlaneSet
{
  public:
    /**
     * Decompose @p m into @p bits planes (MSB first).
     *
     * @param m int8 matrix; for bits < 8, all values must fit the
     *        range (PADE_CHECKed row by row, see appendToken()).
     * @param bits total bit-width p in [2, 8].
     */
    explicit BitPlaneSet(const MatrixI8 &m, int bits = 8);

    /**
     * Empty set over @p cols columns, ready for incremental
     * appendToken() growth (the KV-cache construction path). When
     * @p capacity_rows > 0 the backing store is reserved up front, so
     * appends up to that capacity never reallocate — the fixed-page
     * contract src/serving/kv_cache.h builds on.
     */
    BitPlaneSet(int cols, int bits, int capacity_rows);

    /**
     * Append one token's @p row as a new bottom row, packing only that
     * row's bits: O(bits * cols) work, independent of the rows already
     * stored. Rows packed this way are bit-identical to the same rows
     * packed by the matrix constructor — the invariant the
     * incremental-decode parity tests enforce. @p row must hold
     * exactly numCols() values in the bit-width's range
     * [-2^{p-1}, 2^{p-1} - 1]; both are PADE_CHECKed in every build
     * (a key outside it would be stored, and scored, as a different
     * value). 8-bit rows cannot be out of range and skip the check.
     */
    void appendToken(std::span<const int8_t> row);

    int numRows() const { return rows_; }
    int numCols() const { return cols_; }
    int numPlanes() const { return bits_; }
    int wordsPerPlane() const { return words_; }

    /**
     * Content identity token for derived-table caches. Drawn from a
     * process-wide counter at construction and advanced by every
     * appendToken(), so no two distinct contents ever share a
     * (pointer, revision) pair — even when a new set is allocated at
     * a freed set's address. PadeWorkspace keys its query-independent
     * PlaneWork table on this to skip the per-call rebuild when the
     * same planes are scored again (the GQA case: every query head of
     * a group scores the one shared KV-head plane set).
     */
    uint64_t revision() const { return revision_; }

    /**
     * All @c numPlanes() planes of @p row as one contiguous block:
     * plane r starts at offset r * wordsPerPlane(), and the planes
     * of row @p row + 1 start right after it. This is the key view the guarded scan
     * and the SIMD tile kernels consume.
     */
    std::span<const uint64_t>
    rowPlanes(int row) const
    {
        PADE_DCHECK(row >= 0 && row < rows_);
        return {storage_.data() + planeIndex(row, 0),
                static_cast<std::size_t>(bits_) * words_};
    }

    /** Signed weight of plane @p r: -2^{p-1} for r=0, else 2^{p-1-r}. */
    int planeWeight(int r) const;

    /**
     * Remaining-magnitude constant after planes 0..r are known:
     * M_r = 2^{p-1-r} - 1 (0 once every plane is processed).
     */
    int remainingMagnitude(int r) const;

    /** Bit of element (row, col) on plane r. */
    bool bit(int row, int r, int col) const;

    /** Packed words of plane r of @p row (wordsPerPlane() words). */
    std::span<const uint64_t> plane(int row, int r) const;

    /**
     * Partial reconstruction of element (row, col) using planes 0..r
     * with all unknown bits set to zero (the conservative value S^r
     * builds on).
     */
    int reconstruct(int row, int col, int r) const;

    /** Bytes of one plane of one row as stored in DRAM (ceil(H/8)). */
    int planeBytes() const { return (cols_ + 7) / 8; }

  private:
    std::size_t
    planeIndex(int row, int r) const
    {
        return (static_cast<std::size_t>(row) * bits_ + r) * words_;
    }

    /** Next unused revision token (see revision()). */
    static uint64_t nextRevision();

    int rows_ = 0;
    int cols_ = 0;
    int bits_ = 8;
    int words_ = 0; //!< words per plane: ceil(cols / 64)
    uint64_t revision_ = 0;
    std::vector<uint64_t> storage_;
};

/**
 * Bit-plane decomposition of a single query row, the Q-side dual of
 * BitPlaneSet.
 *
 * The per-plane sum the bit-serial kernels need,
 *   sum_{d : k_d = 1} q_d,
 * becomes word-parallel once the query is also plane-packed: with
 * q_d = sum_t qw_t * qbit_t(d) (two's complement over the query
 * planes), the sum equals
 *   sum_t qw_t * popcount(qplane_t AND kplane),
 * i.e. a handful of 64-bit AND+popcount operations instead of a walk
 * over every set key bit. The arithmetic is exact, so results are
 * bit-identical to the scalar accumulation.
 *
 * assign() reuses the packed storage, making repacking (once per query
 * row) allocation-free after the first call; it also narrows to the
 * minimal bit-width covering the row's value range, so e.g. INT4-range
 * queries cost 4 plane ANDs instead of 8.
 *
 * Storage follows BitPlaneSet's layout (one row: plane t at word
 * t * wordsPerPlane()). Only the kPopcount kernel reads it; the SIMD
 * tile kernels read the query's own bytes.
 */
class QueryPlanes
{
  public:
    QueryPlanes() = default;

    /** Pack @p q; bits = 0 selects the minimal covering width. */
    explicit QueryPlanes(std::span<const int8_t> q, int bits = 0);

    /** Re-pack into the existing storage (no allocation on reuse). */
    void assign(std::span<const int8_t> q, int bits = 0);

    int numCols() const { return cols_; }
    int numPlanes() const { return bits_; }
    int wordsPerPlane() const { return words_; }

    /** Signed weight of plane @p t: -2^{b-1} for t=0, else 2^{b-1-t}. */
    int planeWeight(int t) const;

    /** Bit of element @p col on plane @p t (tests/debugging). */
    bool bit(int t, int col) const;

    /**
     * Word-parallel sum of the query values selected by a key bit
     * mask: sum_{d : mask_d = 1} q_d. This is the primitive every
     * bit-serial plane delta reduces to; the mask is one packed key
     * plane. Weights are powers of two, so the per-plane popcounts
     * combine with shifts — no multiplies on the hot path.
     *
     * @p mask must hold exactly wordsPerPlane() words; this baseline
     * kernel reads nothing past the span.
     */
    int64_t
    maskedSum(std::span<const uint64_t> mask) const
    {
        PADE_DCHECK_EQ(static_cast<int>(mask.size()), words_);
        // Dispatch on the word count so the compiler keeps the mask
        // words in registers across all query planes (head dims up to
        // 256 take the unrolled paths).
        switch (words_) {
        case 1: return maskedSumW<1>(mask.data());
        case 2: return maskedSumW<2>(mask.data());
        case 3: return maskedSumW<3>(mask.data());
        case 4: return maskedSumW<4>(mask.data());
        default: break;
        }
        const uint64_t *qw = storage_.data();
        int64_t sum = 0;
        for (int t = 0; t < bits_; t++, qw += words_) {
            int64_t ones = 0;
            for (int w = 0; w < words_; w++)
                ones += std::popcount(qw[w] & mask[w]);
            sum += static_cast<int64_t>(planeWeight(t)) * ones;
        }
        return sum;
    }

  private:
    template <int W>
    int64_t
    maskedSumW(const uint64_t *mask) const
    {
        uint64_t k[W];
        for (int w = 0; w < W; w++)
            k[w] = mask[w];
        const uint64_t *qw = storage_.data();
        const auto ones = [&qw, &k]() {
            int64_t o = 0;
            for (int w = 0; w < W; w++)
                o += std::popcount(qw[w] & k[w]);
            return o;
        };
        // Sign plane (t = 0, weight -2^{b-1}) first, then the
        // non-negative planes with descending power-of-two weights.
        const int64_t neg = ones();
        qw += W;
        int64_t pos = 0;
        for (int t = 1; t < bits_; t++, qw += W)
            pos += ones() << (bits_ - 1 - t);
        return pos - (neg << (bits_ - 1));
    }

    int cols_ = 0;
    int bits_ = 0;
    int words_ = 0; //!< words per plane: ceil(cols / 64)
    std::vector<uint64_t> storage_;
};

/**
 * Partial dot product of a full-precision query row with the first
 * (r+1) bit planes of key @p row : S^r = sum_{p<=r} w_p * sum_{bit=1} q.
 * This is the score the scoreboard accumulates plane by plane.
 * Word-parallel: packs the query once and reduces to popcounts.
 */
int64_t partialDot(std::span<const int8_t> q, const BitPlaneSet &keys,
                   int row, int r);

/** partialDot over an already-packed query (the hot-path form). */
int64_t partialDot(const QueryPlanes &q, const BitPlaneSet &keys,
                   int row, int r);

/**
 * Scalar reference for partialDot: walks every set key bit with ctz.
 * Kept as the bit-exactness oracle for the popcount and SIMD kernels.
 */
int64_t partialDotScalar(std::span<const int8_t> q,
                         const BitPlaneSet &keys, int row, int r);

/** Exact dot product via all planes (equals integer QK^T). */
int64_t exactDot(std::span<const int8_t> q, const BitPlaneSet &keys,
                 int row);

/** exactDot over an already-packed query (the hot-path form). */
int64_t exactDot(const QueryPlanes &q, const BitPlaneSet &keys,
                 int row);

/** Scalar reference for exactDot (see partialDotScalar). */
int64_t exactDotScalar(std::span<const int8_t> q, const BitPlaneSet &keys,
                       int row);

} // namespace pade

#endif // PADE_QUANT_BITPLANE_H
