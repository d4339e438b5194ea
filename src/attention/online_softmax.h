/**
 * @file
 * FlashAttention-style online softmax accumulator.
 *
 * ISTA (paper §IV-C) builds on exactly this recurrence: tiles of scores
 * arrive one block at a time; a running max m, denominator l and output
 * accumulator O are rescaled whenever the max grows. The class also
 * counts "max update" events so the head-tail interleaving experiment
 * (paper Fig. 10) can quantify the redundant rescale work it removes.
 */

#ifndef PADE_ATTENTION_ONLINE_SOFTMAX_H
#define PADE_ATTENTION_ONLINE_SOFTMAX_H

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.h"

namespace pade {

/**
 * Online softmax state for a single query row.
 */
class OnlineSoftmaxRow
{
  public:
    /** @param dim output (value) dimensionality. */
    explicit OnlineSoftmaxRow(int dim);

    /**
     * Re-arm for a new query row of dimensionality @p dim. Reuses the
     * accumulator storage, so resetting is allocation-free once the
     * capacity has been reached (the workspace-reuse contract of
     * padeAttention).
     */
    void reset(int dim);

    /**
     * Fold in one tile of scores and their value rows.
     *
     * @param scores logits of this tile (already scaled)
     * @param values value rows, values[t] belongs to scores[t]
     */
    void update(std::span<const float> scores,
                const std::vector<std::span<const float>> &values);

    /**
     * Allocation-free tile update: scores[t] pairs with row ids[t] of
     * @p values. This is the form the fused ISTA hot path uses — the
     * caller passes its retained-id list directly instead of
     * materializing a vector of row spans per tile.
     */
    void update(std::span<const float> scores, const MatrixF &values,
                std::span<const int> ids);

    /**
     * Allocation-free tile update over contiguous value rows:
     * scores[t] pairs with row first_row + t.
     */
    void update(std::span<const float> scores, const MatrixF &values,
                int first_row);

    /**
     * The value stage of padeAttention and DecodeEngine: scores[t]
     * pairs with int8 row values[t], whose float row is
     * scale * int8 as dequantize() computes it. The update is
     * bit-identical to the float-row overloads over dequantize()d
     * rows; the row loop is simd::valueRowKernel().
     */
    void update(std::span<const float> scores,
                std::span<const std::span<const int8_t>> values,
                float scale);

    /** Finalize: O / l. Valid once at least one score arrived. */
    std::vector<float> finalize() const;

    /** Allocation-free finalize into @p out (size must equal dim). */
    void finalizeInto(std::span<float> out) const;

    /** Number of tiles whose arrival grew the running max. */
    uint64_t maxUpdates() const { return max_updates_; }
    /** Total rescale multiply-adds spent on max updates (2*dim each). */
    uint64_t rescaleOps() const { return rescale_ops_; }
    /** Current running max (for tests). */
    float runningMax() const { return m_; }
    /** Current denominator (for tests). */
    float denominator() const { return l_; }

  private:
    /** Grow the running max to cover @p tile_max, rescaling O and l. */
    void absorbMax(float tile_max);
    /** Fold one exp-weighted value row into the accumulator. */
    void accumulate(float score, std::span<const float> vrow);

    int dim_;
    float m_;
    float l_ = 0.0f;
    std::vector<float> acc_;
    uint64_t max_updates_ = 0;
    uint64_t rescale_ops_ = 0;
};

/**
 * Tiled dense attention via online softmax (FlashAttention recurrence),
 * used as a cross-check oracle for ISTA.
 *
 * @param tile_size keys per tile (Bc)
 */
MatrixF flashAttention(const MatrixF &q, const MatrixF &k,
                       const MatrixF &v, float scale, int tile_size);

/**
 * Generate the head-tail interleaved tile visit order of ISTA:
 * 0, T-1, 1, T-2, ... (initial region first, then the recent region,
 * then post-initial, repeating). For T <= 2 this equals natural order.
 */
std::vector<int> headTailOrder(int num_tiles);

} // namespace pade

#endif // PADE_ATTENTION_ONLINE_SOFTMAX_H
