/**
 * @file
 * Bidirectional-sparsity (BS) bit-serial dot-product kernels — paper
 * §IV-B, Eqs. (5)(6).
 *
 * Per bit plane b of a key, the partial contribution is
 *   2^w_b * sum_{d : k_d^b = 1} q_d
 * and, because bits are binary,
 *   sum_{bit=1} q = Qsum - sum_{bit=0} q,
 * so the hardware may accumulate over whichever bit value is rarer
 * ("0-mode" vs "1-mode"), bounding the selected elements at 50%. PADE
 * applies the mode choice per 8-dim GSAT sub-group, which also bounds
 * the per-sub-group element count at 4 (the paper's 4x 5:1 multiplexer
 * argument, §V-D).
 *
 * These kernels return both the numeric plane delta and the operation
 * counts the cycle model consumes.
 */

#ifndef PADE_CORE_BIT_SERIAL_H
#define PADE_CORE_BIT_SERIAL_H

#include <cstdint>
#include <span>

#include "core/bui.h"
#include "quant/bitplane.h"

namespace pade {

/** Work accounting for one (key, plane) issue on one lane. */
struct PlaneWork
{
    /** Elements selected with per-sub-group BS (sum over groups). */
    int selected_bs = 0;
    /** Elements selected accumulating ones only (naive). */
    int selected_naive = 0;
    /** Cycles with BS through 4 muxes/sub-group (max over groups). */
    int cycles_bs = 1;
    /** Cycles without BS (ones mode, max over groups). */
    int cycles_naive = 1;
    /** Sub-groups that used 0-mode (needs a subtract correction). */
    int zero_mode_groups = 0;
};

/**
 * Count per-sub-group work for one bit plane of one key.
 *
 * @param keys bit planes
 * @param key key index
 * @param plane plane index (0 = MSB)
 * @param subgroup sub-group size (paper: 8)
 * @param muxes parallel mux lanes per sub-group (paper: 4)
 */
PlaneWork planeWork(const BitPlaneSet &keys, int key, int plane,
                    int subgroup = 8, int muxes = 4);

/**
 * Running sums of PlaneWork::selected_bs and selected_naive over
 * planes 0..r of one key. Entry r of a key's row is what a guarded
 * scan that stops after plane r books, so booking costs one read per
 * (key, query row) however many planes the key consumed. 16 bits
 * hold any bits * cols up to kMaxWorkPrefixElems.
 */
struct WorkPrefix
{
    uint16_t bs = 0;    //!< sum of selected_bs over planes 0..r
    uint16_t naive = 0; //!< sum of selected_naive over planes 0..r
};

/** Largest bits * cols a WorkPrefix row counts without wrapping. */
inline constexpr int kMaxWorkPrefixElems = 65535;

/**
 * Write the WorkPrefix row of key @p key — one entry per plane, from
 * planeWork() with the same GSAT geometry — to @p out[0 .. bits-1].
 * Requires numPlanes() * numCols() <= kMaxWorkPrefixElems.
 */
void workPrefixRow(const BitPlaneSet &keys, int key, int subgroup,
                   int muxes, WorkPrefix *out);

/**
 * Numeric contribution of plane @p plane of key @p key to Q.K:
 * weight(plane) * sum_{bit=1} q. Word-parallel form: the query is
 * bit-plane-packed too, so the per-plane sum reduces to weighted
 * popcount(qplane AND kplane) over the packed 64-bit words
 * (QkKernel::kPopcount). Bit-identical to planeDeltaScalar().
 */
int64_t planeDelta(const QueryPlanes &q, const BitPlaneSet &keys,
                   int key, int plane);

/**
 * Scalar reference implementation of planeDelta(): walks every set key
 * bit with ctz and accumulates q elements one by one (1-mode). Kept as
 * the exactness oracle and selectable via QkKernel::kScalar.
 */
int64_t planeDeltaScalar(std::span<const int8_t> q,
                         const BitPlaneSet &keys, int key, int plane);

/**
 * planeDeltaScalar() over one packed plane row @p words (the
 * ceil(q.size() / 64) words of one key plane) with plane weight
 * @p weight — the form the guarded scan's kScalar path calls.
 */
int64_t planeDeltaScalar(std::span<const int8_t> q,
                         const uint64_t *words, int weight);

/**
 * Same value computed the bidirectional way: per sub-group, accumulate
 * the rarer bit value and correct with the sub-group Qsum (Eq. 6).
 * Exists to prove numeric equivalence of the hardware trick; returns
 * bit-identical results to planeDelta(). The mode decision is made
 * word-parallel (popcount of the packed sub-group bits) and only the
 * rarer side's elements are ever touched. @p subgroup must be <= 64.
 */
int64_t planeDeltaBs(std::span<const int8_t> q, const BitPlaneSet &keys,
                     int key, int plane, int subgroup = 8);

} // namespace pade

#endif // PADE_CORE_BIT_SERIAL_H
