/**
 * @file
 * The guarded scan — PADE's unified QK datapath (bit-serial plane
 * streaming with BUI-GF early termination) as the one core that batch
 * attention (padeAttention) and incremental serving (DecodeEngine)
 * both run.
 *
 * The unit of work is one (key, query row) pair. scanKey() scores the
 * key's planes MSB first, adds the BUI bounds, applies the guard inline
 * and stops at the first pruning plane, then books the outcome: the
 * planes-consumed trace, the keep mask, the retained list and the
 * PruneStats counters. Callers own the loop order — padeAttention
 * runs query rows outer and keys inner, DecodeEngine keys outer and
 * the query heads of a GQA group inner — and resolve the kernel once
 * per call through withQkKernel(), which instantiates their loop once
 * per kernel, so no kernel branch and no per-plane out-of-line call
 * sits inside it:
 *
 *  - kScalar walks set key bits through planeDeltaScalar (the oracle);
 *  - kPopcount inlines QueryPlanes::maskedSum;
 *  - kSimd makes one call per pair into the CPU-selected per-key
 *    kernel (core/simd/qk_simd.h), which runs the same guard loop.
 *
 * A key is a pointer triple: its plane row (BitPlaneSet::rowPlanes),
 * the plane stride (ScanPlan::stride) and its PlaneWork row. A
 * contiguous BitPlaneSet with PadeWorkspace::plane_work and a KvCache
 * page both supply it.
 */

#ifndef PADE_CORE_GUARDED_SCAN_H
#define PADE_CORE_GUARDED_SCAN_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/bit_serial.h"
#include "core/bui.h"
#include "core/guard_filter.h"
#include "core/simd/qk_dispatch.h"
#include "core/simd/qk_simd.h"
#include "quant/bitplane.h"

namespace pade {

/** Aggregate pruning / work statistics of one head execution. */
struct PruneStats
{
    uint64_t planes_processed = 0; //!< bit planes actually consumed
    uint64_t planes_total = 0;     //!< P * S_valid * bits (dense)
    uint64_t keys_retained = 0;
    uint64_t keys_total = 0;       //!< P * S_valid
    uint64_t ops_bs = 0;           //!< selected elements with BS
    uint64_t ops_naive = 0;        //!< ones-only selected elements
    uint64_t max_updates = 0;      //!< online-softmax max updates
    uint64_t rescale_ops = 0;      //!< rescale multiply-adds
    uint64_t threshold_updates = 0;

    /** Accumulate another execution's counters (all fields add). */
    PruneStats &operator+=(const PruneStats &o);

    double
    avgPlanesPerKey() const
    {
        return keys_total ? static_cast<double>(planes_processed) /
            keys_total : 0.0;
    }
    double
    keepRate() const
    {
        return keys_total ? static_cast<double>(keys_retained) /
            keys_total : 0.0;
    }
    /** Fraction of dense bit-plane work eliminated. */
    double
    planeReduction() const
    {
        return planes_total ? 1.0 -
            static_cast<double>(planes_processed) / planes_total : 0.0;
    }
};

/** Per-call constants of a guarded scan, resolved outside the loop. */
struct ScanPlan
{
    /**
     * @param kernel resolved kernel (resolveQkKernel); kSimd fetches
     *        the CPU's per-key kernel here, once
     * @param key_bits key planes per key
     * @param plane_stride words between a key's consecutive planes
     * @param guard_enabled PadeConfig::guard_enabled
     */
    ScanPlan(QkKernel kernel, int key_bits, int plane_stride,
             bool guard_enabled);

    int bits;
    int stride;
    bool prune;
    simd::KeyKernel key_kernel; //!< kSimd's per-key kernel, else null
};

/**
 * One query row's scan state: the query in every form the kernels
 * read, its BUI table and guard, where the trace goes, and what the
 * scan retained. Grow-only; reusing one instance per worker keeps the
 * per-row path allocation-free.
 */
struct ScanQuery
{
    /**
     * Stage query row @p row for a scan with @p kernel over @p bits -bit
     * keys: packs the planes the kernel needs, builds the BUI table,
     * installs @p g, points the planes-consumed and keep outputs
     * at @p planes_row / @p keep_row (indexed by key id) and clears
     * the retained lists.
     */
    void start(std::span<const int8_t> row, QkKernel kernel, int bits,
               const GuardFilter &g, uint8_t *planes_row,
               uint8_t *keep_row);

    std::span<const int8_t> q;   //!< the row (kScalar)
    QueryPlanes qplanes;         //!< packed planes (kPopcount, kSimd)
    simd::QPlaneView view{};     //!< raw view (kSimd)
    BuiTable bui;
    GuardFilter guard{1.0, 0.0, 1.0};
    uint8_t *planes_out = nullptr; //!< planes consumed per key id
    uint8_t *keep_out = nullptr;   //!< 1 per retained key id
    std::vector<int> retained;     //!< retained key ids, scan order
    std::vector<int64_t> scores;   //!< their exact integer scores
};

/** Compile-time kernel tag withQkKernel() hands its body. */
template <QkKernel K>
using QkKernelTag = std::integral_constant<QkKernel, K>;

/**
 * Run @p body with the QkKernelTag of @p kernel: one branch per call,
 * one instantiation of the body's loop per kernel.
 */
template <class Body>
inline void
withQkKernel(QkKernel kernel, Body &&body)
{
    switch (kernel) {
    case QkKernel::kScalar:
        body(QkKernelTag<QkKernel::kScalar>{});
        return;
    case QkKernel::kPopcount:
        body(QkKernelTag<QkKernel::kPopcount>{});
        return;
    case QkKernel::kSimd:
        body(QkKernelTag<QkKernel::kSimd>{});
        return;
    }
}

/**
 * The per-key call: score the key whose planes start at @p kplanes
 * against query row @p sq through kernel K, with sq's guard applied
 * after every plane (and pruning when plan.prune).
 */
template <QkKernel K>
inline KeyScore
scoreKey(QkKernelTag<K>, const ScanPlan &plan, ScanQuery &sq,
         const uint64_t *kplanes)
{
    if constexpr (K == QkKernel::kSimd) {
        const simd::KeyGuard guard{&sq.guard, sq.bui.lo.data(),
                                   sq.bui.hi.data(), plan.prune};
        return plan.key_kernel(sq.view, kplanes, plan.stride, plan.bits,
                               plan.bits, &guard);
    } else {
        return guardedKeyScore(
            sq.guard, sq.bui.lo.data(), sq.bui.hi.data(), plan.bits,
            plan.prune, [&](int r) -> int64_t {
                const int weight = r == 0 ? -(1 << (plan.bits - 1))
                                          : 1 << (plan.bits - 1 - r);
                const uint64_t *plane = kplanes +
                    static_cast<std::ptrdiff_t>(r) * plan.stride;
                if constexpr (K == QkKernel::kScalar)
                    return planeDeltaScalar(sq.q, plane, weight);
                else
                    return static_cast<int64_t>(weight) *
                        sq.qplanes.maskedSum(
                            {plane, static_cast<std::size_t>(
                                        sq.qplanes.wordsPerPlane())});
            });
    }
}

/**
 * Score key @p j (planes at @p kplanes, work counts at @p work) for
 * the query row @p sq and book the outcome into @p sq and @p st. The
 * threshold-update and softmax counters are the caller's, per row.
 */
template <QkKernel K>
inline void
scanKey(QkKernelTag<K> k, const ScanPlan &plan, ScanQuery &sq,
        const uint64_t *kplanes, const PlaneWork *work, int j,
        PruneStats &st)
{
    const KeyScore ks = scoreKey(k, plan, sq, kplanes);
    st.keys_total++;
    st.planes_total += static_cast<uint64_t>(plan.bits);
    st.planes_processed += static_cast<uint64_t>(ks.planes);
    for (int r = 0; r < ks.planes; r++) {
        st.ops_bs += static_cast<uint64_t>(work[r].selected_bs);
        st.ops_naive += static_cast<uint64_t>(work[r].selected_naive);
    }
    sq.planes_out[j] = static_cast<uint8_t>(ks.planes);
    if (!ks.pruned) {
        sq.keep_out[j] = 1;
        st.keys_retained++;
        sq.retained.push_back(j);
        sq.scores.push_back(ks.score);
    }
}

} // namespace pade

#endif // PADE_CORE_GUARDED_SCAN_H
