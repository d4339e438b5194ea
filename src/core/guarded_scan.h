/**
 * @file
 * The guarded scan — PADE's unified QK datapath (bit-serial plane
 * streaming with BUI-GF early termination) as the one core that batch
 * attention (padeAttention) and incremental serving (DecodeEngine)
 * both run.
 *
 * The unit of work is one ISTA tile: up to tile_bc consecutive keys
 * of one plane store, scored against every query row of a group (a
 * GQA group; one row for padeAttention). scanTile() scores each (key,
 * row) pair's planes MSB first, adds the BUI bounds, applies the
 * row's guard, stops at the first pruning plane, and books the
 * outcome: the planes-consumed trace, the keep mask, the retained
 * list and the PruneStats counters. Callers own the tile walk
 * (tileRun() cuts their scan order into tiles) and resolve the kernel
 * once per call through withQkKernel(), which instantiates their loop
 * once per kernel, so no kernel branch sits inside it:
 *
 *  - kScalar walks set key bits through planeDeltaScalar (the oracle)
 *    and kPopcount inlines QueryPlanes::maskedSum, both per plane
 *    through guardedKeyScore, one (key, row) pair at a time;
 *  - kSimd makes one call per tile into the CPU-selected tile kernel
 *    (core/simd/qk_simd.h).
 *
 * Booking is O(1) per pair: each key carries a WorkPrefix row (the
 * running sums of its planes' work counts), and a pair reads the
 * entry at its stop plane. A tile is a pointer pair: its first key's
 * plane row in BitPlaneSet's layout (keys bits * ceil(head_dim / 64)
 * words apart, a stride every kernel derives from the query row's
 * length) and its first WorkPrefix row. A contiguous BitPlaneSet with
 * PadeWorkspace::plane_work and a KvCache page both supply it.
 */

#ifndef PADE_CORE_GUARDED_SCAN_H
#define PADE_CORE_GUARDED_SCAN_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.h"
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
     *        the CPU's tile kernel here, once
     * @param key_bits key planes per key
     * @param guard_enabled PadeConfig::guard_enabled
     */
    ScanPlan(QkKernel kernel, int key_bits, bool guard_enabled);

    int bits;
    bool prune;
    simd::TileKernel tile_kernel; //!< kSimd's tile kernel, else null
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
     * keys: stages the form the kernel reads (kPopcount: packed
     * planes; kSimd: a zero-padded copy of the bytes), builds the BUI
     * table, installs @p g, points the planes-consumed and keep
     * outputs at @p planes_row / @p keep_row (indexed by key id) and
     * clears the retained lists.
     */
    void start(std::span<const int8_t> row, QkKernel kernel, int bits,
               const GuardFilter &g, uint8_t *planes_row,
               uint8_t *keep_row);

    std::span<const int8_t> q;   //!< the row (kScalar)
    QueryPlanes qplanes;         //!< packed planes (kPopcount)
    std::vector<int8_t> bytes;   //!< the row, zero-padded (kSimd)
    BuiTable bui;
    GuardFilter guard{1.0, 0.0, 1.0};
    uint8_t *planes_out = nullptr; //!< planes consumed per key id
    uint8_t *keep_out = nullptr;   //!< 1 per retained key id
    std::vector<int> retained;     //!< retained key ids, scan order
    std::vector<int64_t> scores;   //!< their exact integer scores

    /** Words per key plane at this row's length: ceil(cols / 64). */
    std::ptrdiff_t
    words() const
    {
        return static_cast<std::ptrdiff_t>((q.size() + 63) / 64);
    }

    /**
     * The tile kernel's view of this row, valid until the next
     * start() (kSimd only).
     */
    simd::TileRow
    tileRow()
    {
        return {{bytes.data(), static_cast<int>(q.size())}, bui.lo.data(),
                bui.hi.data(), &guard};
    }
};

/**
 * The query rows one scan serves, plus what the tile kernel needs
 * beside them: their TileRow views and the per-tile output scratch.
 * Grow-only, like ScanQuery.
 */
struct ScanGroup
{
    /**
     * Serve @p rows (already start()ed; they must stay put until the
     * scan ends) in tiles of at most @p max_keys keys.
     */
    void bind(std::span<ScanQuery> rows, int max_keys);

    std::span<ScanQuery> rows;
    std::vector<simd::TileRow> tile_rows; //!< kSimd views of rows
    std::vector<KeyScore> out;            //!< one tile's pair results
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
 * The per-plane kernels' call for one (key, row) pair: score the key
 * whose planes start at @p kplanes against row @p sq through kScalar
 * or kPopcount, with sq's guard applied after every plane (and
 * pruning when plan.prune).
 */
template <QkKernel K>
inline KeyScore
scoreKey(QkKernelTag<K>, const ScanPlan &plan, ScanQuery &sq,
         const uint64_t *kplanes)
{
    static_assert(K != QkKernel::kSimd, "kSimd scores whole tiles");
    return guardedKeyScore(
        sq.guard, sq.bui.lo.data(), sq.bui.hi.data(), plan.bits,
        plan.prune, [&](int r) -> int64_t {
            const int weight = r == 0 ? -(1 << (plan.bits - 1))
                                      : 1 << (plan.bits - 1 - r);
            const std::ptrdiff_t words = sq.words();
            const uint64_t *plane = kplanes + r * words;
            if constexpr (K == QkKernel::kScalar)
                return planeDeltaScalar(sq.q, plane, weight);
            else
                return static_cast<int64_t>(weight) *
                    sq.qplanes.maskedSum(
                        {plane, static_cast<std::size_t>(words)});
        });
}

/**
 * Length of the tile that starts at @p order[@p i]: the run of
 * consecutive key ids that follows in @p order, inside key
 * order[i]'s ISTA tile of @p tile_bc keys and below @p end.
 */
inline int
tileRun(std::span<const int> order, std::size_t i, int tile_bc, int end)
{
    const int j = order[i];
    const int stop = std::min(end, (j / tile_bc + 1) * tile_bc);
    int n = 1;
    while (j + n < stop && i + static_cast<std::size_t>(n) < order.size() &&
           order[i + static_cast<std::size_t>(n)] == j + n)
        n++;
    return n;
}

/**
 * Score the tile of @p n consecutive keys whose first key has id
 * @p j0, planes at @p kplanes and WorkPrefix row at @p work, for
 * every row of @p group, and book each (key, row) outcome into the
 * row and @p st. Each row sees the keys in order. The
 * threshold-update and softmax counters are the caller's, per row.
 */
template <QkKernel K>
inline void
scanTile(QkKernelTag<K> k, const ScanPlan &plan, ScanGroup &group,
         const uint64_t *kplanes, const WorkPrefix *work, int j0, int n,
         PruneStats &st)
{
    const std::size_t nrows = group.rows.size();
    const int bits = plan.bits;
    PADE_DCHECK(static_cast<std::size_t>(n) * nrows <= group.out.size());
    if constexpr (K == QkKernel::kSimd)
        plan.tile_kernel({kplanes, bits, bits, n, plan.prune},
                         group.tile_rows, group.out.data());
    // Rows outer, and everything the key loop reads or sums in locals:
    // the byte stores below may alias anything, so a pointer or
    // counter read through sq, group or st would be reloaded after
    // every one.
    const KeyScore *const results = group.out.data();
    uint64_t planes = 0;
    uint64_t ops_bs = 0;
    uint64_t ops_naive = 0;
    uint64_t kept = 0;
    for (std::size_t g = 0; g < nrows; g++) {
        ScanQuery &sq = group.rows[g];
        uint8_t *const planes_out = sq.planes_out + j0;
        uint8_t *const keep_out = sq.keep_out + j0;
        const std::ptrdiff_t key_words = bits * sq.words();
        for (int i = 0; i < n; i++) {
            KeyScore ks;
            if constexpr (K == QkKernel::kSimd)
                ks = results[static_cast<std::size_t>(i) * nrows + g];
            else
                ks = scoreKey(k, plan, sq, kplanes + i * key_words);
            const WorkPrefix done = work[i * bits + ks.planes - 1];
            planes += static_cast<uint64_t>(ks.planes);
            ops_bs += done.bs;
            ops_naive += done.naive;
            planes_out[i] = static_cast<uint8_t>(ks.planes);
            if (!ks.pruned) {
                keep_out[i] = 1;
                kept++;
                sq.retained.push_back(j0 + i);
                sq.scores.push_back(ks.score);
            }
        }
    }
    const uint64_t pairs = static_cast<uint64_t>(n) * nrows;
    st.keys_total += pairs;
    st.planes_total += pairs * static_cast<uint64_t>(bits);
    st.planes_processed += planes;
    st.ops_bs += ops_bs;
    st.ops_naive += ops_naive;
    st.keys_retained += kept;
}

} // namespace pade

#endif // PADE_CORE_GUARDED_SCAN_H
