/**
 * @file
 * Functional PADE sparse attention — the paper's full algorithm stack
 * (BSF + BUI-GF + BS accounting + ISTA) in exact integer arithmetic.
 *
 * This is the library's primary public API. It consumes an INT8
 * quantized head (queries at full width, keys bit-serial) and produces
 * the attention output together with a pruning trace: per (query, key)
 * the number of bit planes consumed before termination, the final keep
 * mask, retained-key lists, and operation counts. The cycle-level
 * simulator in src/arch replays this trace through the modelled
 * hardware; the trace also drives every computation/memory-reduction
 * figure.
 */

#ifndef PADE_CORE_PADE_ATTENTION_H
#define PADE_CORE_PADE_ATTENTION_H

#include <cstdint>
#include <span>
#include <vector>

#include "attention/online_softmax.h"
#include "core/bit_serial.h"
#include "core/guarded_scan.h"
#include "core/simd/qk_dispatch.h"
#include "tensor/matrix.h"
#include "workload/generator.h"

namespace pade {

class ThreadPool;

/** Algorithm configuration (paper defaults). */
struct PadeConfig
{
    double alpha = 0.55;   //!< guard-band fraction (Eq. 4)
    double radius = 5.0;   //!< guard band in logit units
    int tile_bc = 16;      //!< ISTA tile size Bc
    bool guard_enabled = true; //!< false = dense bit-serial (ablation)
    bool head_tail = true;     //!< head-tail interleaved tile order
    bool causal = false;       //!< causal mask (queries are the last
                               //!< query_len positions)
    int subgroup = 8;          //!< GSAT sub-group size
    int muxes = 4;             //!< GSAT muxes per sub-group
    /**
     * QK scoring kernel (see core/simd/qk_dispatch.h for the
     * three-way dispatch story). Defaults to the fastest available
     * backend — kSimd (AVX-512BW or AVX2, as the CPU allows) on AVX2
     * hardware, kPopcount otherwise; all kernels are bit-identical.
     * padeAttention resolves the request through resolveQkKernel(),
     * so the PADE_QK_KERNEL environment variable overrides this
     * field and an unavailable kSimd degrades to kPopcount.
     */
    QkKernel qk_kernel = defaultQkKernel();
};

/**
 * Reusable scratch state of padeAttention. The per-query hot path is
 * allocation-free: every buffer it needs lives here and is resized
 * (never shrunk) once per call, so a caller that runs many heads —
 * the batch driver, calibration searches, the figure sweeps — passes
 * one workspace per worker thread and stops paying per-head/per-query
 * allocation churn. Default-constructed state is valid; padeAttention
 * creates a transient one when the caller passes none.
 */
struct PadeWorkspace
{
    /**
     * Optional pool for the up-front (key, plane) WorkPrefix table;
     * the table is query-independent, embarrassingly parallel, and
     * computed eagerly once per head. Null computes it serially.
     */
    ThreadPool *pool = nullptr;

    ScanQuery query;                    //!< current query row's scan
    ScanGroup group;                    //!< query as a group of one
    std::vector<WorkPrefix> plane_work; //!< (key, plane) running sums
    std::vector<float> tile_scores;     //!< ISTA tile logits
    /** The tile's int8 V rows, paired with tile_scores. */
    std::vector<std::span<const int8_t>> tile_values;
    OnlineSoftmaxRow softmax{0};        //!< value-stage accumulator

    /**
     * Cache key of the WorkPrefix table currently in plane_work. The
     * table depends only on (key planes, GSAT geometry), so a repeated
     * padeAttention call over the same BitPlaneSet — the GQA pattern,
     * where every query head of a group scores one shared KV-head
     * plane set — reuses the table instead of rebuilding it.
     * BitPlaneSet::revision() is a process-unique content token, so a
     * (pointer, revision, subgroup, muxes) match can only mean
     * identical plane content.
     */
    const BitPlaneSet *plane_work_src = nullptr;
    uint64_t plane_work_revision = 0;
    int plane_work_subgroup = 0;
    int plane_work_muxes = 0;
    /** WorkPrefix table (re)builds performed (reuse observability). */
    uint64_t plane_work_builds = 0;
};

/** Full result of one head execution. */
struct PadeResult
{
    MatrixF out;              //!< (P x H) attention output
    Matrix<uint8_t> keep;     //!< (P x S) final keep mask
    Matrix<uint8_t> planes;   //!< (P x S) planes consumed (0 = masked)
    /** Retained key ids per query row, in scan (ISTA) order. */
    std::vector<std::vector<int>> retained;
    PruneStats stats;
};

/**
 * Key scan order of ISTA: position tiles of @p tile keys, visited in
 * head-tail interleaved order when @p head_tail is set (0, T-1, 1,
 * T-2, ...), natural order otherwise; keys inside a tile keep natural
 * order.
 */
std::vector<int> istaScanOrder(int seq_len, int tile, bool head_tail);

/**
 * istaScanOrder() restricted to a StreamingLLM live set — keys j with
 * j < @p sink_tokens or j >= @p window_start — and written into a
 * reusable buffer, the form the incremental decode engine calls once
 * per step (the vector stops allocating after the first step at a
 * given context length). Emits exactly the subsequence of the full
 * order those keys form, so a windowed scan is bit-identical to
 * walking the full order with a per-key liveness skip, while
 * generation costs O(live keys + live tiles) instead of O(seq_len):
 * dead middle tiles are never visited (the head/tail walk stops once
 * both cursors sit in the dead range). window_start <= 0 (nothing
 * evictable yet) reproduces the full order verbatim.
 */
void istaScanOrderInto(int seq_len, int tile, bool head_tail,
                       int sink_tokens, int window_start,
                       std::vector<int> &out);

/**
 * Run PADE sparse attention on one quantized head.
 *
 * Exactness contract: keys that survive all bit planes have exact
 * integer scores (the uncertainty interval collapses at the LSB), so
 * the output equals masked INT8 attention under the final keep mask.
 *
 * Requires bits * head_dim <= kMaxWorkPrefixElems (65535, so head_dim
 * <= 8191 at 8 bits): the per-key WorkPrefix sums are 16-bit. This and
 * the PadeConfig geometry are PADE_CHECKed once per call.
 *
 * @param ws optional reusable workspace (see PadeWorkspace); pass one
 *        per worker thread to make repeated calls allocation-free on
 *        the per-query path.
 */
PadeResult padeAttention(const QuantizedHead &head,
                         const PadeConfig &cfg = {},
                         PadeWorkspace *ws = nullptr);

} // namespace pade

#endif // PADE_CORE_PADE_ATTENTION_H
