/**
 * @file
 * Incremental PADE attention over a paged KV cache — single-query,
 * grouped-query (GQA), and scored chunked-prefill execution.
 *
 * One DecodeEngine holds the state of one KV-head stream (algorithm
 * config, retention policy, accumulated PruneStats) and runs the exact
 * `padeAttention` algorithm — BSF plane streaming, BUI-GF guarded
 * termination, ISTA stage-fused softmax·V — against the tokens of a
 * `KvCache`. What one step needs and the next rewrites (scan order,
 * staged query rows, per-query-head traces, online-softmax
 * accumulator, tile buffers) lives apart in a DecodeScratch: the
 * engine keeps one for its own steps, and prefillGroup()'s const form
 * borrows the caller's, so several positions of one stream can be
 * scored at once (ModelEngine's block units, serving/model_engine.h).
 *
 * Two entry points share one key loop, which runs the guarded-scan
 * core (core/guarded_scan.h) that batch padeAttention runs too:
 *
 *  - stepGroup(): a block of heads/kv_heads grouped query rows (one
 *    row for plain multi-head decode) attends over every token of the
 *    ONE shared cache of their KV head. The scan runs one ISTA tile
 *    (the consecutive keys of one tile on one live page) at a time
 *    for the whole group, so the page lookup, packed plane rows and
 *    cached WorkPrefix rows are fetched once per tile and shared by
 *    every query head — the per-token plane table is a KV-head
 *    property, never re-derived per query head;
 *  - prefillGroup(): the grouped rows are *prompt* positions. The key
 *    scan runs over the ISTA order of the FULL prompt length with a
 *    causal skip at the query position, so chunk-by-chunk prefill
 *    visits, retains, and tiles keys in exactly the order a
 *    whole-prompt causal `padeAttention` call would.
 *
 * Exactness contracts (enforced by tests/test_serving.cc and
 * tests/test_layer_engine.cc for kScalar / kPopcount / kSimd):
 *
 *  - stepGroup() of one row over a cache holding rows 0..S-1 produces
 *    the same output row, keep mask, planes-consumed trace,
 *    retained-id list, and PruneStats deltas, bit for bit, as a
 *    from-scratch pack + batch `padeAttention` call with that single
 *    query;
 *  - a group of g rows is bit-identical, per query head, to a group
 *    of one for that head against its own private copy of the cache
 *    — the grouped loop shares lookups, never arithmetic state;
 *  - prefillGroup() across any chunking is bit-identical, per query
 *    head, to one whole-prompt `padeAttention` call with
 *    `cfg.causal = true`.
 *
 * The kernel seam is the same as batch attention:
 * `PadeConfig::qk_kernel` is resolved through `resolveQkKernel()`
 * every step, so kScalar / kPopcount / kSimd (and the PADE_QK_KERNEL
 * override) all apply unchanged.
 *
 * Complexity: a full-history step is O(context) (every cached token
 * is scanned). A retention-windowed step is O(sink + recency) —
 * independent of context length — because both the scan order and
 * the scratch-clearing are generated over the live window only (see
 * RetentionPolicy below); us/token stays flat as the stream grows.
 */

#ifndef PADE_SERVING_DECODE_ENGINE_H
#define PADE_SERVING_DECODE_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "attention/online_softmax.h"
#include "common/check.h"
#include "core/guarded_scan.h"
#include "core/pade_attention.h"
#include "serving/kv_cache.h"
#include "tensor/matrix.h"

namespace pade {

/**
 * StreamingLLM-style sink + recency retention window.
 *
 * When active (recency_tokens > 0), a decode scan only visits tokens
 * inside the retained window — the first `sink_tokens` positions (the
 * attention sinks StreamingLLM keeps alive) plus the trailing
 * `recency_tokens` positions — and `applyRetention()` reclaims KV
 * pages that fall wholly outside it. Retained-window decode over an
 * un-evicted cache is bit-identical to full-history decode whenever
 * the window covers the whole history (the no-eviction parity test).
 *
 * Reclamation is page-granular: a sink-free window drops whole pages
 * from the front of the stream (KvCache::dropPagesBefore), and a
 * sink-pinned one drops the whole pages of the dead middle between
 * the sinks and the recency window (KvCache::dropPagesIn), so the
 * pages holding the sinks stay resident. A page that still holds one
 * live token stays; the dead tokens on it are skipped by the scan,
 * never scored.
 *
 * Iteration is windowed too: when the policy is active, each step
 * generates only the live subsequence of the ISTA scan order
 * (istaScanOrderInto() over the policy's live range) and clears only
 * the scratch entries the scratch's previous windowed step wrote
 * (DecodeScratch), so per-token cost is
 * O(sink + recency) regardless of context length — the dead middle
 * costs nothing, not even a skip test or memset. The windowed order
 * is the exact subsequence the full order's per-key window skip
 * would visit, so outputs stay bit-identical to full-order decode,
 * and bit-identical to an UN-windowed engine whenever the window
 * covers the whole stream (the no-eviction parity test).
 */
struct RetentionPolicy
{
    int sink_tokens = 0;    //!< head-of-stream tokens always kept
    int recency_tokens = 0; //!< trailing window; 0 disables the policy

    bool enabled() const { return recency_tokens > 0; }

    /** True when token @p token of a @p size -token stream is kept. */
    bool
    keeps(int token, int size) const
    {
        return token < sink_tokens || token >= size - recency_tokens;
    }

    /** First token of the recency window (eviction horizon). */
    int
    horizon(int size) const
    {
        return std::max(0, size - recency_tokens);
    }

    /**
     * Tokens strictly below this bound are dead AND unpinned: pages
     * before it may be dropped. 0 (nothing evictable) whenever sink
     * tokens pin the head of the stream.
     */
    int
    evictableBefore(int size) const
    {
        return sink_tokens > 0 ? 0 : horizon(size);
    }
};

/** Per-step accounting returned by the decode/prefill entry points. */
struct DecodeStep
{
    int keys = 0;        //!< tokens scanned per query head this step
    int retained = 0;    //!< retentions summed over the group's heads
    uint64_t planes = 0; //!< bit planes consumed this step (group sum)
};

/**
 * The per-step buffers of a guarded scan, reusable by any stream:
 * each step rewrites or clears everything it reads, so a scratch may
 * pass from one DecodeEngine to another between steps. A full-history
 * step re-zeroes its heads' traces whole; a windowed step undoes what
 * the previous step wrote (or everything, after a full-history step),
 * and the cached scan order is keyed by every input of
 * istaScanOrderInto(). Grow-only: after the first step at a given
 * length and group size, a step allocates nothing.
 */
class DecodeScratch
{
  public:
    /** Query heads of the last step. */
    int group() const { return group_; }

    /** Retained token ids of head @p g last step, in scan order. */
    std::span<const int>
    retained(int g) const
    {
        PADE_DCHECK(g >= 0 && g < group_);
        return scans_[static_cast<std::size_t>(g)].retained;
    }
    /** Planes consumed per token by head @p g last step (0: never
     *  visited). */
    std::span<const uint8_t>
    planes(int g) const
    {
        return head(g).planes;
    }
    /** Keep mask of head @p g last step (1 = retained). */
    std::span<const uint8_t>
    keep(int g) const
    {
        return head(g).keep;
    }

  private:
    friend class DecodeEngine;

    /** Per-query-head traces, persistent across steps (grow-only). */
    struct HeadState
    {
        std::vector<uint8_t> planes;
        std::vector<uint8_t> keep;
        /** Positions the last windowed step may have written into
         *  planes/keep — what the next windowed step undoes instead of
         *  a full-length clear. */
        std::vector<int> touched;
        /** A full-history step wrote anywhere below planes.size(), so
         *  touched does not cover its writes. */
        bool all_dirty = false;
    };
    /** Every input of istaScanOrderInto() that order_ was built for
     *  (len -1: never built). */
    struct OrderKey
    {
        int len = -1;
        int sink = 0;
        int start = 0;
        int tile = 0;
        bool head_tail = false;
        bool operator==(const OrderKey &) const = default;
    };

    const HeadState &
    head(int g) const
    {
        PADE_DCHECK(g >= 0 && g < group_);
        return heads_[static_cast<std::size_t>(g)];
    }

    int group_ = 0; //!< heads of the last step
    std::vector<std::span<const int8_t>> qs_;
    std::vector<std::span<float>> outs_;
    std::vector<HeadState> heads_;
    std::vector<ScanQuery> scans_; //!< per query head, contiguous
    ScanGroup group_scan_;         //!< scans_ as one tile-scan group
    OnlineSoftmaxRow softmax_{0};
    OrderKey order_key_;
    std::vector<int> order_;
    std::vector<float> tile_scores_;
    std::vector<std::span<const int8_t>> tile_rows_;
};

/**
 * Incremental decoder for one KV-head stream and the query heads
 * grouped onto it.
 */
class DecodeEngine
{
  public:
    explicit DecodeEngine(PadeConfig cfg = {},
                          RetentionPolicy retention = {});

    const PadeConfig &config() const { return cfg_; }
    const RetentionPolicy &retention() const { return retention_; }

    /**
     * One guarded decode step: rows q_row0 .. q_row0+group-1 of @p q
     * (int8, head_dim values each) are the group's query heads, all
     * sharing this engine's KV head; each attends over every cached
     * token, writing output rows out_row0 .. out_row0+group-1 of
     * @p out. Per head, bit-identical to a group of one against a
     * private copy of the cache.
     *
     * @param logit_scale integer-score -> logit factor
     *        (sQ * sK / sqrt(H), QuantizedHead::logit_scale)
     */
    DecodeStep stepGroup(const KvCache &cache, const MatrixI8 &q,
                         int q_row0, int group, float logit_scale,
                         MatrixF &out, int out_row0);

    /**
     * Scored chunked prefill of one prompt position: the group's
     * query rows sit at absolute position @p qpos of a @p prompt_len
     * -token prompt whose tokens up to at least qpos are already in
     * the cache. Keys are visited in the ISTA order of the FULL
     * prompt with a causal skip past qpos, so any chunking reproduces
     * the whole-prompt causal padeAttention result bit for bit.
     */
    DecodeStep prefillGroup(const KvCache &cache, const MatrixI8 &q,
                            int q_row0, int group, int qpos,
                            int prompt_len, float logit_scale,
                            MatrixF &out, int out_row0);

    /**
     * prefillGroup() on the caller's @p scratch, adding its PruneStats
     * to @p stats instead of this stream's. It reads only the cache,
     * the config and @p q, so positions of one stream may be scored
     * concurrently, each on its own scratch; the caller folds the
     * stats back with addStats(). lastKeep() and friends do not see
     * these steps.
     */
    DecodeStep prefillGroup(const KvCache &cache, const MatrixI8 &q,
                            int q_row0, int group, int qpos,
                            int prompt_len, float logit_scale,
                            MatrixF &out, int out_row0,
                            DecodeScratch &scratch,
                            PruneStats &stats) const;

    /** Fold PruneStats of const prefillGroup() steps into this
     *  stream's. */
    void addStats(const PruneStats &stats) { stats_ += stats; }

    /**
     * Reclaim cache pages the retention policy has aged out (no-op
     * when the policy is disabled). Sink-free windows free from the
     * stream front; sink-pinned streams free the dead *middle* —
     * whole pages lying strictly between the pinned sink tokens and
     * the recency horizon — via KvCache::dropPagesIn, so retention
     * actually returns memory even when page 0 must stay resident.
     */
    void
    applyRetention(KvCache &cache) const
    {
        if (!retention_.enabled())
            return;
        const int size = cache.size();
        cache.dropPagesBefore(retention_.evictableBefore(size));
        // Dead middle exists only once the recency horizon has moved
        // past the pinned sinks (early in a stream it hasn't).
        if (retention_.sink_tokens > 0 &&
            retention_.horizon(size) > retention_.sink_tokens)
            cache.dropPagesIn(retention_.sink_tokens,
                              retention_.horizon(size));
    }

    /** Pruning statistics accumulated across all steps (group sums). */
    const PruneStats &stats() const { return stats_; }

    /** Query heads of this engine's last stepGroup/prefillGroup. */
    int lastGroup() const { return scratch_.group(); }

    /** Retained token ids of head @p g last step, in scan order. */
    std::span<const int>
    lastRetained(int g = 0) const
    {
        return scratch_.retained(g);
    }
    /** Planes consumed per token by head @p g last step: value r
     *  means planes 0..r-1 were consumed before retention/pruning;
     *  0 means the token was never visited (causally masked, outside
     *  the retention window, or evicted) — matching padeAttention's
     *  PadeResult::planes row. */
    std::span<const uint8_t>
    lastPlanes(int g = 0) const
    {
        return scratch_.planes(g);
    }
    /** Keep mask of head @p g last step (1 = retained). */
    std::span<const uint8_t>
    lastKeep(int g = 0) const
    {
        return scratch_.keep(g);
    }

  private:
    /** Point @p s at the group's query and output rows. */
    static void stageRows(DecodeScratch &s, const MatrixI8 &q,
                          int q_row0, int group, MatrixF &out,
                          int out_row0);

    /**
     * Shared inner loop: the queries staged in @p s attend over cached
     * tokens j <= qpos, visited in istaScanOrder(order_len) order,
     * writing the rows staged in @p s; PruneStats go to @p stats.
     */
    DecodeStep runGroup(const KvCache &cache, int qpos, int order_len,
                        float logit_scale, DecodeScratch &s,
                        PruneStats &stats) const;

    PadeConfig cfg_;
    RetentionPolicy retention_;
    PruneStats stats_;
    /** The scratch of this engine's own steps (the last*() views). */
    DecodeScratch scratch_;
};

} // namespace pade

#endif // PADE_SERVING_DECODE_ENGINE_H
