/**
 * @file
 * Model-granularity attention execution: one engine per transformer
 * layer, owning one KV cache per KV head and fanning heads/kv_heads
 * grouped query heads over each shared cache (GQA).
 *
 * PR 4's serving objects were one-attention-head streams; real
 * serving runs whole models, and the memory budget of modern LLMs is
 * dominated by grouped-query attention — `ModelConfig::kv_heads <
 * heads` means several query heads share one K/V stream. LayerEngine
 * makes that sharing structural:
 *
 *  - exactly `kv_heads` KvCaches exist, so KV memory scales with
 *    kv_heads, not heads (an 8:1 group stores 1/8th the pages);
 *  - each cache's per-token WorkPrefix rows (the running work sums
 *    the scan books at a key's stop plane) are computed once at
 *    append and read by every query head of the group, one ISTA tile
 *    at a time (DecodeEngine::stepGroup) — the work table is a
 *    KV-head property, never re-derived per query head;
 *  - prefill *scores*: prefillChunk() runs guarded causal attention
 *    tile-by-tile as prompt chunks are appended, bit-identical to a
 *    whole-prompt `padeAttention(causal)` call per query head.
 *
 * KV heads are independent, so decode/prefill fan them across a
 * ThreadPool; aggregation uses parallelReduceOrdered, which folds
 * per-KV-head results in ascending KV-head order on the caller —
 * outputs and statistics are bit-identical for every thread count.
 *
 * Thread safety: there is deliberately no mutex in this class. All
 * mutable state is partitioned per KV head (one KvCache + DecodeEngine
 * per stream), the pool fan-out gives each worker exactly one
 * partition, and the barrier inside parallelFor orders every fan-out
 * against the caller's next mutation. Concurrent use of ONE LayerEngine
 * from several caller threads is supported only for the const
 * prefillPosition(), each caller on its own DecodeScratch, between
 * mutations (ModelEngine's block units); every other call is
 * serialized by the owner. The TSan CI leg runs both under contention
 * (tests/test_concurrency_stress.cc, tests/test_model_engine_fuzz.cc).
 *
 * Head layout convention (shared with LayerWorkload): global query
 * head h belongs to KV head h / groupSize(), and matrices passed to
 * decode()/prefillChunk() hold head h's row at index h — so a KV
 * head's group occupies the contiguous row block
 * [kv * groupSize(), (kv+1) * groupSize()).
 */

#ifndef PADE_SERVING_LAYER_ENGINE_H
#define PADE_SERVING_LAYER_ENGINE_H

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/pade_attention.h"
#include "serving/decode_engine.h"
#include "serving/kv_cache.h"
#include "tensor/matrix.h"

namespace pade {

class ThreadPool;

/** Geometry and algorithm configuration of one layer engine. */
struct LayerEngineConfig
{
    int heads = 1;    //!< query heads
    int kv_heads = 1; //!< K/V streams; must divide heads
    int head_dim = 64;
    int bits = 8;          //!< key bit-plane width
    int page_tokens = 256; //!< KvCache page capacity
    PadeConfig pade;       //!< decode/prefill algorithm config
    RetentionPolicy retention; //!< optional sink+recency eviction

    int groupSize() const { return heads / kv_heads; }
};

/** Aggregate accounting of one layer-wide decode/prefill call. */
struct LayerStep
{
    int keys = 0;        //!< tokens scanned per query head
    int retained = 0;    //!< retentions summed over all query heads
    uint64_t planes = 0; //!< bit planes consumed, summed
};

/**
 * One transformer layer's attention engine: kv_heads shared caches,
 * heads query streams grouped onto them.
 */
class LayerEngine
{
  public:
    /**
     * @param v_scales per-KV-head value dequantization scale
     *        (Quantized::params.scale of each group's V), size
     *        kv_heads.
     */
    LayerEngine(const LayerEngineConfig &cfg,
                std::span<const float> v_scales);

    const LayerEngineConfig &config() const { return cfg_; }
    int groupSize() const { return cfg_.groupSize(); }
    /** Tokens appended to every KV-head cache. */
    int size() const { return tokens_; }

    /**
     * Append one token position: row kv of @p k / @p v is KV head
     * kv's key/value row (kv_heads x head_dim int8 matrices).
     */
    void appendToken(const MatrixI8 &k, const MatrixI8 &v);

    /**
     * Splice one FULL shared page per KV head in at the append
     * frontier (prefix adoption; entry kv of @p pages goes to KV head
     * kv's cache). Advances the token count by one page worth. Legal
     * only at a page boundary — see KvCache::adoptSharedPage for the
     * compatibility contract.
     */
    void adoptSharedPages(
        std::span<const std::shared_ptr<const KvPage>> pages);

    /**
     * Append every KV head's reference for FULL page @p page to
     * @p out (prefix publication; kv_heads entries, ascending).
     */
    void
    sharePages(int page,
               std::vector<std::shared_ptr<const KvPage>> &out) const;

    /**
     * Decode one token for every query head: row h of @p q is head
     * h's query; head h's attention output lands in row h of @p out
     * (heads x head_dim). @p logit_scales has one entry per KV head
     * (quantization is per KV-head group).
     *
     * @param pool optional pool to fan KV heads across; outputs are
     *        bit-identical with or without it.
     */
    LayerStep decode(const MatrixI8 &q,
                     std::span<const float> logit_scales, MatrixF &out,
                     ThreadPool *pool = nullptr);

    /**
     * Scored prefill of one prompt position @p qpos (all of whose
     * prompt tokens up to qpos are appended): row h of @p q is head
     * h's query at that position; outputs land row-aligned in @p out.
     * Bit-identical, per head and for any chunking, to whole-prompt
     * causal padeAttention (see DecodeEngine::prefillGroup).
     */
    LayerStep prefillPosition(const MatrixI8 &q, int qpos,
                              int prompt_len,
                              std::span<const float> logit_scales,
                              MatrixF &out, ThreadPool *pool = nullptr);

    /**
     * prefillPosition() on the caller's @p scratch, one KV head after
     * another, adding KV head kv's PruneStats to @p stats[kv]
     * (kv_heads entries) instead of its engine's. It reads only the
     * caches and @p q and writes only @p out, @p scratch and
     * @p stats, so once a chunk is appended its positions may be
     * scored concurrently, each on its own scratch; addStats() folds
     * the stats back.
     */
    LayerStep prefillPosition(const MatrixI8 &q, int qpos,
                              int prompt_len,
                              std::span<const float> logit_scales,
                              MatrixF &out, DecodeScratch &scratch,
                              std::span<PruneStats> stats) const;

    /** Add @p stats[kv] to KV head kv's engine (kv_heads entries). */
    void addStats(std::span<const PruneStats> stats);

    /** Apply the retention policy's page eviction to every cache. */
    void evict();

    const KvCache &
    cache(int kv) const
    {
        return caches_[static_cast<std::size_t>(kv)];
    }
    DecodeEngine &
    engine(int kv)
    {
        return engines_[static_cast<std::size_t>(kv)];
    }
    const DecodeEngine &
    engine(int kv) const
    {
        return engines_[static_cast<std::size_t>(kv)];
    }

    /**
     * Pruning statistics summed over KV-head engines, folded in
     * ascending KV-head order (deterministic reduction).
     */
    PruneStats stats() const;

    /** Resident KV bytes across all caches. */
    std::size_t bytesUsed() const;

  private:
    void checkRows(const MatrixI8 &q, std::span<const float> logit_scales,
                   const MatrixF &out) const;
    LayerStep runHeads(const MatrixI8 &q,
                       std::span<const float> logit_scales,
                       MatrixF &out, ThreadPool *pool, int qpos,
                       int prompt_len);

    LayerEngineConfig cfg_;
    std::vector<KvCache> caches_;
    std::vector<DecodeEngine> engines_;
    int tokens_ = 0;
};

} // namespace pade

#endif // PADE_SERVING_LAYER_ENGINE_H
