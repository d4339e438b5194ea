/**
 * @file
 * Model-granularity serving tests: GQA grouped execution against the
 * per-head-private-cache oracle, chunked-prefill bit-identity with
 * whole-prompt causal padeAttention, KV retention/eviction, and the
 * deterministic KV-head fan-out.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/pade_attention.h"
#include "core/simd/qk_dispatch.h"
#include "runtime/thread_pool.h"
#include "serving/decode_engine.h"
#include "serving/kv_cache.h"
#include "serving/layer_engine.h"
#include "workload/generator.h"

namespace pade {
namespace {

/** Bitwise float-row comparison (the exactness bar of PRs 2-5). */
void
expectRowsBitEqual(std::span<const float> a, std::span<const float> b,
                   const char *what)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t d = 0; d < a.size(); d++)
        EXPECT_EQ(std::bit_cast<uint32_t>(a[d]),
                  std::bit_cast<uint32_t>(b[d]))
            << what << " dim " << d;
}

void
expectStatsEqual(const PruneStats &a, const PruneStats &b)
{
    EXPECT_EQ(a.planes_processed, b.planes_processed);
    EXPECT_EQ(a.planes_total, b.planes_total);
    EXPECT_EQ(a.keys_retained, b.keys_retained);
    EXPECT_EQ(a.keys_total, b.keys_total);
    EXPECT_EQ(a.ops_bs, b.ops_bs);
    EXPECT_EQ(a.ops_naive, b.ops_naive);
    EXPECT_EQ(a.max_updates, b.max_updates);
    EXPECT_EQ(a.rescale_ops, b.rescale_ops);
    EXPECT_EQ(a.threshold_updates, b.threshold_updates);
}

LayerSpec
smallSpec(int heads, int kv_heads, int head_dim, int bits, int prompt,
          int steps, uint64_t seed)
{
    LayerSpec spec;
    spec.heads = heads;
    spec.kv_heads = kv_heads;
    spec.head_dim = head_dim;
    spec.bits = bits;
    spec.prompt_len = prompt;
    spec.decode_steps = steps;
    spec.seed = seed;
    return spec;
}

// ---------------------------------------------------------------------
// Tentpole contract: grouped GQA decode == per-head private caches.
// ---------------------------------------------------------------------

/**
 * The acceptance oracle: every query head of the layer decodes
 * against its OWN private copy of its KV head's stream as a group of
 * one, and the grouped layer execution must reproduce it bit for bit
 * — outputs, keep masks, plane traces, retained lists, and summed
 * statistics. The private engines run @p oracle_kernel (default: the
 * layer's kernel) under the same @p retention window, evicting after
 * every step as the layer does.
 */
void
expectGqaMatchesPrivateCaches(int heads, int kv_heads, QkKernel kernel,
                              int bits, int head_dim, int page_tokens,
                              int pool_threads,
                              RetentionPolicy retention = {},
                              std::optional<QkKernel> oracle_kernel = {})
{
    const int prompt = 43;
    const int steps = 3;
    const LayerWorkload lw = generateLayerWorkload(
        smallSpec(heads, kv_heads, head_dim, bits, prompt, steps,
                  301u + static_cast<uint64_t>(heads * 31 + kv_heads)));
    const int group = lw.spec.groupSize();

    LayerEngineConfig lc;
    lc.heads = heads;
    lc.kv_heads = kv_heads;
    lc.head_dim = head_dim;
    lc.bits = bits;
    lc.page_tokens = page_tokens;
    lc.pade.qk_kernel = kernel;
    lc.retention = retention;

    std::vector<float> v_scales;
    std::vector<float> logit_scales;
    for (const QuantizedHead &g : lw.groups) {
        v_scales.push_back(g.v.params.scale);
        logit_scales.push_back(g.logit_scale);
    }
    LayerEngine layer(lc, v_scales);
    PadeConfig oracle_cfg = lc.pade;
    oracle_cfg.qk_kernel = oracle_kernel.value_or(kernel);

    // Oracle state: a private cache + engine per QUERY head, fed the
    // same KV stream as the head's group.
    std::vector<KvCache> priv_caches;
    std::vector<DecodeEngine> priv_engines;
    for (int h = 0; h < heads; h++) {
        KvCacheConfig kc;
        kc.head_dim = head_dim;
        kc.bits = bits;
        kc.page_tokens = page_tokens;
        kc.v_scale = v_scales[static_cast<std::size_t>(h / group)];
        priv_caches.emplace_back(kc);
        priv_engines.emplace_back(oracle_cfg, retention);
    }

    ThreadPool pool(pool_threads);
    ThreadPool *pool_arg = pool_threads > 1 ? &pool : nullptr;

    MatrixI8 k_stage(kv_heads, head_dim);
    MatrixI8 v_stage(kv_heads, head_dim);
    MatrixI8 q_stage(heads, head_dim);
    MatrixF out(heads, head_dim);
    MatrixF priv_out(1, head_dim);

    const auto appendAll = [&](int pos) {
        lw.stageKv(pos, k_stage, v_stage);
        layer.appendToken(k_stage, v_stage);
        for (int h = 0; h < heads; h++) {
            const QuantizedHead &g = lw.groupOf(h);
            priv_caches[static_cast<std::size_t>(h)].appendToken(
                g.k.values.row(pos), g.v.values.row(pos));
        }
    };

    for (int pos = 0; pos < prompt; pos++)
        appendAll(pos);

    for (int t = 0; t < steps; t++) {
        const int pos = prompt + t;
        appendAll(pos);
        lw.stageQueries(pos, q_stage);
        const LayerStep st =
            layer.decode(q_stage, logit_scales, out, pool_arg);
        int live = 0;
        for (int j = 0; j <= pos; j++)
            live += !retention.enabled() || retention.keeps(j, pos + 1);
        EXPECT_EQ(st.keys, live);

        int retained_sum = 0;
        for (int h = 0; h < heads; h++) {
            const int kv = h / group;
            const int g = h % group;
            const QuantizedHead &grp = lw.groupOf(h);
            const DecodeStep ds =
                priv_engines[static_cast<std::size_t>(h)].stepGroup(
                    priv_caches[static_cast<std::size_t>(h)],
                    grp.q.values, lw.queryRow(h, pos), 1,
                    grp.logit_scale, priv_out, 0);
            retained_sum += ds.retained;

            expectRowsBitEqual(out.row(h), priv_out.row(0),
                               "decode out");

            const DecodeEngine &ge = layer.engine(kv);
            const DecodeEngine &pe =
                priv_engines[static_cast<std::size_t>(h)];
            auto gk = ge.lastKeep(g);
            auto pk = pe.lastKeep();
            auto gp = ge.lastPlanes(g);
            auto pp = pe.lastPlanes();
            ASSERT_EQ(gk.size(), pk.size());
            for (std::size_t j = 0; j < gk.size(); j++) {
                EXPECT_EQ(gk[j], pk[j]) << "keep " << j;
                EXPECT_EQ(gp[j], pp[j]) << "planes " << j;
                // Exactly the live keys were scanned (at least one
                // plane each), whichever way the tiles were cut.
                const int tok = static_cast<int>(j);
                const bool scanned = tok <= pos &&
                    (!retention.enabled() ||
                     retention.keeps(tok, pos + 1));
                EXPECT_EQ(gp[j] > 0, scanned) << "planes " << j;
            }
            auto gr = ge.lastRetained(g);
            auto pr = pe.lastRetained();
            ASSERT_EQ(gr.size(), pr.size());
            for (std::size_t j = 0; j < gr.size(); j++)
                EXPECT_EQ(gr[j], pr[j]);
        }
        EXPECT_EQ(st.retained, retained_sum);
        layer.evict();
        for (int h = 0; h < heads; h++)
            priv_engines[static_cast<std::size_t>(h)].applyRetention(
                priv_caches[static_cast<std::size_t>(h)]);
    }

    PruneStats priv_sum;
    for (const DecodeEngine &e : priv_engines)
        priv_sum += e.stats();
    expectStatsEqual(layer.stats(), priv_sum);
}

TEST(LayerEngine, GqaParityAcrossKvHeadCounts)
{
    // The satellite matrix: kv_heads in {1, 4, heads} at heads = 8.
    for (int kv_heads : {1, 4, 8})
        expectGqaMatchesPrivateCaches(8, kv_heads,
                                      QkKernel::kPopcount, 8, 64, 16,
                                      1);
}

TEST(LayerEngine, GqaParityAllKernels)
{
    for (QkKernel k :
         {QkKernel::kScalar, QkKernel::kPopcount, QkKernel::kSimd})
        expectGqaMatchesPrivateCaches(4, 2, k, 8, 64, 16, 1);
}

TEST(LayerEngine, GqaParityOddHeadDimAndInt4)
{
    // Odd head_dims exercise the SIMD tail path; int4 the narrow
    // planes; page_tokens = 10 puts page boundaries inside tiles.
    for (QkKernel k :
         {QkKernel::kScalar, QkKernel::kPopcount, QkKernel::kSimd}) {
        expectGqaMatchesPrivateCaches(4, 1, k, 4, 65, 10, 1);
        expectGqaMatchesPrivateCaches(4, 2, k, 4, 97, 16, 1);
    }
    // page_tokens 24 against tile_bc 16: the grouped kSimd scan splits
    // tile [16, 32) at key 24 into two tile calls; private-cache
    // kScalar engines (the per-plane oracle kernel) check it.
    expectGqaMatchesPrivateCaches(4, 1, QkKernel::kSimd, 8, 64, 24, 1,
                                  {}, QkKernel::kScalar);
    expectGqaMatchesPrivateCaches(4, 2, QkKernel::kSimd, 4, 65, 24, 1,
                                  {}, QkKernel::kScalar);
}

TEST(LayerEngine, GqaTilesCutBySinkAndRecencyWindow)
{
    // The tile walk cuts an ISTA tile wherever its keys stop being
    // consecutive, live and causal; the grouped scans are checked
    // against private-cache kScalar engines.
    // Sinks [0, 5) cut tile [0, 16); the recency window's start
    // (key 23..25 over the steps) and the page boundary at 24 both
    // cut tile [16, 32).
    RetentionPolicy window;
    window.sink_tokens = 5;
    window.recency_tokens = 21;
    for (QkKernel k : {QkKernel::kSimd, QkKernel::kPopcount})
        expectGqaMatchesPrivateCaches(4, 1, k, 8, 64, 24, 1, window,
                                      QkKernel::kScalar);
}

TEST(LayerEngine, GqaParityWithThreadPoolFanOut)
{
    // The pooled KV-head fan-out must not change a single bit.
    expectGqaMatchesPrivateCaches(8, 4, QkKernel::kPopcount, 8, 64,
                                  16, 4);
}

// ---------------------------------------------------------------------
// Chunked prefill == whole-prompt causal padeAttention.
// ---------------------------------------------------------------------

/**
 * Score a full prompt through LayerEngine in chunks of @p chunk and
 * compare, per query head, with ONE whole-prompt padeAttention call
 * under cfg.causal — outputs, keep masks, plane traces, and the
 * per-group stats totals must be bit-identical regardless of the
 * chunking.
 */
void
expectPrefillMatchesWholePrompt(int chunk, QkKernel kernel, int bits,
                                int head_dim, int page_tokens = 16,
                                std::optional<QkKernel> oracle_kernel = {})
{
    const int heads = 4;
    const int kv_heads = 2;
    const int prompt = 52;
    const LayerWorkload lw = generateLayerWorkload(smallSpec(
        heads, kv_heads, head_dim, bits, prompt, 0,
        700u + static_cast<uint64_t>(chunk)));
    const int group = lw.spec.groupSize();

    LayerEngineConfig lc;
    lc.heads = heads;
    lc.kv_heads = kv_heads;
    lc.head_dim = head_dim;
    lc.bits = bits;
    lc.page_tokens = page_tokens;
    lc.pade.qk_kernel = kernel;

    std::vector<float> v_scales;
    std::vector<float> logit_scales;
    for (const QuantizedHead &g : lw.groups) {
        v_scales.push_back(g.v.params.scale);
        logit_scales.push_back(g.logit_scale);
    }
    LayerEngine layer(lc, v_scales);

    MatrixI8 k_stage(kv_heads, head_dim);
    MatrixI8 v_stage(kv_heads, head_dim);
    MatrixI8 q_stage(heads, head_dim);
    MatrixF out(heads, head_dim);

    // Chunked scored prefill, recording every position's outputs and
    // per-head keep/plane traces as they stream out.
    std::vector<MatrixF> outs(static_cast<std::size_t>(prompt));
    std::vector<std::vector<std::vector<uint8_t>>> keeps(
        static_cast<std::size_t>(heads));
    std::vector<std::vector<std::vector<uint8_t>>> planes(
        static_cast<std::size_t>(heads));
    for (int h = 0; h < heads; h++) {
        keeps[static_cast<std::size_t>(h)].resize(
            static_cast<std::size_t>(prompt));
        planes[static_cast<std::size_t>(h)].resize(
            static_cast<std::size_t>(prompt));
    }
    for (int base = 0; base < prompt; base += chunk) {
        const int n = std::min(chunk, prompt - base);
        for (int t = 0; t < n; t++) {
            lw.stageKv(base + t, k_stage, v_stage);
            layer.appendToken(k_stage, v_stage);
        }
        for (int t = 0; t < n; t++) {
            const int pos = base + t;
            lw.stageQueries(pos, q_stage);
            layer.prefillPosition(q_stage, pos, prompt, logit_scales,
                                  out);
            outs[static_cast<std::size_t>(pos)] = out;
            for (int h = 0; h < heads; h++) {
                const DecodeEngine &e = layer.engine(h / group);
                auto k = e.lastKeep(h % group);
                auto p = e.lastPlanes(h % group);
                keeps[static_cast<std::size_t>(h)]
                     [static_cast<std::size_t>(pos)]
                         .assign(k.begin(), k.end());
                planes[static_cast<std::size_t>(h)]
                      [static_cast<std::size_t>(pos)]
                          .assign(p.begin(), p.end());
            }
        }
    }

    // Whole-prompt reference per query head: its prompt query rows
    // (shared group quantization params) against the group's K/V,
    // causally masked. generateHead fixes scale = 1/sqrt(head_dim).
    const float base_scale =
        1.0f / std::sqrt(static_cast<float>(head_dim));
    PadeConfig ref_cfg = lc.pade;
    ref_cfg.causal = true;
    ref_cfg.qk_kernel = oracle_kernel.value_or(kernel);
    std::vector<PruneStats> group_ref(
        static_cast<std::size_t>(kv_heads));
    for (int h = 0; h < heads; h++) {
        const QuantizedHead &grp = lw.groupOf(h);
        MatrixI8 qrows(prompt, head_dim);
        for (int pos = 0; pos < prompt; pos++)
            std::ranges::copy(
                grp.q.values.row(lw.queryRow(h, pos)),
                qrows.row(pos).begin());
        MatrixI8 krows(prompt, head_dim);
        MatrixI8 vrows(prompt, head_dim);
        for (int pos = 0; pos < prompt; pos++) {
            std::ranges::copy(grp.k.values.row(pos),
                              krows.row(pos).begin());
            std::ranges::copy(grp.v.values.row(pos),
                              vrows.row(pos).begin());
        }
        const QuantizedHead ref(
            Quantized{std::move(qrows), grp.q.params},
            Quantized{std::move(krows), grp.k.params},
            Quantized{std::move(vrows), grp.v.params}, bits,
            base_scale);
        ASSERT_EQ(ref.logit_scale, grp.logit_scale);
        const PadeResult r = padeAttention(ref, ref_cfg);
        group_ref[static_cast<std::size_t>(h / group)] += r.stats;

        for (int pos = 0; pos < prompt; pos++) {
            expectRowsBitEqual(
                outs[static_cast<std::size_t>(pos)].row(h),
                r.out.row(pos), "prefill out");
            const auto &k = keeps[static_cast<std::size_t>(h)]
                                 [static_cast<std::size_t>(pos)];
            const auto &p = planes[static_cast<std::size_t>(h)]
                                  [static_cast<std::size_t>(pos)];
            ASSERT_EQ(static_cast<int>(k.size()), prompt);
            for (int j = 0; j < prompt; j++) {
                EXPECT_EQ(k[static_cast<std::size_t>(j)],
                          r.keep.at(pos, j))
                    << "head " << h << " pos " << pos << " key " << j;
                EXPECT_EQ(p[static_cast<std::size_t>(j)],
                          r.planes.at(pos, j))
                    << "head " << h << " pos " << pos << " key " << j;
            }
        }
    }
    for (int kv = 0; kv < kv_heads; kv++)
        expectStatsEqual(layer.engine(kv).stats(),
                         group_ref[static_cast<std::size_t>(kv)]);
}

TEST(ChunkedPrefill, BitIdenticalToWholePromptAcrossChunkings)
{
    // Chunk sizes: sub-tile, tile-aligned, whole prompt at once.
    for (int chunk : {7, 16, 52})
        expectPrefillMatchesWholePrompt(chunk, QkKernel::kPopcount, 8,
                                        64);
}

TEST(ChunkedPrefill, BitIdenticalForAllKernelsAndInt4)
{
    for (QkKernel k :
         {QkKernel::kScalar, QkKernel::kPopcount, QkKernel::kSimd})
        expectPrefillMatchesWholePrompt(16, k, 8, 64);
    expectPrefillMatchesWholePrompt(16, QkKernel::kSimd, 4, 65);
}

TEST(ChunkedPrefill, TilesCutByCausalEdgeAndPageBoundary)
{
    // Every scored position cuts its own tile at the causal edge
    // (qpos + 1); chunks of 7 also leave tiles half appended, and
    // page_tokens 24 splits tile [16, 32). The whole-prompt
    // reference is kScalar padeAttention: it cuts its tiles only at
    // the causal edge, and its per-plane scan's result does not
    // depend on where a tile is cut.
    for (int chunk : {7, 52})
        expectPrefillMatchesWholePrompt(chunk, QkKernel::kSimd, 8, 64, 24,
                                        QkKernel::kScalar);
    expectPrefillMatchesWholePrompt(7, QkKernel::kSimd, 4, 65, 24,
                                    QkKernel::kScalar);
}

// ---------------------------------------------------------------------
// KV eviction: dropPagesBefore + the sink/recency retention policy.
// ---------------------------------------------------------------------

TEST(KvCacheEviction, DropPagesBeforeFreesWholePagesOnly)
{
    KvCacheConfig kc;
    kc.head_dim = 16;
    kc.page_tokens = 8;
    KvCache cache(kc);
    std::vector<int8_t> row(16, 1);
    for (int t = 0; t < 26; t++)
        cache.appendToken(row, row);
    ASSERT_EQ(cache.numPages(), 4);
    const std::size_t full_bytes = cache.bytesUsed();

    // Token 9 lives in page 1: only page 0 is wholly before it.
    cache.dropPagesBefore(9);
    EXPECT_EQ(cache.firstLiveToken(), 8);
    EXPECT_EQ(cache.numPages(), 4);
    EXPECT_EQ(cache.livePages(), 3);
    EXPECT_LT(cache.bytesUsed(), full_bytes);

    // Surviving tokens keep their global indices and contents.
    EXPECT_EQ(cache.pageOf(8), 1);
    EXPECT_EQ(static_cast<int>(cache.valueRow(8).size()), 16);
    EXPECT_EQ(cache.pagePlanes(cache.pageOf(20)).numRows(), 8);

    // Dropping at a page boundary frees through the boundary; the
    // partial tail page always survives.
    cache.dropPagesBefore(24);
    EXPECT_EQ(cache.firstLiveToken(), 24);
    EXPECT_EQ(cache.livePages(), 1);
    // Idempotent / monotonic: an earlier horizon is a no-op.
    cache.dropPagesBefore(4);
    EXPECT_EQ(cache.firstLiveToken(), 24);

    // Appends continue normally after eviction.
    for (int t = 26; t < 34; t++)
        cache.appendToken(row, row);
    EXPECT_EQ(cache.size(), 34);
    EXPECT_EQ(cache.pageOf(33), 4);
    EXPECT_EQ(cache.rowOf(33), 1);
}

TEST(KvCacheEviction, DropPagesInReclaimsDeadMiddlePages)
{
    // Regression: dropPagesBefore can only free from the stream front,
    // so a sink-pinned stream (page 0 alive forever) used to retain
    // every page between the sinks and the recency window. dropPagesIn
    // nulls those middle slots in place — indices never renumber.
    KvCacheConfig kc;
    kc.head_dim = 16;
    kc.page_tokens = 8;
    KvCache cache(kc);
    std::vector<int8_t> row(16, 1);
    for (int t = 0; t < 42; t++)
        cache.appendToken(row, row);
    ASSERT_EQ(cache.numPages(), 6);
    const std::size_t full_bytes = cache.bytesUsed();

    // Tokens [8, 32) are dead: pages 1..3 die, page 0 (sinks) and the
    // recency pages survive. No renumbering: firstLiveToken stays 0.
    cache.dropPagesIn(8, 32);
    EXPECT_EQ(cache.firstLiveToken(), 0);
    EXPECT_EQ(cache.numPages(), 6);
    EXPECT_EQ(cache.livePages(), 3);
    EXPECT_LT(cache.bytesUsed(), full_bytes);
    EXPECT_TRUE(cache.pageLive(0));
    for (int p = 1; p <= 3; p++)
        EXPECT_FALSE(cache.pageLive(p));
    EXPECT_TRUE(cache.pageLive(4));
    EXPECT_TRUE(cache.pageLive(5));

    // Live tokens on both sides of the hole stay addressable.
    EXPECT_EQ(static_cast<int>(cache.valueRow(7).size()), 16);
    EXPECT_EQ(static_cast<int>(cache.valueRow(33).size()), 16);

    // Partially-dead pages survive: killing [4, 12) covers no whole
    // live page (page 0 has live tokens 0..3, page 1 is gone already).
    cache.dropPagesIn(4, 12);
    EXPECT_TRUE(cache.pageLive(0));

    // The append frontier never dies, even when its tokens are all in
    // range — appendToken must not resurrect a reclaimed slot.
    cache.dropPagesIn(40, 48);
    EXPECT_TRUE(cache.pageLive(5));
    for (int t = 42; t < 50; t++)
        cache.appendToken(row, row);
    EXPECT_EQ(cache.size(), 50);
    EXPECT_EQ(cache.pageOf(49), 6);
    EXPECT_EQ(cache.livePages(), 4);

    // Middle holes compose with front eviction: the horizon moving
    // past the hole re-frees from the front without double-counting.
    cache.dropPagesBefore(16);
    EXPECT_EQ(cache.firstLiveToken(), 16);
    EXPECT_EQ(cache.livePages(), 3);
}

TEST(KvCacheEvictionDeathTest, TouchingReclaimedMiddlePageAborts)
{
    KvCacheConfig kc;
    kc.head_dim = 8;
    kc.page_tokens = 4;
    KvCache cache(kc);
    std::vector<int8_t> row(8, 1);
    for (int t = 0; t < 12; t++)
        cache.appendToken(row, row);
    cache.dropPagesIn(4, 8); // page 1 dies
    ASSERT_FALSE(cache.pageLive(1));
    // Liveness is a hard invariant of the scan side: reading a
    // reclaimed slot is a use-after-free, not a soft miss.
    EXPECT_DEATH((void)cache.valueRow(5), "PADE_CHECK");
    EXPECT_DEATH((void)cache.pagePlanes(1), "PADE_CHECK");
}

TEST(Retention, SinkPinnedStreamReclaimsDeadMiddleBitIdentically)
{
    // The satellite regression: with sinks pinned, applyRetention now
    // frees the dead middle via dropPagesIn — and because the scan
    // only visits kept tokens, decode over the holed cache is bit-
    // identical to decode over the never-evicted one.
    const int head_dim = 32;
    const int prompt = 56;
    const int steps = 6;
    WorkloadSpec spec;
    spec.seq_len = prompt + steps;
    spec.query_len = steps;
    spec.head_dim = head_dim;
    spec.seed = 29;
    const QuantizedHead full = quantizeHead(generateHead(spec), 8);

    KvCacheConfig kc;
    kc.head_dim = head_dim;
    kc.page_tokens = 8;
    kc.v_scale = full.v.params.scale;
    KvCache evicted(kc);
    KvCache resident(kc);

    RetentionPolicy sinks;
    sinks.sink_tokens = 8;
    sinks.recency_tokens = 16;
    DecodeEngine on_evicted{PadeConfig{}, sinks};
    DecodeEngine on_resident{PadeConfig{}, sinks};

    MatrixF out_a(1, head_dim);
    MatrixF out_b(1, head_dim);
    for (int t = 0; t < prompt; t++) {
        evicted.appendToken(full.k.values.row(t), full.v.values.row(t));
        resident.appendToken(full.k.values.row(t),
                             full.v.values.row(t));
    }
    for (int t = 0; t < steps; t++) {
        const int pos = prompt + t;
        evicted.appendToken(full.k.values.row(pos),
                            full.v.values.row(pos));
        resident.appendToken(full.k.values.row(pos),
                             full.v.values.row(pos));
        const DecodeStep a = on_evicted.stepGroup(
            evicted, full.q.values, t, 1, full.logit_scale, out_a, 0);
        on_evicted.applyRetention(evicted);
        const DecodeStep b = on_resident.stepGroup(
            resident, full.q.values, t, 1, full.logit_scale, out_b, 0);
        EXPECT_EQ(a.keys, b.keys);
        EXPECT_EQ(a.retained, b.retained);
        EXPECT_EQ(a.planes, b.planes);
        expectRowsBitEqual(out_a.row(0), out_b.row(0),
                           "middle-drop parity");
    }
    expectStatsEqual(on_evicted.stats(), on_resident.stats());

    // And memory really came back: sinks pin page 0 so the front is
    // frozen, yet whole middle pages are gone.
    EXPECT_EQ(evicted.firstLiveToken(), 0);
    EXPECT_LT(evicted.livePages(), evicted.numPages());
    EXPECT_LT(evicted.bytesUsed(), resident.bytesUsed());
}

TEST(Retention, WindowCoveringHistoryIsBitIdenticalToFullDecode)
{
    // The satellite contract: when nothing is actually evicted (the
    // sink+recency window covers the whole history), retained-window
    // decode equals full-history decode bit for bit.
    const int head_dim = 48;
    const int prompt = 40;
    const int steps = 4;
    WorkloadSpec spec;
    spec.seq_len = prompt + steps;
    spec.query_len = steps;
    spec.head_dim = head_dim;
    spec.seed = 88;
    const QuantizedHead full = quantizeHead(generateHead(spec), 8);

    KvCacheConfig kc;
    kc.head_dim = head_dim;
    kc.page_tokens = 16;
    kc.v_scale = full.v.params.scale;
    KvCache cache_a(kc);
    KvCache cache_b(kc);

    RetentionPolicy wide;
    wide.sink_tokens = 8;
    wide.recency_tokens = prompt + steps; // always covers everything
    ASSERT_TRUE(wide.enabled());

    DecodeEngine plain{PadeConfig{}};
    DecodeEngine windowed{PadeConfig{}, wide};

    MatrixF out_a(1, head_dim);
    MatrixF out_b(1, head_dim);
    for (int t = 0; t < prompt; t++) {
        cache_a.appendToken(full.k.values.row(t), full.v.values.row(t));
        cache_b.appendToken(full.k.values.row(t), full.v.values.row(t));
    }
    for (int t = 0; t < steps; t++) {
        const int pos = prompt + t;
        cache_a.appendToken(full.k.values.row(pos),
                            full.v.values.row(pos));
        cache_b.appendToken(full.k.values.row(pos),
                            full.v.values.row(pos));
        const DecodeStep a = plain.stepGroup(
            cache_a, full.q.values, t, 1, full.logit_scale, out_a, 0);
        const DecodeStep b = windowed.stepGroup(
            cache_b, full.q.values, t, 1, full.logit_scale, out_b, 0);
        windowed.applyRetention(cache_b);
        EXPECT_EQ(cache_b.firstLiveToken(), 0); // sinks pin the head
        EXPECT_EQ(a.keys, b.keys);
        EXPECT_EQ(a.retained, b.retained);
        EXPECT_EQ(a.planes, b.planes);
        expectRowsBitEqual(out_a.row(0), out_b.row(0),
                           "retention parity");
        auto ka = plain.lastKeep();
        auto kb = windowed.lastKeep();
        ASSERT_EQ(ka.size(), kb.size());
        for (std::size_t j = 0; j < ka.size(); j++)
            EXPECT_EQ(ka[j], kb[j]);
    }
    expectStatsEqual(plain.stats(), windowed.stats());
}

TEST(Retention, SlidingWindowScansOnlyTheWindowAndReclaimsPages)
{
    const int head_dim = 32;
    WorkloadSpec spec;
    spec.seq_len = 40;
    spec.query_len = 4;
    spec.head_dim = head_dim;
    spec.seed = 12;
    const QuantizedHead full = quantizeHead(generateHead(spec), 8);

    KvCacheConfig kc;
    kc.head_dim = head_dim;
    kc.page_tokens = 4;
    kc.v_scale = full.v.params.scale;
    KvCache cache(kc);

    RetentionPolicy window;
    window.sink_tokens = 0;
    window.recency_tokens = 8;
    DecodeEngine engine{PadeConfig{}, window};

    MatrixF out(1, head_dim);
    for (int t = 0; t < 36; t++)
        cache.appendToken(full.k.values.row(t), full.v.values.row(t));
    const DecodeStep st = engine.stepGroup(cache, full.q.values, 0, 1,
                                           full.logit_scale, out, 0);
    EXPECT_EQ(st.keys, 8); // only the trailing window is visited
    for (int id : engine.lastRetained())
        EXPECT_GE(id, 36 - 8);

    engine.applyRetention(cache);
    // horizon = 36 - 8 = 28 -> pages 0..6 dropped (page_tokens = 4).
    EXPECT_EQ(cache.firstLiveToken(), 28);
    EXPECT_EQ(cache.livePages(), 2);

    // Decode continues over the evicted cache.
    cache.appendToken(full.k.values.row(36), full.v.values.row(36));
    const DecodeStep st2 = engine.stepGroup(cache, full.q.values, 1, 1,
                                            full.logit_scale, out, 0);
    EXPECT_EQ(st2.keys, 8);
    for (float v : out.row(0))
        EXPECT_TRUE(std::isfinite(v));
}

TEST(Retention, WindowedDecodeWorkIsFlatInContext)
{
    // perf_suite's windowed-decode flatness as counts: under a sink 4 +
    // recency 256 window, a decode step at 16384 tokens of context
    // scans as many keys as one at 4096, and each query head visits
    // (leaves a nonzero plane count at) as many tokens. The layer
    // evicts after every append, as serving does.
    RetentionPolicy window;
    window.sink_tokens = 4;
    window.recency_tokens = 256;
    const int heads = 2;
    const int head_dim = 32;
    struct Work
    {
        int keys;
        std::vector<long> visited; //!< per query head
    };
    const auto decodeAt = [&](int context) {
        const LayerWorkload lw = generateLayerWorkload(
            smallSpec(heads, 1, head_dim, 8, context, 1, 61));
        LayerEngineConfig lc;
        lc.heads = heads;
        lc.kv_heads = 1;
        lc.head_dim = head_dim;
        lc.page_tokens = 64;
        lc.retention = window;
        const std::vector<float> v_scales{lw.groups[0].v.params.scale};
        const std::vector<float> logit_scales{lw.groups[0].logit_scale};
        LayerEngine layer(lc, v_scales);
        MatrixI8 k(1, head_dim);
        MatrixI8 v(1, head_dim);
        MatrixI8 q(heads, head_dim);
        MatrixF out(heads, head_dim);
        for (int t = 0; t <= context; t++) {
            lw.stageKv(t, k, v);
            layer.appendToken(k, v);
            layer.evict();
        }
        lw.stageQueries(context, q);
        Work w{layer.decode(q, logit_scales, out).keys, {}};
        for (int h = 0; h < heads; h++) {
            const auto planes = layer.engine(0).lastPlanes(h);
            w.visited.push_back(std::count_if(
                planes.begin(), planes.end(),
                [](uint8_t n) { return n != 0; }));
        }
        return w;
    };
    const Work small = decodeAt(4096);
    const Work large = decodeAt(16384);
    EXPECT_EQ(small.keys, window.sink_tokens + window.recency_tokens);
    EXPECT_EQ(large.keys, small.keys);
    for (int h = 0; h < heads; h++) {
        EXPECT_EQ(small.visited[h], small.keys) << "head " << h;
        EXPECT_EQ(large.visited[h], small.visited[h]) << "head " << h;
    }
}

TEST(Retention, ScoredPrefillWindowIsChunkIndependent)
{
    // The retention window during prefill anchors at the query's own
    // position (tokens 0..qpos), not at the append frontier — so the
    // scored outputs are identical no matter how the prompt is
    // chunked, and early positions always see their own (short)
    // history rather than an empty window.
    const int heads = 2;
    const int prompt = 24;
    const LayerWorkload lw = generateLayerWorkload(
        smallSpec(heads, 1, 32, 8, prompt, 0, 44));
    std::vector<float> v_scales{lw.groups[0].v.params.scale};
    std::vector<float> logit_scales{lw.groups[0].logit_scale};

    LayerEngineConfig lc;
    lc.heads = heads;
    lc.kv_heads = 1;
    lc.head_dim = 32;
    lc.page_tokens = 8;
    lc.retention.sink_tokens = 0;
    lc.retention.recency_tokens = 6;

    auto runChunked = [&](int chunk) {
        LayerEngine layer(lc, v_scales);
        MatrixI8 k_stage(1, 32);
        MatrixI8 v_stage(1, 32);
        MatrixI8 q_stage(heads, 32);
        MatrixF out(heads, 32);
        std::vector<MatrixF> outs;
        for (int base = 0; base < prompt; base += chunk) {
            const int n = std::min(chunk, prompt - base);
            for (int t = 0; t < n; t++) {
                lw.stageKv(base + t, k_stage, v_stage);
                layer.appendToken(k_stage, v_stage);
            }
            for (int t = 0; t < n; t++) {
                const int pos = base + t;
                lw.stageQueries(pos, q_stage);
                layer.prefillPosition(q_stage, pos, prompt,
                                      logit_scales, out);
                outs.push_back(out);
            }
        }
        return outs;
    };
    const auto whole = runChunked(prompt);
    const auto tiled = runChunked(5);
    ASSERT_EQ(whole.size(), tiled.size());
    for (int pos = 0; pos < prompt; pos++)
        for (int h = 0; h < heads; h++) {
            expectRowsBitEqual(
                whole[static_cast<std::size_t>(pos)].row(h),
                tiled[static_cast<std::size_t>(pos)].row(h),
                "windowed prefill");
            for (float v :
                 whole[static_cast<std::size_t>(pos)].row(h))
                EXPECT_TRUE(std::isfinite(v))
                    << "pos " << pos << " head " << h;
        }
}

/**
 * One DecodeScratch passed between streams of unlike configs — full
 * history and two retention windows, tile_bc 16 and 8, head-tail on
 * and off, groups of 4 and 2 heads — position by position, as
 * ModelEngine's worker threads pass theirs between block units. Every
 * step must match the same stream on its own scratch: outputs,
 * accounting, PruneStats, and the keep and plane traces, whose
 * untouched entries must read 0 after another stream wrote them.
 */
TEST(DecodeScratch, SharedAcrossStreamsMatchesOwnScratch)
{
    const int prompt = 60;
    struct Stream
    {
        int heads;
        int tile_bc;
        bool head_tail;
        RetentionPolicy retention;
    };
    // Neighbours differ in one input at a time, so a stale scan order
    // or a stale trace entry reaches the next stream.
    const Stream streams[] = {
        {4, 16, true, {}},
        {4, 8, false, {}},       // tile_bc and head-tail only
        {2, 8, true, {}},        // head-tail and group only
        {2, 8, true, {4, 12}},   // full history -> window
        {2, 16, true, {4, 12}},  // tile_bc only, same window
        {4, 16, false, {0, 20}}, // another window, group 4
    };
    struct Lane
    {
        LayerWorkload lw;
        LayerEngine shared;
        LayerEngine own;
        std::vector<float> logit_scales;
        PruneStats stats;
    };
    std::vector<Lane> lanes;
    for (const Stream &st : streams) {
        LayerWorkload lw = generateLayerWorkload(smallSpec(
            st.heads, 1, 32, 8, prompt, 0,
            900u + static_cast<uint64_t>(lanes.size())));
        LayerEngineConfig lc;
        lc.heads = st.heads;
        lc.kv_heads = 1;
        lc.head_dim = 32;
        lc.page_tokens = 16;
        lc.pade.tile_bc = st.tile_bc;
        lc.pade.head_tail = st.head_tail;
        lc.retention = st.retention;
        const std::vector<float> v_scales{lw.groups[0].v.params.scale};
        const std::vector<float> logit_scales{lw.groups[0].logit_scale};
        lanes.push_back(Lane{std::move(lw), LayerEngine(lc, v_scales),
                             LayerEngine(lc, v_scales), logit_scales,
                             PruneStats{}});
        Lane &lane = lanes.back();
        MatrixI8 k(1, 32);
        MatrixI8 v(1, 32);
        for (int pos = 0; pos < prompt; pos++) {
            lane.lw.stageKv(pos, k, v);
            lane.shared.appendToken(k, v);
            lane.own.appendToken(k, v);
        }
    }

    DecodeScratch scratch;
    for (int pos = 0; pos < prompt; pos++) {
        for (std::size_t i = 0; i < lanes.size(); i++) {
            SCOPED_TRACE(testing::Message()
                         << "stream " << i << " pos " << pos);
            Lane &lane = lanes[i];
            const int heads = streams[i].heads;
            MatrixI8 q(heads, 32);
            lane.lw.stageQueries(pos, q);
            MatrixF out_shared(heads, 32);
            MatrixF out_own(heads, 32);
            const LayerStep a = lane.shared.prefillPosition(
                q, pos, prompt, lane.logit_scales, out_shared, scratch,
                std::span(&lane.stats, 1));
            const LayerStep b = lane.own.prefillPosition(
                q, pos, prompt, lane.logit_scales, out_own);
            EXPECT_EQ(a.keys, b.keys);
            EXPECT_EQ(a.retained, b.retained);
            EXPECT_EQ(a.planes, b.planes);
            ASSERT_EQ(scratch.group(), heads);
            const DecodeEngine &own = lane.own.engine(0);
            for (int h = 0; h < heads; h++) {
                expectRowsBitEqual(out_shared.row(h), out_own.row(h),
                                   "shared scratch");
                const auto n = static_cast<std::size_t>(prompt);
                EXPECT_TRUE(std::ranges::equal(
                    scratch.keep(h).first(n), own.lastKeep(h).first(n)))
                    << "keep, head " << h;
                EXPECT_TRUE(std::ranges::equal(
                    scratch.planes(h).first(n),
                    own.lastPlanes(h).first(n)))
                    << "planes, head " << h;
                EXPECT_TRUE(std::ranges::equal(scratch.retained(h),
                                               own.lastRetained(h)))
                    << "retained, head " << h;
            }
        }
    }
    for (Lane &lane : lanes) {
        // The const scans left the shared-scratch engine's own stats
        // alone; folding them back gives the own-scratch totals.
        expectStatsEqual(lane.shared.stats(), PruneStats{});
        lane.shared.addStats(std::span(&lane.stats, 1));
        expectStatsEqual(lane.shared.stats(), lane.own.stats());
    }
}

TEST(Retention, SinkPlusRecencyVisitsBothRegions)
{
    const int head_dim = 32;
    WorkloadSpec spec;
    spec.seq_len = 33;
    spec.query_len = 1;
    spec.head_dim = head_dim;
    spec.seed = 9;
    const QuantizedHead full = quantizeHead(generateHead(spec), 8);

    KvCacheConfig kc;
    kc.head_dim = head_dim;
    kc.page_tokens = 8;
    kc.v_scale = full.v.params.scale;
    KvCache cache(kc);
    for (int t = 0; t < 33; t++)
        cache.appendToken(full.k.values.row(t), full.v.values.row(t));

    RetentionPolicy policy;
    policy.sink_tokens = 4;
    policy.recency_tokens = 8;
    DecodeEngine engine{PadeConfig{}, policy};
    MatrixF out(1, head_dim);
    const DecodeStep st = engine.stepGroup(cache, full.q.values, 0, 1,
                                           full.logit_scale, out, 0);
    EXPECT_EQ(st.keys, 12); // 4 sinks + 8 recent
    auto planes = engine.lastPlanes();
    for (int j = 0; j < 33; j++) {
        const bool in_window = j < 4 || j >= 33 - 8;
        EXPECT_EQ(planes[static_cast<std::size_t>(j)] > 0, in_window)
            << "token " << j;
    }
}

// ---------------------------------------------------------------------
// Workload layer: GQA shapes.
// ---------------------------------------------------------------------

TEST(LayerWorkload, ShapesAndDeterminism)
{
    LayerSpec spec = smallSpec(8, 2, 32, 8, 10, 3, 5);
    spec.concentration = 1.2;
    const LayerWorkload a = generateLayerWorkload(spec);
    const LayerWorkload b = generateLayerWorkload(spec);
    ASSERT_EQ(a.groups.size(), 2u);
    EXPECT_EQ(a.spec.groupSize(), 4);
    for (int kv = 0; kv < 2; kv++) {
        const QuantizedHead &g =
            a.groups[static_cast<std::size_t>(kv)];
        EXPECT_EQ(g.k.values.rows(), 13);
        EXPECT_EQ(g.q.values.rows(), 4 * 13);
        EXPECT_EQ(g.k.values.cols(), 32);
        EXPECT_TRUE(g.k.values ==
                    b.groups[static_cast<std::size_t>(kv)].k.values);
        EXPECT_TRUE(g.q.values ==
                    b.groups[static_cast<std::size_t>(kv)].q.values);
    }
    // KV heads are distinct streams.
    EXPECT_FALSE(a.groups[0].k.values == a.groups[1].k.values);
    // Head-major query rows: head h, position p.
    EXPECT_EQ(a.queryRow(0, 0), 0);
    EXPECT_EQ(a.queryRow(1, 2), 13 + 2);
    EXPECT_EQ(a.queryRow(5, 2), 13 + 2); // second group, same slot
    EXPECT_EQ(&a.groupOf(5), &a.groups[1]);
}

TEST(LayerWorkload, WithModelAdoptsGqaGeometry)
{
    const ModelConfig m = llama3_8b();
    ASSERT_TRUE(m.isGqa());
    LayerSpec spec = smallSpec(1, 1, 16, 8, 4, 2, 1).withModel(m);
    EXPECT_EQ(spec.heads, m.heads);
    EXPECT_EQ(spec.kv_heads, m.kv_heads);
    EXPECT_EQ(spec.head_dim, m.head_dim);
    EXPECT_EQ(spec.prompt_len, 4);
    EXPECT_EQ(spec.decode_steps, 2);
}

// ---------------------------------------------------------------------
// Workspace plane-table reuse (the GQA batch-level seam in core/).
// ---------------------------------------------------------------------

TEST(PlaneWorkReuse, WorkspaceSkipsRebuildForSamePlanes)
{
    WorkloadSpec spec;
    spec.seq_len = 64;
    spec.query_len = 4;
    spec.head_dim = 32;
    spec.seed = 3;
    const QuantizedHead head = quantizeHead(generateHead(spec), 8);
    const QuantizedHead other = quantizeHead(generateHead(spec), 8);

    PadeWorkspace ws;
    const PadeResult fresh = padeAttention(head, {}, nullptr);
    const PadeResult first = padeAttention(head, {}, &ws);
    EXPECT_EQ(ws.plane_work_builds, 1u);
    const PadeResult second = padeAttention(head, {}, &ws);
    EXPECT_EQ(ws.plane_work_builds, 1u); // reused, not rebuilt

    // Reuse must be invisible in the numbers.
    for (int i = 0; i < first.out.rows(); i++)
        for (int d = 0; d < first.out.cols(); d++) {
            EXPECT_EQ(std::bit_cast<uint32_t>(first.out.at(i, d)),
                      std::bit_cast<uint32_t>(fresh.out.at(i, d)));
            EXPECT_EQ(std::bit_cast<uint32_t>(second.out.at(i, d)),
                      std::bit_cast<uint32_t>(fresh.out.at(i, d)));
        }
    expectStatsEqual(first.stats, fresh.stats);
    expectStatsEqual(second.stats, fresh.stats);

    // A different plane set rebuilds; different GSAT geometry too.
    padeAttention(other, {}, &ws);
    EXPECT_EQ(ws.plane_work_builds, 2u);
    PadeConfig other_gsat;
    other_gsat.subgroup = 16;
    padeAttention(other, other_gsat, &ws);
    EXPECT_EQ(ws.plane_work_builds, 3u);
}

TEST(PlaneWorkReuse, RevisionAdvancesOnAppend)
{
    BitPlaneSet planes(16, 8, 4);
    const uint64_t r0 = planes.revision();
    std::vector<int8_t> row(16, 3);
    planes.appendToken(row);
    EXPECT_NE(planes.revision(), r0);
    BitPlaneSet other(16, 8, 4);
    EXPECT_NE(other.revision(), planes.revision());
}

// ---------------------------------------------------------------------
// Efficiency gate: pruning work pinned to exact counts.
// ---------------------------------------------------------------------

/**
 * One fixed ModelWorkload layer (head_dim 64, 4 query heads on one KV
 * head, 8-bit keys, a 256-token scored prefill and 40 decode steps)
 * served through a LayerEngine with every kernel. The summed
 * PruneStats are a pure function of the workload, so they are pinned
 * to exact values: a change that shifts what the guard prunes, how
 * many planes a key consumes or how the value stage rescales fails
 * here deterministically, where wall-clock benchmarks would only see
 * noise.
 */
TEST(EfficiencyGate, PinnedPruneStatsForEveryKernel)
{
    ModelSpec spec;
    spec.layers = 1;
    spec.heads = 4;
    spec.kv_heads = 1;
    spec.head_dim = 64;
    spec.bits = 8;
    spec.prompt_len = 256;
    spec.decode_steps = 40;
    spec.seed = 19;
    const ModelWorkload work(spec);
    const float v_scale = work.vScale();
    const float logit_scale = work.logitScale();

    for (QkKernel kernel : {QkKernel::kScalar, QkKernel::kPopcount,
                            QkKernel::kSimd}) {
        SCOPED_TRACE(qkKernelName(kernel));
        LayerEngineConfig lc;
        lc.heads = spec.heads;
        lc.kv_heads = spec.kv_heads;
        lc.head_dim = spec.head_dim;
        lc.bits = spec.bits;
        lc.page_tokens = 64;
        lc.pade.qk_kernel = kernel;
        LayerEngine layer(lc, std::span<const float>(&v_scale, 1));

        MatrixI8 k(spec.kv_heads, spec.head_dim);
        MatrixI8 v(spec.kv_heads, spec.head_dim);
        MatrixI8 q(spec.heads, spec.head_dim);
        MatrixF out(spec.heads, spec.head_dim);
        const std::span<const float> scales(&logit_scale, 1);
        for (int pos = 0; pos < spec.positions(); pos++) {
            work.stageKv(0, pos, k, v);
            work.stageQueries(0, pos, q);
            layer.appendToken(k, v);
            if (pos < spec.prompt_len)
                layer.prefillPosition(q, pos, spec.prompt_len, scales,
                                      out);
            else
                layer.decode(q, scales, out);
        }

        const PruneStats s = layer.stats();
        EXPECT_EQ(s.keys_total, 175824u);
        EXPECT_EQ(s.keys_retained, 16177u);
        EXPECT_EQ(s.planes_total, 1406592u);
        EXPECT_EQ(s.planes_processed, 854360u);
        EXPECT_EQ(s.ops_bs, 19898912u);
        EXPECT_EQ(s.ops_naive, 26583256u);
        EXPECT_EQ(s.max_updates, 162u);
        EXPECT_EQ(s.rescale_ops, 21060u);
        EXPECT_EQ(s.threshold_updates, 20286u);
    }
}

} // namespace
} // namespace pade
