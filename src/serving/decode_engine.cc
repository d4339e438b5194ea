#include "serving/decode_engine.h"

#include "common/check.h"
#include "obs/telemetry.h"

namespace pade {

namespace {

// Per-step decode telemetry: pruning effectiveness and kernel
// dispatch mix (docs/OBSERVABILITY.md). References cached once; the
// recording cost is a handful of relaxed adds per *step*, never per
// key.
struct DecodeMetrics
{
    obs::Counter &steps;
    obs::Counter &keys_scanned;
    obs::Counter &keys_retained;
    obs::Counter &planes_consumed;
    obs::Counter &planes_total;
    obs::Counter &dispatch_scalar;
    obs::Counter &dispatch_popcount;
    obs::Counter &dispatch_simd;

    static DecodeMetrics &
    get()
    {
        static DecodeMetrics m{
            obs::Registry::instance().counter("decode.steps"),
            obs::Registry::instance().counter("decode.keys_scanned"),
            obs::Registry::instance().counter("decode.keys_retained"),
            obs::Registry::instance().counter(
                "decode.planes_consumed"),
            obs::Registry::instance().counter("decode.planes_total"),
            obs::Registry::instance().counter("qk.dispatch_scalar"),
            obs::Registry::instance().counter("qk.dispatch_popcount"),
            obs::Registry::instance().counter("qk.dispatch_simd"),
        };
        return m;
    }
};

} // namespace

DecodeEngine::DecodeEngine(PadeConfig cfg, RetentionPolicy retention)
    : cfg_(cfg), retention_(retention)
{
    PADE_CHECK_GE(retention_.sink_tokens, 0);
    PADE_CHECK_GE(retention_.recency_tokens, 0);
}

void
DecodeEngine::stageRows(DecodeScratch &s, const MatrixI8 &q, int q_row0,
                        int group, MatrixF &out, int out_row0)
{
    PADE_CHECK_GE(group, 1);
    s.qs_.resize(static_cast<std::size_t>(group));
    s.outs_.resize(static_cast<std::size_t>(group));
    for (int g = 0; g < group; g++) {
        s.qs_[static_cast<std::size_t>(g)] = q.row(q_row0 + g);
        s.outs_[static_cast<std::size_t>(g)] = out.row(out_row0 + g);
    }
}

DecodeStep
DecodeEngine::stepGroup(const KvCache &cache, const MatrixI8 &q,
                        int q_row0, int group, float logit_scale,
                        MatrixF &out, int out_row0)
{
    stageRows(scratch_, q, q_row0, group, out, out_row0);
    // A decode query sits at the stream tail: it sees every cached
    // token, and the scan order spans exactly the cache.
    return runGroup(cache, cache.size() - 1, cache.size(), logit_scale,
                    scratch_, stats_);
}

DecodeStep
DecodeEngine::prefillGroup(const KvCache &cache, const MatrixI8 &q,
                           int q_row0, int group, int qpos,
                           int prompt_len, float logit_scale,
                           MatrixF &out, int out_row0)
{
    return prefillGroup(cache, q, q_row0, group, qpos, prompt_len,
                        logit_scale, out, out_row0, scratch_, stats_);
}

DecodeStep
DecodeEngine::prefillGroup(const KvCache &cache, const MatrixI8 &q,
                           int q_row0, int group, int qpos,
                           int prompt_len, float logit_scale,
                           MatrixF &out, int out_row0,
                           DecodeScratch &scratch,
                           PruneStats &stats) const
{
    PADE_CHECK_GE(qpos, 0);
    PADE_CHECK_LT(qpos, prompt_len);
    // The chunk containing qpos must already be appended; later
    // prompt tokens may or may not be — the causal skip masks both
    // the not-yet-cached tail and the in-cache tokens past qpos.
    PADE_CHECK_GT(cache.size(), qpos);
    stageRows(scratch, q, q_row0, group, out, out_row0);
    return runGroup(cache, qpos, prompt_len, logit_scale, scratch,
                    stats);
}

DecodeStep
DecodeEngine::runGroup(const KvCache &cache, int qpos, int order_len,
                       float logit_scale, DecodeScratch &s,
                       PruneStats &stats) const
{
    const KvCacheConfig &kc = cache.config();
    const int h = kc.head_dim;
    const int bits = kc.bits;
    const int g = static_cast<int>(s.qs_.size());
    for (const auto &q : s.qs_)
        PADE_CHECK_EQ(static_cast<int>(q.size()), h);
    for (const auto &o : s.outs_)
        PADE_CHECK_EQ(static_cast<int>(o.size()), h);
    // The cached WorkPrefix entries were computed with the cache's
    // GSAT geometry; the stats are only comparable to padeAttention
    // when the algorithm config agrees.
    PADE_CHECK_EQ(cfg_.subgroup, kc.subgroup);
    PADE_CHECK_EQ(cfg_.muxes, kc.muxes);

    // Same per-call dispatch decision as padeAttention: config request
    // + PADE_QK_KERNEL override + capability clamp.
    const QkKernel kernel = resolveQkKernel(cfg_.qk_kernel);
    DecodeMetrics &m = DecodeMetrics::get();
    m.steps.add(1);
    (kernel == QkKernel::kSimd       ? m.dispatch_simd
         : kernel == QkKernel::kScalar ? m.dispatch_scalar
                                       : m.dispatch_popcount)
        .add(1);

    if (static_cast<int>(s.heads_.size()) < g) {
        s.heads_.resize(static_cast<std::size_t>(g));
        s.scans_.resize(static_cast<std::size_t>(g));
    }
    s.group_ = g;

    const bool windowed = retention_.enabled();
    // The retention window is relative to the stream AS THE QUERY
    // SEES IT — tokens 0..qpos — not to the append frontier. During
    // chunked prefill the cache may already hold tokens past qpos;
    // anchoring the recency window at qpos + 1 keeps prefill outputs
    // independent of the chunking (and for decode, qpos + 1 == s).
    const int stream_len = qpos + 1;

    // Scan order + planes/keep scratch. Full-history engines pay the
    // O(order_len) order walk and scratch memset a batch padeAttention
    // call would pay. Retention-windowed engines generate only the
    // live subsequence (sink + recency, bit-identical to walking the
    // full order with the per-key window skip) and, instead of
    // clearing whole planes/keep spans, undo only the entries the
    // scratch's previous windowed step could have written — every
    // write lands inside that step's scan order, recorded in
    // HeadState::touched — so the whole step is O(window), not
    // O(context). A full-history step on the same scratch writes
    // anywhere, so after one the next windowed step clears whole
    // spans once. The buffers stay full-length (grow-only,
    // zero-filled) to preserve the lastPlanes()/lastKeep() contract
    // that untouched tokens read 0.
    //
    // The order depends only on its inputs (length, sink tokens,
    // window start, tile_bc, head_tail), so it is rebuilt only when
    // one of them moved: every position of a full-history prompt
    // reuses one build, while a decode step's length grows by one and
    // rebuilds.
    const auto buildOrder = [&](int sink, int start) {
        const DecodeScratch::OrderKey key{order_len, sink, start,
                                          cfg_.tile_bc, cfg_.head_tail};
        if (key == s.order_key_)
            return;
        istaScanOrderInto(order_len, cfg_.tile_bc, cfg_.head_tail, sink,
                          start, s.order_);
        s.order_key_ = key;
    };
    if (!windowed) {
        for (int gi = 0; gi < g; gi++) {
            DecodeScratch::HeadState &hs =
                s.heads_[static_cast<std::size_t>(gi)];
            hs.planes.assign(static_cast<std::size_t>(order_len), 0);
            hs.keep.assign(static_cast<std::size_t>(order_len), 0);
            hs.all_dirty = true;
        }
        buildOrder(0, 0);
    } else {
        for (int gi = 0; gi < g; gi++) {
            DecodeScratch::HeadState &hs =
                s.heads_[static_cast<std::size_t>(gi)];
            if (hs.all_dirty) {
                std::fill(hs.planes.begin(), hs.planes.end(), 0);
                std::fill(hs.keep.begin(), hs.keep.end(), 0);
                hs.all_dirty = false;
            } else {
                for (int j : hs.touched) {
                    const auto sj = static_cast<std::size_t>(j);
                    if (sj < hs.planes.size()) {
                        hs.planes[sj] = 0;
                        hs.keep[sj] = 0;
                    }
                }
            }
            if (static_cast<int>(hs.planes.size()) < order_len) {
                hs.planes.resize(static_cast<std::size_t>(order_len),
                                 0);
                hs.keep.resize(static_cast<std::size_t>(order_len),
                               0);
            }
        }
        buildOrder(retention_.sink_tokens, retention_.horizon(stream_len));
        // Conservative write-set: the scan below only writes at
        // positions of order_ (causal/evicted skips leave zeros, and
        // re-clearing a zero is harmless).
        for (int gi = 0; gi < g; gi++)
            s.heads_[static_cast<std::size_t>(gi)].touched.assign(
                s.order_.begin(), s.order_.end());
    }

    // Stage per-head query state once per step; the tile loop below
    // only reads it.
    for (int gi = 0; gi < g; gi++) {
        DecodeScratch::HeadState &hs =
            s.heads_[static_cast<std::size_t>(gi)];
        s.scans_[static_cast<std::size_t>(gi)].start(
            s.qs_[static_cast<std::size_t>(gi)], kernel, bits,
            GuardFilter(cfg_.alpha, cfg_.radius, logit_scale),
            hs.planes.data(), hs.keep.data());
    }
    s.group_scan_.bind(
        std::span(s.scans_).first(static_cast<std::size_t>(g)),
        cfg_.tile_bc);

    // The guarded scan, one ISTA tile at a time for the whole group:
    // a tile is the run of consecutive keys of order_ inside one
    // tile_bc tile, on one live page and at or before qpos, so its
    // plane rows and WorkPrefix rows are contiguous on the page. The
    // page is looked up once per tile and shared by every query head
    // of the group. Skips (causal, evicted) happen before any stats,
    // exactly like padeAttention's causal skip; the retention window
    // needs no skip here because a windowed order_ already excludes
    // dead-middle keys.
    DecodeStep res;
    PruneStats st;
    const ScanPlan plan(kernel, bits, cfg_.guard_enabled);
    withQkKernel(kernel, [&](auto k) {
        const int page_tokens = kc.page_tokens;
        const std::vector<int> &order = s.order_;
        for (std::size_t o = 0; o < order.size();) {
            const int j = order[o];
            const int page = j <= qpos ? cache.pageOf(j) : -1;
            if (page < 0 || !cache.pageLive(page)) {
                o++; // causal / not yet prefilled, or evicted
                continue;
            }
            const int n = tileRun(order, o, cfg_.tile_bc,
                                  std::min(qpos + 1,
                                           (page + 1) * page_tokens));
            const int local = cache.rowOf(j);
            scanTile(k, plan, s.group_scan_,
                     cache.pagePlanes(page).rowPlanes(local).data(),
                     cache.pageWork(page).data() +
                         static_cast<std::size_t>(local) * bits,
                     j, n, st);
            res.keys += n;
            o += static_cast<std::size_t>(n);
        }
    });
    for (int gi = 0; gi < g; gi++) {
        const ScanQuery &sq = s.scans_[static_cast<std::size_t>(gi)];
        st.threshold_updates += sq.guard.updates();
        res.retained += static_cast<int>(sq.retained.size());
    }
    res.planes = st.planes_processed;
    // Per-query-head totals, matching PruneStats semantics: the
    // prune ratio is 1 - planes_consumed / planes_total and the
    // retention ratio keys_retained / keys_scanned, both
    // recoverable from any snapshot delta.
    m.keys_scanned.add(static_cast<uint64_t>(res.keys) *
                       static_cast<uint64_t>(g));
    m.keys_retained.add(static_cast<uint64_t>(res.retained));
    m.planes_consumed.add(res.planes);
    m.planes_total.add(st.planes_total);

    // ISTA value stage per head, tiled by Bc in scan order — the
    // identical float sequence to padeAttention's value stage (the
    // same int8-row update), with value rows gathered from the cache
    // pages instead of one contiguous matrix. Heads run sequentially
    // through the one shared accumulator; reset() re-arms it without
    // allocation.
    const auto tile = static_cast<std::size_t>(cfg_.tile_bc);
    s.tile_scores_.resize(tile);
    s.tile_rows_.resize(tile);
    for (int gi = 0; gi < g; gi++) {
        const ScanQuery &sq = s.scans_[static_cast<std::size_t>(gi)];
        s.softmax_.reset(h);
        for (std::size_t base = 0; base < sq.retained.size();
             base += tile) {
            const std::size_t n =
                std::min(sq.retained.size(), base + tile) - base;
            for (std::size_t t = 0; t < n; t++) {
                s.tile_scores_[t] = logit_scale *
                    static_cast<float>(sq.scores[base + t]);
                s.tile_rows_[t] = cache.valueRow(sq.retained[base + t]);
            }
            s.softmax_.update(
                std::span<const float>(s.tile_scores_).first(n),
                std::span<const std::span<const int8_t>>(s.tile_rows_)
                    .first(n),
                kc.v_scale);
        }
        st.max_updates += s.softmax_.maxUpdates();
        st.rescale_ops += s.softmax_.rescaleOps();
        s.softmax_.finalizeInto(s.outs_[static_cast<std::size_t>(gi)]);
    }
    stats += st;
    return res;
}

} // namespace pade
