#include "serving/layer_engine.h"

#include "common/check.h"
#include "runtime/thread_pool.h"

namespace pade {

LayerEngine::LayerEngine(const LayerEngineConfig &cfg,
                         std::span<const float> v_scales)
    : cfg_(cfg)
{
    PADE_CHECK_GE(cfg_.heads, 1);
    PADE_CHECK_GE(cfg_.kv_heads, 1);
    PADE_CHECK_EQ(cfg_.heads % cfg_.kv_heads, 0);
    PADE_CHECK_EQ(static_cast<int>(v_scales.size()), cfg_.kv_heads);

    caches_.reserve(static_cast<std::size_t>(cfg_.kv_heads));
    engines_.reserve(static_cast<std::size_t>(cfg_.kv_heads));
    for (int kv = 0; kv < cfg_.kv_heads; kv++) {
        KvCacheConfig kc;
        kc.head_dim = cfg_.head_dim;
        kc.bits = cfg_.bits;
        kc.page_tokens = cfg_.page_tokens;
        kc.subgroup = cfg_.pade.subgroup;
        kc.muxes = cfg_.pade.muxes;
        kc.v_scale = v_scales[static_cast<std::size_t>(kv)];
        caches_.emplace_back(kc);
        engines_.emplace_back(cfg_.pade, cfg_.retention);
    }
}

void
LayerEngine::appendToken(const MatrixI8 &k, const MatrixI8 &v)
{
    PADE_CHECK_EQ(k.rows(), cfg_.kv_heads);
    PADE_CHECK_EQ(v.rows(), cfg_.kv_heads);
    PADE_CHECK_EQ(k.cols(), cfg_.head_dim);
    PADE_CHECK_EQ(v.cols(), cfg_.head_dim);
    for (int kv = 0; kv < cfg_.kv_heads; kv++)
        caches_[static_cast<std::size_t>(kv)].appendToken(k.row(kv),
                                                          v.row(kv));
    tokens_++;
}

void
LayerEngine::adoptSharedPages(
    std::span<const std::shared_ptr<const KvPage>> pages)
{
    PADE_CHECK_EQ(static_cast<int>(pages.size()), cfg_.kv_heads);
    for (int kv = 0; kv < cfg_.kv_heads; kv++)
        caches_[static_cast<std::size_t>(kv)].adoptSharedPage(
            pages[static_cast<std::size_t>(kv)]);
    tokens_ += cfg_.page_tokens;
}

void
LayerEngine::sharePages(
    int page, std::vector<std::shared_ptr<const KvPage>> &out) const
{
    for (int kv = 0; kv < cfg_.kv_heads; kv++)
        out.push_back(
            caches_[static_cast<std::size_t>(kv)].sharePage(page));
}

namespace {

/** Add one KV head's step to a layer-wide one. */
void
foldStep(LayerStep &acc, const DecodeStep &st)
{
    acc.keys = st.keys; // identical across KV heads (same cache size,
                        // same window)
    acc.retained += st.retained;
    acc.planes += st.planes;
}

} // namespace

void
LayerEngine::checkRows(const MatrixI8 &q,
                       std::span<const float> logit_scales,
                       const MatrixF &out) const
{
    PADE_CHECK_EQ(q.rows(), cfg_.heads);
    PADE_CHECK_EQ(q.cols(), cfg_.head_dim);
    PADE_CHECK_EQ(out.rows(), cfg_.heads);
    PADE_CHECK_EQ(out.cols(), cfg_.head_dim);
    PADE_CHECK_EQ(static_cast<int>(logit_scales.size()), cfg_.kv_heads);
}

LayerStep
LayerEngine::runHeads(const MatrixI8 &q,
                      std::span<const float> logit_scales,
                      MatrixF &out, ThreadPool *pool, int qpos,
                      int prompt_len)
{
    checkRows(q, logit_scales, out);
    const int group = cfg_.groupSize();

    // One KV head's work: its group of query rows against its shared
    // cache. prompt_len < 0 selects decode semantics (attend the
    // whole cache).
    auto headStep = [&](int kv) {
        DecodeEngine &eng = engines_[static_cast<std::size_t>(kv)];
        const KvCache &c = caches_[static_cast<std::size_t>(kv)];
        const float scale =
            logit_scales[static_cast<std::size_t>(kv)];
        return prompt_len < 0
            ? eng.stepGroup(c, q, kv * group, group, scale, out,
                            kv * group)
            : eng.prefillGroup(c, q, kv * group, group, qpos,
                               prompt_len, scale, out, kv * group);
    };
    // KV heads are fully independent (disjoint caches, engines, and
    // output rows), so they fan across the pool; the fold runs on the
    // caller in ascending KV-head order either way, keeping every
    // aggregate bit-identical for any thread count.
    if (pool && pool->threadCount() > 1 && cfg_.kv_heads > 1)
        return parallelReduceOrdered(*pool, cfg_.kv_heads, LayerStep{},
                                     headStep, foldStep);
    LayerStep acc;
    for (int kv = 0; kv < cfg_.kv_heads; kv++)
        foldStep(acc, headStep(kv));
    return acc;
}

LayerStep
LayerEngine::decode(const MatrixI8 &q,
                    std::span<const float> logit_scales, MatrixF &out,
                    ThreadPool *pool)
{
    PADE_CHECK_GT(tokens_, 0);
    return runHeads(q, logit_scales, out, pool, /*qpos=*/-1,
                    /*prompt_len=*/-1);
}

LayerStep
LayerEngine::prefillPosition(const MatrixI8 &q, int qpos,
                             int prompt_len,
                             std::span<const float> logit_scales,
                             MatrixF &out, ThreadPool *pool)
{
    PADE_CHECK_GE(qpos, 0);
    PADE_CHECK_LT(qpos, prompt_len);
    PADE_CHECK_GT(tokens_, qpos);
    return runHeads(q, logit_scales, out, pool, qpos, prompt_len);
}

LayerStep
LayerEngine::prefillPosition(const MatrixI8 &q, int qpos,
                             int prompt_len,
                             std::span<const float> logit_scales,
                             MatrixF &out, DecodeScratch &scratch,
                             std::span<PruneStats> stats) const
{
    PADE_CHECK_GE(qpos, 0);
    PADE_CHECK_LT(qpos, prompt_len);
    PADE_CHECK_GT(tokens_, qpos);
    checkRows(q, logit_scales, out);
    PADE_CHECK_EQ(static_cast<int>(stats.size()), cfg_.kv_heads);
    const int group = cfg_.groupSize();
    LayerStep acc;
    for (int kv = 0; kv < cfg_.kv_heads; kv++) {
        const auto k = static_cast<std::size_t>(kv);
        foldStep(acc, engines_[k].prefillGroup(
                          caches_[k], q, kv * group, group, qpos,
                          prompt_len, logit_scales[k], out, kv * group,
                          scratch, stats[k]));
    }
    return acc;
}

void
LayerEngine::addStats(std::span<const PruneStats> stats)
{
    PADE_CHECK_EQ(static_cast<int>(stats.size()), cfg_.kv_heads);
    for (int kv = 0; kv < cfg_.kv_heads; kv++)
        engines_[static_cast<std::size_t>(kv)].addStats(
            stats[static_cast<std::size_t>(kv)]);
}

void
LayerEngine::evict()
{
    for (int kv = 0; kv < cfg_.kv_heads; kv++)
        engines_[static_cast<std::size_t>(kv)].applyRetention(
            caches_[static_cast<std::size_t>(kv)]);
}

PruneStats
LayerEngine::stats() const
{
    PruneStats sum;
    for (const DecodeEngine &e : engines_)
        sum += e.stats();
    return sum;
}

std::size_t
LayerEngine::bytesUsed() const
{
    std::size_t bytes = 0;
    for (const KvCache &c : caches_)
        bytes += c.bytesUsed();
    return bytes;
}

} // namespace pade
