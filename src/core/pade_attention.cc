#include "core/pade_attention.h"

#include <algorithm>

#include "common/check.h"
#include "core/guard_filter.h"
#include "runtime/thread_pool.h"

namespace pade {

std::vector<int>
istaScanOrder(int seq_len, int tile, bool head_tail)
{
    std::vector<int> order;
    istaScanOrderInto(seq_len, tile, head_tail, 0, 0, order);
    return order;
}

void
istaScanOrderInto(int seq_len, int tile, bool head_tail,
                  int sink_tokens, int window_start,
                  std::vector<int> &out)
{
    PADE_CHECK_GT(tile, 0);
    const int sink = std::clamp(sink_tokens, 0, seq_len);
    const int win = std::clamp(window_start, 0, seq_len);
    const int num_tiles = (seq_len + tile - 1) / tile;
    // Live tiles form a prefix [0, head_live) — tiles touching the
    // pinned sinks — plus a suffix [tail_live, num_tiles) — tiles
    // touching the recency window. Everything between is dead and the
    // walk below never visits it. When the ranges overlap
    // (tail_live < head_live) every tile is live.
    const int head_live = (sink + tile - 1) / tile;
    const int tail_live = win < seq_len ? win / tile : num_tiles;
    out.clear();
    const auto pushTile = [&](int t) {
        const int lo = t * tile;
        const int hi = std::min(seq_len, lo + tile);
        for (int j = lo; j < hi; j++)
            if (j < sink || j >= win)
                out.push_back(j);
    };
    if (!head_tail) {
        for (int t = 0; t < head_live; t++)
            pushTile(t);
        for (int t = std::max(head_live, tail_live); t < num_tiles; t++)
            pushTile(t);
        return;
    }
    // headTailOrder()'s interleave, walked directly so the order stays
    // allocation-free once `out` has capacity (the decode engine's
    // per-step contract). Live tiles keep their relative order, dead
    // tiles are skipped, and once both cursors sit in the dead middle
    // nothing further can be emitted.
    int head = 0;
    int tail = num_tiles - 1;
    bool take_head = true;
    while (head <= tail) {
        if (head >= head_live && tail < tail_live)
            break;
        const int t = take_head ? head++ : tail--;
        take_head = !take_head;
        if (t < head_live || t >= tail_live)
            pushTile(t);
    }
}

PadeResult
padeAttention(const QuantizedHead &head, const PadeConfig &cfg,
              PadeWorkspace *ws_in)
{
    const int p = head.q.values.rows();
    const int s = head.k.values.rows();
    const int h = head.v.values.cols();
    const int bits = head.k_planes.numPlanes();
    // planeWork's GSAT geometry, checked once per call: a zero
    // subgroup or mux count would divide by zero or loop forever.
    PADE_CHECK_GE(cfg.subgroup, 1);
    PADE_CHECK_LE(cfg.subgroup, 64);
    PADE_CHECK_GE(cfg.muxes, 1);
    // The 16-bit WorkPrefix running sums must not wrap.
    PADE_CHECK_LE(bits * head.k_planes.numCols(), kMaxWorkPrefixElems);
    // Final kernel decision: config request + PADE_QK_KERNEL override
    // + capability clamp (kSimd degrades to kPopcount off-AVX2).
    const QkKernel kernel = resolveQkKernel(cfg.qk_kernel);

    PadeWorkspace local_ws;
    PadeWorkspace &ws = ws_in ? *ws_in : local_ws;

    PadeResult res;
    res.out = MatrixF(p, h);
    res.keep = Matrix<uint8_t>(p, s);
    res.planes = Matrix<uint8_t>(p, s);
    res.retained.resize(p);

    const std::vector<int> order = istaScanOrder(s, cfg.tile_bc,
                                                 cfg.head_tail);

    // Per-(key, plane) work sums are query-independent: build the
    // whole table eagerly (one pass over the packed planes, parallel
    // across keys when the workspace carries a pool) so the per-query
    // loop below is a pure table lookup. A workspace that already
    // holds the table for these exact planes (pointer + revision +
    // GSAT geometry match) skips the rebuild entirely — the reuse the
    // GQA serving path depends on, where heads/kv_heads query heads
    // score one shared plane set back to back.
    const bool table_cached = ws.plane_work_src == &head.k_planes &&
        ws.plane_work_revision == head.k_planes.revision() &&
        ws.plane_work_subgroup == cfg.subgroup &&
        ws.plane_work_muxes == cfg.muxes;
    if (!table_cached) {
        ws.plane_work.resize(static_cast<size_t>(s) * bits);
        auto workRowFor = [&](int key) {
            workPrefixRow(head.k_planes, key, cfg.subgroup, cfg.muxes,
                          ws.plane_work.data() +
                              static_cast<size_t>(key) * bits);
        };
        if (ws.pool && ws.pool->threadCount() > 1) {
            parallelFor(*ws.pool, s, workRowFor);
        } else {
            for (int key = 0; key < s; key++)
                workRowFor(key);
        }
        ws.plane_work_src = &head.k_planes;
        ws.plane_work_revision = head.k_planes.revision();
        ws.plane_work_subgroup = cfg.subgroup;
        ws.plane_work_muxes = cfg.muxes;
        ws.plane_work_builds++;
    }

    const ScanPlan plan(kernel, bits, cfg.guard_enabled);
    ScanQuery &sq = ws.query;

    ws.tile_scores.resize(static_cast<size_t>(cfg.tile_bc));
    ws.tile_values.resize(static_cast<size_t>(cfg.tile_bc));
    for (int i = 0; i < p; i++) {
        sq.start(head.q.values.row(i), kernel, bits,
                 GuardFilter(cfg.alpha, cfg.radius, head.logit_scale),
                 res.planes.row(i).data(), res.keep.row(i).data());
        ws.group.bind({&sq, 1}, cfg.tile_bc);
        // Last visible key: causal queries occupy the last p positions
        // of the key sequence.
        const int last = cfg.causal ? s - p + i : s - 1;
        PruneStats st;
        withQkKernel(kernel, [&](auto k) {
            for (size_t o = 0; o < order.size();) {
                const int j = order[o];
                if (j > last) {
                    o++;
                    continue;
                }
                const int n = tileRun(order, o, cfg.tile_bc, last + 1);
                scanTile(k, plan, ws.group,
                         head.k_planes.rowPlanes(j).data(),
                         ws.plane_work.data() +
                             static_cast<size_t>(j) * bits,
                         j, n, st);
                o += static_cast<size_t>(n);
            }
        });
        st.threshold_updates = sq.guard.updates();
        res.stats += st;
        res.retained[i] = sq.retained;

        // ISTA value stage: online softmax over retained keys, tiled
        // by Bc in retained (scan) order, on the int8 V rows with the
        // dequantization scale applied per element (the floats
        // dequantize() would give). Retained scores are exact. All
        // buffers live in the workspace — no per-query allocation.
        ws.softmax.reset(h);
        const std::span<const int> ids(res.retained[i]);
        for (size_t base = 0; base < ids.size();
             base += static_cast<size_t>(cfg.tile_bc)) {
            const size_t hi = std::min(
                ids.size(), base + static_cast<size_t>(cfg.tile_bc));
            const size_t n = hi - base;
            for (size_t t = 0; t < n; t++) {
                ws.tile_scores[t] = head.logit_scale *
                    static_cast<float>(sq.scores[base + t]);
                ws.tile_values[t] = head.v.values.row(ids[base + t]);
            }
            ws.softmax.update(
                std::span<const float>(ws.tile_scores).first(n),
                std::span<const std::span<const int8_t>>(ws.tile_values)
                    .first(n),
                head.v.params.scale);
        }
        res.stats.max_updates += ws.softmax.maxUpdates();
        res.stats.rescale_ops += ws.softmax.rescaleOps();
        ws.softmax.finalizeInto(res.out.row(i));
    }
    return res;
}

} // namespace pade
