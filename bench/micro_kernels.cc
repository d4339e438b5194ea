/**
 * @file
 * google-benchmark microbenchmarks of the core kernels: bit-plane
 * decomposition, BUI table generation, bidirectional-sparsity plane
 * dot products, guard filtering, RARS scheduling, and the full fused
 * attention, so kernel-level regressions are visible independently of
 * the figure harnesses.
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/bit_serial.h"
#include "core/bui.h"
#include "core/guard_filter.h"
#include "core/guarded_scan.h"
#include "core/pade_attention.h"
#include "core/rars.h"
#include "core/simd/cpu_features.h"
#include "core/simd/qk_dispatch.h"
#include "core/simd/qk_simd.h"
#include "workload/generator.h"

namespace pade {
namespace {

QuantizedHead
makeHead(int s, int h)
{
    WorkloadSpec spec;
    spec.seq_len = s;
    spec.query_len = 8;
    spec.head_dim = h;
    spec.seed = 42;
    return quantizeHead(generateHead(spec));
}

void
BM_BitPlaneDecompose(benchmark::State &state)
{
    const int s = static_cast<int>(state.range(0));
    WorkloadSpec spec;
    spec.seq_len = s;
    spec.query_len = 1;
    spec.head_dim = 128;
    const AttentionHead head = generateHead(spec);
    const Quantized kq = quantizeSymmetric(head.k, 8);
    for (auto _ : state) {
        BitPlaneSet planes(kq.values, 8);
        benchmark::DoNotOptimize(planes.plane(0, 0)[0]);
    }
    state.SetItemsProcessed(state.iterations() * s);
}
BENCHMARK(BM_BitPlaneDecompose)->Arg(256)->Arg(2048);

void
BM_BuiTable(benchmark::State &state)
{
    const QuantizedHead head = makeHead(64, 128);
    for (auto _ : state) {
        const BuiTable t = computeBuiTable(head.q.values.row(0), 8);
        benchmark::DoNotOptimize(t.hi[0]);
    }
}
BENCHMARK(BM_BuiTable);

void
BM_PlaneDelta(benchmark::State &state)
{
    const QuantizedHead head = makeHead(1024, 128);
    const QueryPlanes q(head.q.values.row(0));
    int j = 0;
    for (auto _ : state) {
        const int64_t d = planeDelta(q, head.k_planes, j, 0);
        benchmark::DoNotOptimize(d);
        j = (j + 1) % 1024;
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_PlaneDelta);

void
BM_PlaneDeltaScalar(benchmark::State &state)
{
    const QuantizedHead head = makeHead(1024, 128);
    int j = 0;
    for (auto _ : state) {
        const int64_t d = planeDeltaScalar(head.q.values.row(0),
                                           head.k_planes, j, 0);
        benchmark::DoNotOptimize(d);
        j = (j + 1) % 1024;
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_PlaneDeltaScalar);

void
BM_ExactDot(benchmark::State &state)
{
    const QuantizedHead head = makeHead(1024, 128);
    const QueryPlanes q(head.q.values.row(0));
    int j = 0;
    for (auto _ : state) {
        const int64_t d = exactDot(q, head.k_planes, j);
        benchmark::DoNotOptimize(d);
        j = (j + 1) % 1024;
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_ExactDot);

void
BM_ExactDotScalar(benchmark::State &state)
{
    const QuantizedHead head = makeHead(1024, 128);
    int j = 0;
    for (auto _ : state) {
        const int64_t d = exactDotScalar(head.q.values.row(0),
                                         head.k_planes, j);
        benchmark::DoNotOptimize(d);
        j = (j + 1) % 1024;
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_ExactDotScalar);

/**
 * The key set and query group both BM_ScanTile variants scan: 2048
 * keys of 8-bit planes at @p head_dim, and a GQA group of 4 query
 * heads staged for kSimd at the default guard, with the ISTA order of
 * tiles of 16 keys, head-tail.
 */
struct ScanTileSetup
{
    static constexpr int kKeys = 2048;
    static constexpr int kHeads = 4;

    explicit ScanTileSetup(int head_dim)
        : head([head_dim] {
              WorkloadSpec spec;
              spec.seq_len = kKeys;
              spec.query_len = kHeads;
              spec.head_dim = head_dim;
              spec.seed = 42;
              return quantizeHead(generateHead(spec));
          }()),
          plan(QkKernel::kSimd, 8, cfg.guard_enabled),
          fresh(cfg.alpha, cfg.radius, head.logit_scale),
          order(istaScanOrder(kKeys, cfg.tile_bc, cfg.head_tail)),
          rows(kHeads)
    {
        for (int g = 0; g < kHeads; g++)
            rows[g].start(head.q.values.row(g), QkKernel::kSimd, 8, fresh,
                          nullptr, nullptr);
    }

    const PadeConfig cfg;
    const QuantizedHead head;
    const ScanPlan plan;
    const GuardFilter fresh;
    const std::vector<int> order;
    std::vector<ScanQuery> rows;
};

/**
 * The guarded scan's SIMD tile kernels, called directly: the
 * ScanTileSetup key set scanned by its group of 4 query heads, one
 * call per tile. Arg kernel 0 runs scanTileAvx512, 1 scanTileAvx2
 * (dispatch never picks AVX2 on an AVX-512 host, so this is where its
 * number comes from); arg head_dim 64 is one key plane word, 128 two.
 * Items are (key, head) pairs.
 */
void
BM_ScanTile(benchmark::State &state)
{
    const bool avx512 = state.range(0) == 0;
    const simd::CpuFeatures &f = simd::cpuFeatures();
    if (!qkSimdAvailable() ||
        (avx512 && !(f.avx512f && f.avx512bw && f.os_zmm))) {
        state.SkipWithError("tile kernel not supported on this CPU");
        return;
    }
    const simd::TileKernel kernel =
        avx512 ? &simd::scanTileAvx512 : &simd::scanTileAvx2;
    ScanTileSetup su(static_cast<int>(state.range(1)));
    std::vector<simd::TileRow> views;
    for (ScanQuery &sq : su.rows)
        views.push_back(sq.tileRow());
    const int tile = su.cfg.tile_bc;
    std::vector<KeyScore> out(static_cast<std::size_t>(tile) *
                              ScanTileSetup::kHeads);
    for (auto _ : state) {
        for (ScanQuery &sq : su.rows)
            sq.guard = su.fresh;
        for (std::size_t o = 0; o < su.order.size();
             o += static_cast<std::size_t>(tile))
            kernel({su.head.k_planes.rowPlanes(su.order[o]).data(), 8, 8,
                    tile, su.plan.prune},
                   views, out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * ScanTileSetup::kKeys *
                            ScanTileSetup::kHeads);
}
BENCHMARK(BM_ScanTile)
    ->ArgNames({"kernel", "head_dim"})
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 128})
    ->Args({1, 128});

/**
 * BM_ScanTile as the decode step pays it: scanTile() with the CPU's
 * tile kernel through a ScanGroup of the 4 heads, booking every
 * (key, head) outcome from per-key WorkPrefix rows into planes and
 * keep rows, retained lists and PruneStats, as DecodeEngine does.
 * Each iteration restages the rows (ScanQuery::start), as a decode
 * step does. Items are (key, head) pairs.
 */
void
BM_ScanTileBooked(benchmark::State &state)
{
    if (!qkSimdAvailable()) {
        state.SkipWithError("kSimd not available on this CPU");
        return;
    }
    ScanTileSetup su(static_cast<int>(state.range(0)));
    const int keys = ScanTileSetup::kKeys;
    std::vector<WorkPrefix> work(static_cast<std::size_t>(keys) * 8);
    for (int j = 0; j < keys; j++)
        workPrefixRow(su.head.k_planes, j, su.cfg.subgroup, su.cfg.muxes,
                      work.data() + static_cast<std::size_t>(j) * 8);
    std::vector<std::vector<uint8_t>> planes(
        ScanTileSetup::kHeads, std::vector<uint8_t>(keys));
    std::vector<std::vector<uint8_t>> keep(ScanTileSetup::kHeads,
                                           std::vector<uint8_t>(keys));
    ScanGroup group;
    PruneStats st;
    const int tile = su.cfg.tile_bc;
    for (auto _ : state) {
        for (int g = 0; g < ScanTileSetup::kHeads; g++)
            su.rows[g].start(su.head.q.values.row(g), QkKernel::kSimd, 8,
                             su.fresh, planes[g].data(), keep[g].data());
        group.bind(su.rows, tile);
        for (std::size_t o = 0; o < su.order.size();) {
            const int j = su.order[o];
            const int n = tileRun(su.order, o, tile, keys);
            scanTile(QkKernelTag<QkKernel::kSimd>{}, su.plan, group,
                     su.head.k_planes.rowPlanes(j).data(),
                     work.data() + static_cast<std::size_t>(j) * 8, j, n,
                     st);
            o += static_cast<std::size_t>(n);
        }
        benchmark::DoNotOptimize(st);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * keys *
                            ScanTileSetup::kHeads);
}
BENCHMARK(BM_ScanTileBooked)->ArgName("head_dim")->Arg(64)->Arg(128);

void
BM_PlaneDeltaBs(benchmark::State &state)
{
    const QuantizedHead head = makeHead(1024, 128);
    int j = 0;
    for (auto _ : state) {
        const int64_t d = planeDeltaBs(head.q.values.row(0),
                                       head.k_planes, j, 0, 8);
        benchmark::DoNotOptimize(d);
        j = (j + 1) % 1024;
    }
}
BENCHMARK(BM_PlaneDeltaBs);

void
BM_GuardFilter(benchmark::State &state)
{
    GuardFilter g(0.55, 5.0, 1e-4);
    int64_t lb = -1000000;
    for (auto _ : state) {
        g.observe(lb);
        benchmark::DoNotOptimize(g.shouldPrune(lb + 1000));
        lb += 17;
    }
}
BENCHMARK(BM_GuardFilter);

void
BM_RarsSchedule(benchmark::State &state)
{
    const int scores = static_cast<int>(state.range(0));
    Rng rng(7);
    std::vector<std::vector<int>> needs(scores);
    for (auto &n : needs)
        for (int v = 0; v < 64; v++)
            if (rng.bernoulli(0.3))
                n.push_back(v);
    for (auto _ : state) {
        const RarsSchedule sched = scheduleRars(needs, 2);
        benchmark::DoNotOptimize(sched.loads);
    }
}
BENCHMARK(BM_RarsSchedule)->Arg(8)->Arg(32);

/**
 * Batch padeAttention of one head_dim 128 head (8 queries) under each
 * QK kernel: the default (kSimd where the CPU has AVX2, else
 * kPopcount), kScalar and kPopcount. Items are (key, query) pairs.
 */
void
BM_PadeAttention(benchmark::State &state)
{
    const int s = static_cast<int>(state.range(0));
    const QuantizedHead head = makeHead(s, 128);
    PadeWorkspace ws;
    for (auto _ : state) {
        const PadeResult res = padeAttention(head, {}, &ws);
        benchmark::DoNotOptimize(res.stats.keys_retained);
    }
    state.SetItemsProcessed(state.iterations() * s * 8);
}
BENCHMARK(BM_PadeAttention)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void
BM_PadeAttentionScalarKernel(benchmark::State &state)
{
    const int s = static_cast<int>(state.range(0));
    const QuantizedHead head = makeHead(s, 128);
    PadeConfig cfg;
    cfg.qk_kernel = QkKernel::kScalar;
    PadeWorkspace ws;
    for (auto _ : state) {
        const PadeResult res = padeAttention(head, cfg, &ws);
        benchmark::DoNotOptimize(res.stats.keys_retained);
    }
    state.SetItemsProcessed(state.iterations() * s * 8);
}
BENCHMARK(BM_PadeAttentionScalarKernel)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void
BM_PadeAttentionPopcountKernel(benchmark::State &state)
{
    const int s = static_cast<int>(state.range(0));
    const QuantizedHead head = makeHead(s, 128);
    PadeConfig cfg;
    cfg.qk_kernel = QkKernel::kPopcount;
    PadeWorkspace ws;
    for (auto _ : state) {
        const PadeResult res = padeAttention(head, cfg, &ws);
        benchmark::DoNotOptimize(res.stats.keys_retained);
    }
    state.SetItemsProcessed(state.iterations() * s * 8);
}
BENCHMARK(BM_PadeAttentionPopcountKernel)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace pade

BENCHMARK_MAIN();
