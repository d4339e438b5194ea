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
 * The guarded scan's SIMD tile kernels, called directly: one
 * 2048-key, head_dim 64, 8-bit key set scanned by a GQA group of 4
 * query heads in ISTA tiles of 16 keys, head-tail order, at the
 * default guard. Arg 0 runs scanTileAvx512, arg 1 scanTileAvx2
 * (dispatch never picks AVX2 on an AVX-512 host, so this is where its
 * number comes from). Items are (key, head) pairs.
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
    constexpr int kKeys = 2048;
    constexpr int kHeads = 4;
    const PadeConfig cfg;
    WorkloadSpec spec;
    spec.seq_len = kKeys;
    spec.query_len = kHeads;
    spec.head_dim = 64;
    spec.seed = 42;
    const QuantizedHead head = quantizeHead(generateHead(spec));
    const ScanPlan plan(QkKernel::kSimd, 8, cfg.guard_enabled);
    const GuardFilter fresh(cfg.alpha, cfg.radius, head.logit_scale);
    std::vector<ScanQuery> rows(kHeads);
    std::vector<simd::TileRow> views;
    for (int g = 0; g < kHeads; g++) {
        rows[g].start(head.q.values.row(g), QkKernel::kSimd, 8, fresh,
                      nullptr, nullptr);
        views.push_back(rows[g].tileRow());
    }
    const std::vector<int> order =
        istaScanOrder(kKeys, cfg.tile_bc, cfg.head_tail);
    std::vector<KeyScore> out(
        static_cast<std::size_t>(cfg.tile_bc) * kHeads);
    for (auto _ : state) {
        for (ScanQuery &sq : rows)
            sq.guard = fresh;
        for (std::size_t o = 0; o < order.size();
             o += static_cast<std::size_t>(cfg.tile_bc))
            kernel({head.k_planes.rowPlanes(order[o]).data(), 8, 8,
                    cfg.tile_bc, plan.prune},
                   views, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * kKeys * kHeads);
}
BENCHMARK(BM_ScanTile)->Arg(0)->Arg(1);

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
BM_PadeAttentionSimdKernel(benchmark::State &state)
{
    const int s = static_cast<int>(state.range(0));
    const QuantizedHead head = makeHead(s, 128);
    PadeConfig cfg;
    cfg.qk_kernel = QkKernel::kSimd; // resolves to popcount off-AVX2
    PadeWorkspace ws;
    for (auto _ : state) {
        const PadeResult res = padeAttention(head, cfg, &ws);
        benchmark::DoNotOptimize(res.stats.keys_retained);
    }
    state.SetItemsProcessed(state.iterations() * s * 8);
}
BENCHMARK(BM_PadeAttentionSimdKernel)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace pade

BENCHMARK_MAIN();
