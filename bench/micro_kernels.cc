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
#include "core/pade_attention.h"
#include "core/rars.h"
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
        benchmark::DoNotOptimize(planes.popcount(0, 0));
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

void
BM_ExactDotSimd(benchmark::State &state)
{
    const int h = static_cast<int>(state.range(0));
    const QuantizedHead head = makeHead(1024, h);
    const QueryPlanes q(head.q.values.row(0));
    int j = 0;
    for (auto _ : state) {
        const int64_t d = exactDotSimd(q, head.k_planes, j);
        benchmark::DoNotOptimize(d);
        j = (j + 1) % 1024;
    }
    state.SetItemsProcessed(state.iterations() * h);
}
BENCHMARK(BM_ExactDotSimd)->Arg(128)->Arg(256)->Arg(512);

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
