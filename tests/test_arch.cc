/**
 * @file
 * Integration tests for the cycle-level PADE accelerator: metric
 * sanity, mechanism-toggle monotonicity, layout effects, and metric
 * scaling.
 */

#include <gtest/gtest.h>

#include "arch/pade_accelerator.h"
#include "workload/generator.h"

namespace pade {
namespace {

QuantizedHead
head(int s = 512, int h = 64, uint64_t seed = 1, int p = 8)
{
    WorkloadSpec spec;
    spec.seq_len = s;
    spec.query_len = p;
    spec.head_dim = h;
    spec.concentration = 1.25;
    spec.locality = 0.6;
    spec.seed = seed;
    return quantizeHead(generateHead(spec));
}

TEST(Accelerator, MetricsSanity)
{
    PadeAccelerator accel;
    const RunMetrics m = accel.runHead(head());
    EXPECT_GT(m.cycles, 0.0);
    EXPECT_GT(m.time_ns, 0.0);
    EXPECT_GT(m.qk_cycles, 0.0);
    EXPECT_GT(m.v_cycles, 0.0);
    EXPECT_GT(m.useful_ops, 0.0);
    EXPECT_GT(m.dram_bytes, 0u);
    EXPECT_GT(m.energy.compute_pj, 0.0);
    EXPECT_GT(m.energy.sram_pj, 0.0);
    EXPECT_GT(m.energy.dram_pj, 0.0);
    EXPECT_GT(m.utilization, 0.0);
    EXPECT_LE(m.utilization, 1.0);
    EXPECT_GT(m.row_hit_rate, 0.0);
    EXPECT_GT(m.gopsPerW(), 0.0);
}

TEST(AcceleratorDeathTest, InvalidGsatGeometryAbortsInEveryBuild)
{
    // A subgroup outside [1, 64] or zero muxes used to die with
    // SIGFPE or hang in the simulated QK-PU's planeWork loop in
    // Release builds, where its assert is compiled out. PADE_CHECKs
    // refuse them once per call.
    const QuantizedHead qh = head(256, 64, 20, 2);
    const auto run = [&qh](auto edit) {
        ArchConfig cfg;
        edit(cfg);
        return PadeAccelerator(cfg).runHead(qh);
    };
    EXPECT_DEATH(run([](ArchConfig &c) { c.subgroup = 0; }),
                 "PADE_CHECK.*subgroup");
    EXPECT_DEATH(run([](ArchConfig &c) { c.subgroup = 65; }),
                 "PADE_CHECK.*subgroup");
    EXPECT_DEATH(run([](ArchConfig &c) { c.muxes = 0; }),
                 "PADE_CHECK.*muxes");
    // The boundary values themselves are valid.
    const RunMetrics edge = run([](ArchConfig &c) {
        c.subgroup = 64;
        c.muxes = 1;
    });
    EXPECT_GT(edge.cycles, 0.0);
}

TEST(Accelerator, GuardReducesWorkAndTraffic)
{
    ArchConfig dense;
    dense.enable_guard = false;
    ArchConfig sparse;
    sparse.enable_guard = true;
    const auto h1 = head();
    const RunMetrics md = PadeAccelerator(dense).runHead(h1);
    const RunMetrics ms = PadeAccelerator(sparse).runHead(h1);
    EXPECT_LT(ms.dram_bytes, md.dram_bytes);
    EXPECT_LT(ms.time_ns, md.time_ns);
    EXPECT_LT(ms.energy.total(), md.energy.total());
    EXPECT_LT(ms.prune.keys_retained, ms.prune.keys_total);
}

TEST(Accelerator, OoeHidesLatency)
{
    ArchConfig in_order;
    in_order.enable_ooe = false;
    ArchConfig ooe;
    ooe.enable_ooe = true;
    const auto h1 = head();
    const RunMetrics mi = PadeAccelerator(in_order).runHead(h1);
    const RunMetrics mo = PadeAccelerator(ooe).runHead(h1);
    EXPECT_LT(mo.qk_cycles, mi.qk_cycles);
    EXPECT_LT(mo.dram_stall_cycles, mi.dram_stall_cycles);
    EXPECT_GT(mo.utilization, mi.utilization);
}

TEST(Accelerator, ResultReuseCutsDramTraffic)
{
    ArchConfig reuse;
    ArchConfig no_reuse;
    no_reuse.result_reuse = false;
    const auto h1 = head();
    const RunMetrics mr = PadeAccelerator(reuse).runHead(h1);
    const RunMetrics mn = PadeAccelerator(no_reuse).runHead(h1);
    EXPECT_LT(mr.dram_bytes, mn.dram_bytes);
    EXPECT_LT(mr.energy.dram_pj, mn.energy.dram_pj);
}

TEST(Accelerator, BsNeverSlower)
{
    ArchConfig with_bs;
    ArchConfig no_bs;
    no_bs.enable_bs = false;
    const auto h1 = head();
    const RunMetrics mb = PadeAccelerator(with_bs).runHead(h1);
    const RunMetrics mn = PadeAccelerator(no_bs).runHead(h1);
    EXPECT_LE(mb.busy_cycles, mn.busy_cycles);
    EXPECT_LE(mb.intra_pe_stall_cycles, mn.intra_pe_stall_cycles);
}

TEST(Accelerator, BitPlaneLayoutBeatsValueMajor)
{
    ArchConfig plane;
    plane.k_layout = KLayout::BitPlaneInterleaved;
    ArchConfig value;
    value.k_layout = KLayout::ValueMajor;
    const auto h1 = head(4096, 128);
    const RunMetrics mp = PadeAccelerator(plane).runHead(h1);
    const RunMetrics mv = PadeAccelerator(value).runHead(h1);
    EXPECT_GT(mp.row_hit_rate, mv.row_hit_rate);
    // Time advantage depends on how memory-bound the run is; it must
    // at least not regress materially.
    EXPECT_LE(mp.time_ns, 1.1 * mv.time_ns);
}

TEST(Accelerator, RarsReducesVLoads)
{
    ArchConfig with;
    ArchConfig without;
    without.enable_rars = false;
    const auto h1 = head();
    const RunMetrics mw = PadeAccelerator(with).runHead(h1);
    const RunMetrics mo = PadeAccelerator(without).runHead(h1);
    EXPECT_LE(mw.dram_bytes, mo.dram_bytes);
}

TEST(Accelerator, IstaOverlapsValueStage)
{
    ArchConfig with;
    ArchConfig without;
    without.enable_ista = false;
    const auto h1 = head(2048, 128);
    const RunMetrics mw = PadeAccelerator(with).runHead(h1);
    const RunMetrics mo = PadeAccelerator(without).runHead(h1);
    EXPECT_LT(mw.time_ns, mo.time_ns);
}

TEST(Accelerator, DecodeModeStreamsPerRow)
{
    ArchConfig prefill;
    ArchConfig decode;
    decode.shared_k = false;
    // Decode: one query row.
    const auto h1 = head(512, 64, 3, 1);
    const RunMetrics mp = PadeAccelerator(prefill).runHead(h1);
    const RunMetrics md = PadeAccelerator(decode).runHead(h1);
    // Same single-row workload; both must complete with traffic.
    EXPECT_GT(md.dram_bytes, 0u);
    EXPECT_GT(mp.dram_bytes, 0u);
}

TEST(Accelerator, ScaledMultipliesExtensives)
{
    PadeAccelerator accel;
    const RunMetrics m = accel.runHead(head());
    const RunMetrics m2 = m.scaled(3.0);
    EXPECT_DOUBLE_EQ(m2.time_ns, 3.0 * m.time_ns);
    EXPECT_DOUBLE_EQ(m2.useful_ops, 3.0 * m.useful_ops);
    EXPECT_NEAR(m2.energy.total(), 3.0 * m.energy.total(), 1e-6);
    EXPECT_EQ(m2.dram_bytes, 3 * m.dram_bytes);
    // Efficiency is intensive: unchanged by scaling.
    EXPECT_NEAR(m2.gopsPerW(), m.gopsPerW(), 1e-9);
}

TEST(Accelerator, EnergyBucketsConsistent)
{
    PadeAccelerator accel;
    const RunMetrics m = accel.runHead(head());
    double module_sum = 0.0;
    for (const auto &kv : m.energy.modules)
        module_sum += kv.second;
    EXPECT_NEAR(module_sum, m.energy.total(), 1e-6 * m.energy.total());
}

TEST(Accelerator, SmallerScoreboardStallsMore)
{
    ArchConfig big;
    big.scoreboard_entries = 32;
    ArchConfig small;
    small.scoreboard_entries = 2;
    const auto h1 = head(1024);
    const RunMetrics mb = PadeAccelerator(big).runHead(h1);
    const RunMetrics ms = PadeAccelerator(small).runHead(h1);
    EXPECT_LE(mb.qk_cycles, ms.qk_cycles);
    EXPECT_GE(ms.dram_stall_cycles, mb.dram_stall_cycles);
}

/** Sweep alpha through the accelerator: traffic falls monotonically. */
class ArchAlphaTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ArchAlphaTest, TrafficBoundedByDense)
{
    ArchConfig cfg;
    cfg.algo.alpha = GetParam();
    const RunMetrics m = PadeAccelerator(cfg).runHead(head());
    ArchConfig dense;
    dense.enable_guard = false;
    const RunMetrics md = PadeAccelerator(dense).runHead(head());
    EXPECT_LE(m.dram_bytes, md.dram_bytes);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ArchAlphaTest,
                         ::testing::Values(0.2, 0.55, 1.0));

} // namespace
} // namespace pade
