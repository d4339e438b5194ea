/**
 * @file
 * Cross-module integration sweeps: the full pipeline (generator ->
 * quantization -> fused attention -> cycle simulator) must uphold its
 * invariants across seeds, models, sequence lengths and bit-widths.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "arch/pade_accelerator.h"
#include "attention/metrics.h"
#include "attention/reference.h"
#include "core/pade_attention.h"
#include "workload/generator.h"

namespace pade {
namespace {

struct SweepParam
{
    uint64_t seed;
    int seq;
    int head_dim;
    int bits;
};

/**
 * Names a case in test IDs, which carry the printed GetParam() (CTest
 * lists ".../seq512_hd128_b8"). Without it gtest prints the struct's
 * raw bytes, padding included, so the IDs differ between builds.
 */
void
PrintTo(const SweepParam &p, std::ostream *os)
{
    *os << "seq" << p.seq << "_hd" << p.head_dim << "_b" << p.bits;
}

class PipelineSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(PipelineSweep, EndToEndInvariants)
{
    const SweepParam p = GetParam();
    WorkloadSpec spec;
    spec.seq_len = p.seq;
    spec.query_len = 8;
    spec.head_dim = p.head_dim;
    spec.concentration = 1.25;
    spec.locality = 0.6;
    spec.seed = p.seed;

    const AttentionHead head = generateHead(spec);
    const QuantizedHead qh = quantizeHead(head, p.bits);

    PadeConfig cfg;
    cfg.alpha = 0.7;
    cfg.radius = 10.0;
    const PadeResult res = padeAttention(qh, cfg);

    // 1. Exactness: output == masked attention on dequantized ops.
    const MatrixF ref = maskedAttention(dequantize(qh.q),
                                        dequantize(qh.k),
                                        dequantize(qh.v), head.scale,
                                        res.keep);
    ASSERT_LT(relativeError(res.out, ref), 1e-4)
        << "seed=" << p.seed << " seq=" << p.seq;

    // 2. Every row keeps its argmax key (never prunes the max).
    const MatrixF logits = attentionLogits(head.q, head.k, head.scale);
    for (int i = 0; i < logits.rows(); i++) {
        int argmax = 0;
        for (int j = 1; j < logits.cols(); j++)
            if (logits.at(i, j) > logits.at(i, argmax))
                argmax = j;
        // The INT-domain argmax can differ by quantization at the
        // very top; accept keeping either the FP argmax or a key
        // within one quantization step of it.
        if (!res.keep.at(i, argmax)) {
            float best_kept = -1e30f;
            for (int j = 0; j < logits.cols(); j++)
                if (res.keep.at(i, j))
                    best_kept = std::max(best_kept, logits.at(i, j));
            EXPECT_GT(best_kept,
                      logits.at(i, argmax) - 0.5f)
                << "row " << i;
        }
    }

    // 3. Work accounting bounds.
    EXPECT_LE(res.stats.planes_processed, res.stats.planes_total);
    EXPECT_LE(res.stats.ops_bs, res.stats.ops_naive);
    EXPECT_LE(res.stats.keys_retained, res.stats.keys_total);

    // 4. Cycle simulator consumes the same workload coherently.
    ArchConfig arch;
    arch.algo = cfg;
    const RunMetrics m = PadeAccelerator(arch).runHead(qh);
    EXPECT_GT(m.time_ns, 0.0);
    EXPECT_GT(m.dram_bytes, 0u);
    // Traffic never exceeds a dense stream of K planes (+slack for V,
    // outputs, and burst rounding).
    const double dense_k = static_cast<double>(p.seq) * p.bits *
        qh.k_planes.planeBytes();
    const double v_all = static_cast<double>(p.seq) * p.head_dim;
    EXPECT_LT(static_cast<double>(m.dram_bytes),
              1.3 * (dense_k + v_all) + 65536.0);
    // Energy buckets are all populated and finite.
    EXPECT_GT(m.energy.compute_pj, 0.0);
    EXPECT_GT(m.energy.dram_pj, 0.0);
    EXPECT_TRUE(std::isfinite(m.energy.total()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineSweep,
    ::testing::Values(SweepParam{1, 256, 64, 8},
                      SweepParam{2, 512, 64, 8},
                      SweepParam{3, 512, 128, 8},
                      SweepParam{4, 1024, 128, 8},
                      SweepParam{5, 256, 64, 4},
                      SweepParam{6, 512, 128, 4},
                      SweepParam{7, 333, 96, 8},
                      SweepParam{8, 1024, 64, 6}));

TEST(Integration, DeterministicAcrossRuns)
{
    WorkloadSpec spec;
    spec.seq_len = 512;
    spec.seed = 99;
    const QuantizedHead qh = quantizeHead(generateHead(spec));
    const PadeResult a = padeAttention(qh);
    const PadeResult b = padeAttention(qh);
    EXPECT_TRUE(a.keep == b.keep);
    EXPECT_EQ(a.stats.planes_processed, b.stats.planes_processed);
    const RunMetrics m1 = PadeAccelerator().runHead(qh);
    const RunMetrics m2 = PadeAccelerator().runHead(qh);
    EXPECT_DOUBLE_EQ(m1.time_ns, m2.time_ns);
    EXPECT_DOUBLE_EQ(m1.energy.total(), m2.energy.total());
}

TEST(Integration, MoreAggressiveNeverCostsMore)
{
    WorkloadSpec spec;
    spec.seq_len = 1024;
    spec.seed = 7;
    const QuantizedHead qh = quantizeHead(generateHead(spec));
    double prev_bytes = 1e18;
    for (double alpha : {1.0, 0.6, 0.2}) {
        ArchConfig arch;
        arch.algo.alpha = alpha;
        arch.algo.radius = 10.0;
        const RunMetrics m = PadeAccelerator(arch).runHead(qh);
        EXPECT_LE(static_cast<double>(m.dram_bytes),
                  prev_bytes * 1.01)
            << "alpha=" << alpha;
        prev_bytes = static_cast<double>(m.dram_bytes);
    }
}

} // namespace
} // namespace pade
