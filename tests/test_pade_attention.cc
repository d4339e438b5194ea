/**
 * @file
 * Integration tests for the functional PADE sparse attention (BSF +
 * BUI-GF + ISTA).
 */

#include <gtest/gtest.h>

#include "attention/metrics.h"
#include "attention/online_softmax.h"
#include "attention/reference.h"
#include "core/pade_attention.h"
#include "runtime/thread_pool.h"
#include "workload/generator.h"

namespace pade {
namespace {

WorkloadSpec
smallSpec(uint64_t seed = 1)
{
    WorkloadSpec spec;
    spec.seq_len = 256;
    spec.query_len = 4;
    spec.head_dim = 64;
    spec.concentration = 1.25;
    spec.locality = 0.6;
    spec.seed = seed;
    return spec;
}

TEST(ScanOrder, PermutationProperty)
{
    for (bool ht : {false, true}) {
        const auto order = istaScanOrder(100, 16, ht);
        ASSERT_EQ(order.size(), 100u);
        std::vector<bool> seen(100, false);
        for (int j : order) {
            ASSERT_GE(j, 0);
            ASSERT_LT(j, 100);
            EXPECT_FALSE(seen[j]);
            seen[j] = true;
        }
    }
}

TEST(ScanOrder, NaturalWhenDisabled)
{
    const auto order = istaScanOrder(32, 8, false);
    for (int j = 0; j < 32; j++)
        EXPECT_EQ(order[j], j);
}

TEST(ScanOrder, HeadTailVisitsLastTileSecond)
{
    const auto order = istaScanOrder(64, 16, true);
    // First tile: keys 0..15; second visited tile: keys 48..63.
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[16], 48);
}

TEST(PadeAttentionDeathTest, InvalidConfigAbortsInEveryBuild)
{
    // A zero or negative tile, a subgroup outside [1, 64] or zero
    // muxes used to crash (SIGFPE, std::length_error) or hang (a
    // planeWork loop stepping by 0) in Release builds, where the
    // asserts are compiled out. PADE_CHECKs refuse them once per call.
    WorkloadSpec spec;
    spec.seq_len = 256;
    spec.query_len = 2;
    spec.head_dim = 64;
    spec.seed = 20;
    const QuantizedHead head = quantizeHead(generateHead(spec), 8);
    const auto run = [&head](auto edit) {
        PadeConfig cfg;
        edit(cfg);
        return padeAttention(head, cfg);
    };
    EXPECT_DEATH(run([](PadeConfig &c) { c.tile_bc = 0; }),
                 "PADE_CHECK.*tile");
    EXPECT_DEATH(run([](PadeConfig &c) { c.tile_bc = -4; }),
                 "PADE_CHECK.*tile");
    EXPECT_DEATH(run([](PadeConfig &c) { c.subgroup = 0; }),
                 "PADE_CHECK.*subgroup");
    EXPECT_DEATH(run([](PadeConfig &c) { c.subgroup = 65; }),
                 "PADE_CHECK.*subgroup");
    EXPECT_DEATH(run([](PadeConfig &c) { c.muxes = 0; }),
                 "PADE_CHECK.*muxes");
    // The boundary values themselves are valid.
    const PadeResult edge = run([](PadeConfig &c) {
        c.tile_bc = 1;
        c.subgroup = 64;
        c.muxes = 1;
    });
    EXPECT_EQ(edge.out.rows(), 2);

    // The 16-bit WorkPrefix running sums cap bits * head_dim at
    // kMaxWorkPrefixElems (65535): an 8-bit head_dim of 8192 is one
    // element past it. At the cap (5 bits, head_dim 13107) every
    // plane of an all-ones key selects head_dim elements ones-only,
    // so a dense scan books exactly 65535 per key, unwrapped.
    const auto allOnesHead = [](int head_dim, int bits) {
        MatrixI8 q(1, head_dim);
        MatrixI8 k(4, head_dim);
        for (int c = 0; c < head_dim; c++) {
            q.at(0, c) = 1;
            for (int r = 0; r < 4; r++)
                k.at(r, c) = -1;
        }
        return QuantizedHead(Quantized{std::move(q), {}},
                             Quantized{std::move(k), {}},
                             Quantized{MatrixI8(4, head_dim), {}}, bits,
                             1.0f);
    };
    EXPECT_DEATH(padeAttention(allOnesHead(8192, 8)),
                 "PADE_CHECK.*kMaxWorkPrefixElems");
    const QuantizedHead at_cap = allOnesHead(13107, 5);
    for (QkKernel k :
         {QkKernel::kScalar, QkKernel::kPopcount, QkKernel::kSimd}) {
        PadeConfig dense;
        dense.guard_enabled = false;
        dense.qk_kernel = k;
        const PadeResult res = padeAttention(at_cap, dense);
        EXPECT_EQ(res.stats.ops_naive, 4u * 65535u);
        EXPECT_EQ(res.stats.ops_bs, 0u); // every sub-group is 0-mode
    }
}

TEST(PadeAttention, GuardDisabledKeepsEverything)
{
    const QuantizedHead head = quantizeHead(generateHead(smallSpec()));
    PadeConfig cfg;
    cfg.guard_enabled = false;
    const PadeResult res = padeAttention(head, cfg);
    EXPECT_EQ(res.stats.keys_retained, res.stats.keys_total);
    EXPECT_EQ(res.stats.planes_processed, res.stats.planes_total);
    EXPECT_DOUBLE_EQ(prunedFraction(res.keep), 0.0);
}

TEST(PadeAttention, GuardDisabledMatchesDenseInt8)
{
    // With no pruning, PADE output must equal dense attention computed
    // over the same quantized operands.
    const AttentionHead head = generateHead(smallSpec(2));
    const QuantizedHead qh = quantizeHead(head);
    PadeConfig cfg;
    cfg.guard_enabled = false;
    const PadeResult res = padeAttention(qh, cfg);

    const MatrixF qf = dequantize(qh.q);
    const MatrixF kf = dequantize(qh.k);
    const MatrixF vf = dequantize(qh.v);
    const MatrixF ref = denseAttention(qf, kf, vf, head.scale);
    EXPECT_LT(relativeError(res.out, ref), 1e-4);
}

TEST(PadeAttention, OutputMatchesMaskedOracle)
{
    // Retained scores are exact, so the output must equal masked
    // attention under the produced keep mask.
    const AttentionHead head = generateHead(smallSpec(3));
    const QuantizedHead qh = quantizeHead(head);
    const PadeResult res = padeAttention(qh);

    const MatrixF qf = dequantize(qh.q);
    const MatrixF kf = dequantize(qh.k);
    const MatrixF vf = dequantize(qh.v);
    const MatrixF ref = maskedAttention(qf, kf, vf, head.scale,
                                        res.keep);
    EXPECT_LT(relativeError(res.out, ref), 1e-4);
}

TEST(PadeAttention, AtLeastOneKeyRetainedPerRow)
{
    // The argmax key can never be pruned (its upper bound stays above
    // any threshold derived from lower bounds).
    for (uint64_t seed = 1; seed <= 8; seed++) {
        const QuantizedHead head =
            quantizeHead(generateHead(smallSpec(seed)));
        PadeConfig cfg;
        cfg.alpha = 0.0; // most aggressive
        const PadeResult res = padeAttention(head, cfg);
        for (const auto &row : res.retained)
            EXPECT_GE(row.size(), 1u);
    }
}

TEST(PadeAttention, PrunesOnSpikyWorkload)
{
    const QuantizedHead head = quantizeHead(generateHead(smallSpec(4)));
    const PadeResult res = padeAttention(head);
    EXPECT_LT(res.stats.keepRate(), 0.9);
    EXPECT_GT(res.stats.planeReduction(), 0.2);
}

TEST(PadeAttention, RetainedMassHighAtDefaults)
{
    // Paper defaults (radius 5, alpha 0.55) land near the "1% loss"
    // aggressive point on continuum workloads.
    const AttentionHead head = generateHead(smallSpec(5));
    const QuantizedHead qh = quantizeHead(head);
    const PadeResult res = padeAttention(qh);
    const MatrixF logits = attentionLogits(head.q, head.k, head.scale);
    EXPECT_GT(retainedMass(logits, res.keep), 0.85);
}

TEST(PadeAttention, WideGuardReachesLosslessMass)
{
    // A wider guard band (margin = alpha * radius = 10 logits)
    // realizes the paper's "standard" ~0%-loss operating point. Use a
    // longer sequence: exploitable sparsity grows with length.
    WorkloadSpec spec = smallSpec(5);
    spec.seq_len = 1024;
    const AttentionHead head = generateHead(spec);
    const QuantizedHead qh = quantizeHead(head);
    PadeConfig cfg;
    cfg.alpha = 1.0;
    cfg.radius = 10.0;
    const PadeResult res = padeAttention(qh, cfg);
    const MatrixF logits = attentionLogits(head.q, head.k, head.scale);
    EXPECT_GT(retainedMass(logits, res.keep), 0.995);
    // And it still prunes a meaningful fraction of the pair space.
    EXPECT_LT(res.stats.keepRate(), 0.8);
}

TEST(PadeAttention, AlphaMonotonicity)
{
    const QuantizedHead head = quantizeHead(generateHead(smallSpec(6)));
    uint64_t prev_retained = 0;
    for (double alpha : {0.0, 0.3, 0.6, 1.0}) {
        PadeConfig cfg;
        cfg.alpha = alpha;
        const PadeResult res = padeAttention(head, cfg);
        EXPECT_GE(res.stats.keys_retained, prev_retained)
            << "alpha=" << alpha;
        prev_retained = res.stats.keys_retained;
    }
}

TEST(PadeAttention, StatsConsistency)
{
    const QuantizedHead head = quantizeHead(generateHead(smallSpec(7)));
    const PadeResult res = padeAttention(head);

    uint64_t kept = 0;
    uint64_t planes = 0;
    for (int i = 0; i < res.keep.rows(); i++) {
        for (int j = 0; j < res.keep.cols(); j++) {
            kept += res.keep.at(i, j);
            planes += res.planes.at(i, j);
            if (res.keep.at(i, j)) {
                EXPECT_EQ(res.planes.at(i, j), 8);
            }
            if (res.planes.at(i, j) == 0) {
                EXPECT_EQ(res.keep.at(i, j), 0);
            }
        }
    }
    EXPECT_EQ(kept, res.stats.keys_retained);
    EXPECT_EQ(planes, res.stats.planes_processed);
    EXPECT_EQ(res.stats.keys_total,
              static_cast<uint64_t>(res.keep.rows()) *
              res.keep.cols());
    EXPECT_LE(res.stats.ops_bs, res.stats.ops_naive +
              res.stats.planes_processed);
}

TEST(PadeAttention, CausalMasksFutureKeys)
{
    WorkloadSpec spec = smallSpec(8);
    spec.query_len = 4;
    const QuantizedHead head = quantizeHead(generateHead(spec));
    PadeConfig cfg;
    cfg.causal = true;
    const PadeResult res = padeAttention(head, cfg);
    const int s = spec.seq_len;
    const int p = spec.query_len;
    for (int i = 0; i < p; i++) {
        const int qpos = s - p + i;
        for (int j = qpos + 1; j < s; j++) {
            EXPECT_EQ(res.keep.at(i, j), 0);
            EXPECT_EQ(res.planes.at(i, j), 0);
        }
    }
    // keys_total counts only the visible keys.
    uint64_t visible = 0;
    for (int i = 0; i < p; i++)
        visible += static_cast<uint64_t>(s - p + i + 1);
    EXPECT_EQ(res.stats.keys_total, visible);
}

TEST(PadeAttention, HeadTailReducesMaxUpdates)
{
    // On locality-heavy workloads the interleaved order should not do
    // more max updates than natural order (paper Fig. 10).
    WorkloadSpec spec = smallSpec(9);
    spec.locality = 0.9;
    spec.seq_len = 512;
    const QuantizedHead head = quantizeHead(generateHead(spec));

    PadeConfig natural;
    natural.head_tail = false;
    PadeConfig interleaved;
    interleaved.head_tail = true;
    const PadeResult a = padeAttention(head, natural);
    const PadeResult b = padeAttention(head, interleaved);
    EXPECT_LE(b.stats.max_updates, a.stats.max_updates);
}

TEST(PadeAttention, BothScanOrdersAccurate)
{
    // The scan order changes how the threshold evolves (head-tail sees
    // strong sink/recent tokens first), so the keep masks may differ —
    // but both must remain faithful to the dense reference.
    const AttentionHead head = generateHead(smallSpec(10));
    const QuantizedHead qh = quantizeHead(head);
    const MatrixF ref = denseAttention(head.q, head.k, head.v,
                                       head.scale);
    for (bool ht : {false, true}) {
        PadeConfig cfg;
        cfg.head_tail = ht;
        cfg.alpha = 1.0;
        cfg.radius = 10.0; // standard (lossless-class) guard band
        const PadeResult res = padeAttention(qh, cfg);
        EXPECT_LT(relativeError(res.out, ref), 0.08) << "ht=" << ht;
    }
}

/** Expect two padeAttention results to agree on every observable. */
void
expectBitIdentical(const PadeResult &a, const PadeResult &b,
                   const char *what)
{
    EXPECT_TRUE(a.out == b.out) << what;
    EXPECT_TRUE(a.keep == b.keep) << what;
    EXPECT_TRUE(a.planes == b.planes) << what;
    EXPECT_EQ(a.retained, b.retained) << what;
    EXPECT_EQ(a.stats.planes_processed, b.stats.planes_processed)
        << what;
    EXPECT_EQ(a.stats.keys_retained, b.stats.keys_retained) << what;
    EXPECT_EQ(a.stats.ops_bs, b.stats.ops_bs) << what;
    EXPECT_EQ(a.stats.ops_naive, b.stats.ops_naive) << what;
    EXPECT_EQ(a.stats.max_updates, b.stats.max_updates) << what;
    EXPECT_EQ(a.stats.rescale_ops, b.stats.rescale_ops) << what;
    EXPECT_EQ(a.stats.threshold_updates, b.stats.threshold_updates)
        << what;
}

TEST(PadeAttention, KernelDispatchBitIdentical)
{
    // All three QK kernels compute the same integer plane deltas, so
    // every observable — output, masks, per-pair plane counts,
    // statistics — must be bit-identical under every dispatch mode,
    // across bit-widths and guard settings. (kSimd falls back to
    // kPopcount off-AVX2, which keeps this test meaningful there.)
    for (int bits : {2, 4, 8}) {
        for (bool guard : {true, false}) {
            const AttentionHead head = generateHead(smallSpec(21));
            const QuantizedHead qh = quantizeHead(head, bits);
            PadeConfig sc_cfg;
            sc_cfg.qk_kernel = QkKernel::kScalar;
            sc_cfg.guard_enabled = guard;
            PadeConfig pop_cfg = sc_cfg;
            pop_cfg.qk_kernel = QkKernel::kPopcount;
            PadeConfig simd_cfg = sc_cfg;
            simd_cfg.qk_kernel = QkKernel::kSimd;

            const PadeResult oracle = padeAttention(qh, sc_cfg);
            expectBitIdentical(padeAttention(qh, pop_cfg), oracle,
                               "popcount vs scalar");
            expectBitIdentical(padeAttention(qh, simd_cfg), oracle,
                               "simd vs scalar");
        }
    }
}

TEST(PadeAttention, KernelDispatchBitIdenticalOnTailShapes)
{
    // head_dims off the SIMD width (65, 127) leave masked remainders
    // in the vector kernels, and tiny seq/query counts (1, 3)
    // degenerate the tile loop; all three kernels must still agree
    // bit for bit.
    struct Shape
    {
        int seq, queries, head_dim;
    };
    for (const auto [seq, queries, head_dim] :
         {Shape{1, 1, 65}, Shape{3, 2, 127}, Shape{256, 3, 65},
          Shape{257, 4, 127}, Shape{129, 1, 96}, Shape{64, 2, 300}}) {
        WorkloadSpec spec = smallSpec(37);
        spec.seq_len = seq;
        spec.query_len = queries;
        spec.head_dim = head_dim;
        const QuantizedHead qh = quantizeHead(generateHead(spec));
        PadeConfig sc_cfg;
        sc_cfg.qk_kernel = QkKernel::kScalar;
        PadeConfig pop_cfg;
        pop_cfg.qk_kernel = QkKernel::kPopcount;
        PadeConfig simd_cfg;
        simd_cfg.qk_kernel = QkKernel::kSimd;

        const PadeResult oracle = padeAttention(qh, sc_cfg);
        expectBitIdentical(padeAttention(qh, pop_cfg), oracle,
                           "popcount vs scalar (tail)");
        expectBitIdentical(padeAttention(qh, simd_cfg), oracle,
                           "simd vs scalar (tail)");
    }
}

TEST(PadeAttention, WorkspaceReuseBitIdentical)
{
    // One workspace carried across heads of different shapes must
    // never change results relative to fresh per-call state.
    PadeWorkspace ws;
    for (uint64_t seed : {31, 32, 33}) {
        WorkloadSpec spec = smallSpec(seed);
        spec.seq_len = seed == 32 ? 512 : 256; // vary shapes
        spec.head_dim = seed == 33 ? 128 : 64;
        const QuantizedHead head = quantizeHead(generateHead(spec));
        const PadeResult with_ws = padeAttention(head, {}, &ws);
        const PadeResult fresh = padeAttention(head, {});
        EXPECT_TRUE(with_ws.out == fresh.out);
        EXPECT_TRUE(with_ws.keep == fresh.keep);
        EXPECT_EQ(with_ws.stats.planes_processed,
                  fresh.stats.planes_processed);
        EXPECT_EQ(with_ws.stats.max_updates, fresh.stats.max_updates);
    }
}

TEST(PadeAttention, PooledPlaneWorkBitIdentical)
{
    // The eager PlaneWork table may be built across a thread pool;
    // results and work statistics must not depend on it.
    ThreadPool pool(2);
    PadeWorkspace pooled;
    pooled.pool = &pool;
    const QuantizedHead head = quantizeHead(generateHead(smallSpec(34)));
    const PadeResult a = padeAttention(head, {}, &pooled);
    const PadeResult b = padeAttention(head, {});
    EXPECT_TRUE(a.out == b.out);
    EXPECT_EQ(a.stats.ops_bs, b.stats.ops_bs);
    EXPECT_EQ(a.stats.ops_naive, b.stats.ops_naive);
}

TEST(PadeAttention, BsOpsNeverExceedNaive)
{
    const QuantizedHead head =
        quantizeHead(generateHead(smallSpec(11)));
    const PadeResult res = padeAttention(head);
    EXPECT_LE(res.stats.ops_bs, res.stats.ops_naive);
}

TEST(PadeAttention, Int4KeysSupported)
{
    const AttentionHead head = generateHead(smallSpec(12));
    const QuantizedHead qh = quantizeHead(head, 4);
    EXPECT_EQ(qh.k_planes.numPlanes(), 4);
    const PadeResult res = padeAttention(qh);
    EXPECT_GE(res.stats.keys_retained, 1u);
    // Exactness contract holds at 4 bits too: the output equals masked
    // attention over the INT4-dequantized operands.
    const MatrixF ref = maskedAttention(dequantize(qh.q),
                                        dequantize(qh.k),
                                        dequantize(qh.v), head.scale,
                                        res.keep);
    EXPECT_LT(relativeError(res.out, ref), 1e-4);
}

/** Alpha sweep property: retained mass decreases monotonically-ish. */
class AlphaSweepTest : public ::testing::TestWithParam<double>
{
};

TEST_P(AlphaSweepTest, MassAboveFloor)
{
    const double alpha = GetParam();
    const AttentionHead head = generateHead(smallSpec(13));
    const QuantizedHead qh = quantizeHead(head);
    PadeConfig cfg;
    cfg.alpha = alpha;
    const PadeResult res = padeAttention(qh, cfg);
    const MatrixF logits = attentionLogits(head.q, head.k, head.scale);
    // Even aggressive pruning keeps the argmax, so mass stays
    // meaningful; conservative alpha keeps nearly everything.
    const double mass = retainedMass(logits, res.keep);
    EXPECT_GT(mass, 0.5);
    if (alpha >= 0.8) {
        EXPECT_GT(mass, 0.95);
    }
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweepTest,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 1.0));

} // namespace
} // namespace pade
