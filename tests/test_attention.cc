/**
 * @file
 * Tests for the attention substrate: references, online softmax,
 * head-tail ordering, metrics.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "attention/metrics.h"
#include "attention/online_softmax.h"
#include "attention/reference.h"
#include "common/rng.h"
#include "core/simd/qk_dispatch.h"
#include "core/simd/qk_simd.h"
#include "quant/quantizer.h"

namespace pade {
namespace {

MatrixF
randomMatrix(int r, int c, uint64_t seed)
{
    Rng rng(seed);
    MatrixF m(r, c);
    for (int i = 0; i < r; i++)
        for (int j = 0; j < c; j++)
            m.at(i, j) = static_cast<float>(rng.gaussian());
    return m;
}

TEST(Softmax, RowSumsToOne)
{
    std::vector<float> row = {1.0f, 2.0f, 3.0f, -1.0f};
    softmaxRow(row);
    float sum = 0.0f;
    for (float v : row)
        sum += v;
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
}

TEST(Softmax, LargeLogitsStable)
{
    std::vector<float> row = {1000.0f, 999.0f};
    softmaxRow(row);
    EXPECT_NEAR(row[0], 1.0f / (1.0f + std::exp(-1.0f)), 1e-5f);
    EXPECT_FALSE(std::isnan(row[0]));
}

TEST(Softmax, MonotoneInLogits)
{
    std::vector<float> row = {0.0f, 1.0f, 2.0f};
    softmaxRow(row);
    EXPECT_LT(row[0], row[1]);
    EXPECT_LT(row[1], row[2]);
}

TEST(DenseAttention, UniformForEqualLogits)
{
    // All-zero queries produce uniform attention: output = mean of V.
    MatrixF q(1, 4);
    MatrixF k = randomMatrix(5, 4, 1);
    MatrixF v = randomMatrix(5, 3, 2);
    const MatrixF o = denseAttention(q, k, v, 0.5f);
    for (int d = 0; d < 3; d++) {
        float m = 0.0f;
        for (int j = 0; j < 5; j++)
            m += v.at(j, d);
        EXPECT_NEAR(o.at(0, d), m / 5.0f, 1e-5f);
    }
}

TEST(DenseAttention, OneHotSelectsValue)
{
    // A key perfectly aligned with the query dominates.
    MatrixF q(1, 2, {50.0f, 0.0f});
    MatrixF k(2, 2, {1.0f, 0.0f, -1.0f, 0.0f});
    MatrixF v(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
    const MatrixF o = denseAttention(q, k, v, 1.0f);
    EXPECT_NEAR(o.at(0, 0), 1.0f, 1e-4f);
    EXPECT_NEAR(o.at(0, 1), 2.0f, 1e-4f);
}

TEST(DenseAttention, CausalMasksFuture)
{
    // With two queries at the last two positions of three keys, query 0
    // (position 1) must ignore key 2.
    MatrixF q = randomMatrix(2, 4, 3);
    MatrixF k = randomMatrix(3, 4, 4);
    MatrixF v = randomMatrix(3, 4, 5);
    const MatrixF causal = denseAttention(q, k, v, 0.5f, true);

    // Reference: query 0 over keys {0,1} only.
    MatrixF k2(2, 4);
    MatrixF v2(2, 4);
    for (int j = 0; j < 2; j++) {
        for (int d = 0; d < 4; d++) {
            k2.at(j, d) = k.at(j, d);
            v2.at(j, d) = v.at(j, d);
        }
    }
    MatrixF q0(1, 4);
    for (int d = 0; d < 4; d++)
        q0.at(0, d) = q.at(0, d);
    const MatrixF ref = denseAttention(q0, k2, v2, 0.5f);
    for (int d = 0; d < 4; d++)
        EXPECT_NEAR(causal.at(0, d), ref.at(0, d), 1e-5f);
}

TEST(Int8Attention, CloseToFp32)
{
    MatrixF q = randomMatrix(4, 32, 6);
    MatrixF k = randomMatrix(64, 32, 7);
    MatrixF v = randomMatrix(64, 32, 8);
    const float scale = 1.0f / std::sqrt(32.0f);
    const MatrixF fp = denseAttention(q, k, v, scale);
    const MatrixF i8 = int8Attention(q, k, v, scale);
    EXPECT_LT(relativeError(i8, fp), 0.05);
}

TEST(MaskedAttention, AllKeepEqualsDense)
{
    MatrixF q = randomMatrix(3, 16, 9);
    MatrixF k = randomMatrix(20, 16, 10);
    MatrixF v = randomMatrix(20, 16, 11);
    Matrix<uint8_t> keep(3, 20);
    keep.fill(1);
    const float scale = 0.25f;
    EXPECT_LT(relativeError(maskedAttention(q, k, v, scale, keep),
                            denseAttention(q, k, v, scale)),
              1e-6);
}

TEST(FlashAttention, MatchesDense)
{
    MatrixF q = randomMatrix(4, 16, 12);
    MatrixF k = randomMatrix(50, 16, 13);
    MatrixF v = randomMatrix(50, 16, 14);
    const float scale = 0.25f;
    const MatrixF dense = denseAttention(q, k, v, scale);
    for (int tile : {1, 7, 16, 64}) {
        const MatrixF flash = flashAttention(q, k, v, scale, tile);
        EXPECT_LT(relativeError(flash, dense), 1e-5)
            << "tile=" << tile;
    }
}

TEST(OnlineSoftmax, SingleTileMatchesSoftmax)
{
    OnlineSoftmaxRow acc(2);
    std::vector<float> scores = {1.0f, 2.0f};
    std::vector<float> v0 = {1.0f, 0.0f};
    std::vector<float> v1 = {0.0f, 1.0f};
    acc.update(scores, {std::span<const float>(v0),
                        std::span<const float>(v1)});
    auto out = acc.finalize();
    std::vector<float> probs = scores;
    softmaxRow(probs);
    EXPECT_NEAR(out[0], probs[0], 1e-6f);
    EXPECT_NEAR(out[1], probs[1], 1e-6f);
}

TEST(OnlineSoftmax, MaxUpdateCounting)
{
    OnlineSoftmaxRow inc(1);
    std::vector<float> v = {1.0f};
    auto vs = std::vector<std::span<const float>>{
        std::span<const float>(v)};
    // Ascending scores: every tile after the first raises the max.
    for (float s : {1.0f, 2.0f, 3.0f, 4.0f}) {
        std::vector<float> sc = {s};
        inc.update(sc, vs);
    }
    EXPECT_EQ(inc.maxUpdates(), 3u);

    OnlineSoftmaxRow dec(1);
    // Descending: the first tile sets the max, never updated again.
    for (float s : {4.0f, 3.0f, 2.0f, 1.0f}) {
        std::vector<float> sc = {s};
        dec.update(sc, vs);
    }
    EXPECT_EQ(dec.maxUpdates(), 0u);
    EXPECT_EQ(dec.rescaleOps(), 0u);
}

TEST(OnlineSoftmax, OrderInvariantResult)
{
    Rng rng(15);
    std::vector<float> scores(32);
    std::vector<std::vector<float>> values(32, std::vector<float>(4));
    for (int i = 0; i < 32; i++) {
        scores[i] = static_cast<float>(rng.gaussian(0.0, 3.0));
        for (auto &x : values[i])
            x = static_cast<float>(rng.gaussian());
    }

    auto run = [&](const std::vector<int> &order) {
        OnlineSoftmaxRow acc(4);
        for (int idx : order) {
            std::vector<float> sc = {scores[idx]};
            std::vector<std::span<const float>> vv = {
                std::span<const float>(values[idx])};
            acc.update(sc, vv);
        }
        return acc.finalize();
    };

    std::vector<int> fwd(32);
    std::vector<int> rev(32);
    for (int i = 0; i < 32; i++) {
        fwd[i] = i;
        rev[i] = 31 - i;
    }
    auto a = run(fwd);
    auto b = run(rev);
    for (int d = 0; d < 4; d++)
        EXPECT_NEAR(a[d], b[d], 1e-5f);
}

TEST(OnlineSoftmax, NoAllocOverloadsMatchSpanApi)
{
    // The allocation-free overloads (matrix + id list, matrix +
    // contiguous first row, finalizeInto) must be bit-identical to
    // the original vector-of-spans API.
    Rng rng(16);
    const MatrixF v = randomMatrix(12, 5, 17);
    std::vector<float> scores(12);
    for (auto &s : scores)
        s = static_cast<float>(rng.gaussian(0.0, 2.0));
    std::vector<int> ids = {3, 7, 1, 11, 0, 5, 9, 2, 10, 4, 8, 6};

    OnlineSoftmaxRow a(5);
    OnlineSoftmaxRow b(5);
    for (size_t base = 0; base < ids.size(); base += 4) {
        std::vector<float> sc;
        std::vector<std::span<const float>> vv;
        for (size_t t = base; t < base + 4; t++) {
            sc.push_back(scores[t]);
            vv.push_back(v.row(ids[t]));
        }
        a.update(sc, vv);
        b.update(std::span<const float>(scores).subspan(base, 4), v,
                 std::span<const int>(ids).subspan(base, 4));
    }
    EXPECT_EQ(a.maxUpdates(), b.maxUpdates());
    EXPECT_EQ(a.rescaleOps(), b.rescaleOps());
    const auto fa = a.finalize();
    std::vector<float> fb(5);
    b.finalizeInto(fb);
    for (int d = 0; d < 5; d++)
        EXPECT_EQ(fa[d], fb[d]);

    // Contiguous-row overload against explicit consecutive ids.
    OnlineSoftmaxRow c(5);
    OnlineSoftmaxRow d(5);
    std::vector<int> seq_ids = {4, 5, 6, 7};
    c.update(std::span<const float>(scores).first(4), v,
             std::span<const int>(seq_ids));
    d.update(std::span<const float>(scores).first(4), v, 4);
    EXPECT_EQ(c.finalize(), d.finalize());

    // reset() must restore a pristine accumulator.
    d.reset(5);
    EXPECT_EQ(d.maxUpdates(), 0u);
    EXPECT_EQ(d.denominator(), 0.0f);
    d.update(std::span<const float>(scores).first(4), v, 4);
    EXPECT_EQ(c.finalize(), d.finalize());

    // The int8 form (the value stage of padeAttention and
    // DecodeEngine) against float rows from dequantize(): int8 rows
    // holding both range ends, at small, unit-order and large scales,
    // at a row length with a partial vector tail and at head_dim 64.
    for (const int dim : {13, 64}) {
        Quantized vq;
        vq.values = MatrixI8(12, dim);
        for (int r = 0; r < 12; r++)
            for (int c2 = 0; c2 < dim; c2++)
                vq.values.at(r, c2) = static_cast<int8_t>(
                    (r + c2) % 3 == 0 ? -128
                        : (r + c2) % 3 == 1
                        ? 127
                        : static_cast<int>(rng.below(256)) - 128);
        for (const float scale : {1e-3f, 0.5f, 3.7e5f}) {
            SCOPED_TRACE(testing::Message()
                         << "dim " << dim << " scale " << scale);
            vq.params.scale = scale;
            const MatrixF vf = dequantize(vq);
            OnlineSoftmaxRow fl(dim);
            OnlineSoftmaxRow i8(dim);
            for (size_t base = 0; base < ids.size(); base += 4) {
                std::vector<std::span<const int8_t>> rows;
                for (size_t t = base; t < base + 4; t++)
                    rows.push_back(vq.values.row(ids[t]));
                fl.update(std::span<const float>(scores).subspan(base, 4),
                          vf, std::span<const int>(ids).subspan(base, 4));
                i8.update(std::span<const float>(scores).subspan(base, 4),
                          rows, scale);
            }
            EXPECT_EQ(fl.maxUpdates(), i8.maxUpdates());
            EXPECT_EQ(fl.denominator(), i8.denominator());
            EXPECT_EQ(fl.finalize(), i8.finalize());
        }
    }
}

TEST(OnlineSoftmax, ValueRowKernelsMatchBitForBit)
{
    // The vector value-row update against the portable loop, bit for
    // bit, at every tail length and over the same inputs as above:
    // both int8 range ends, three scales, weights across magnitudes.
    if (!qkSimdAvailable())
        GTEST_SKIP() << "AVX2 not compiled in or not supported here";
    Rng rng(61);
    for (int dim = 1; dim <= 72; dim++) {
        std::vector<int8_t> v(static_cast<size_t>(dim));
        for (int d = 0; d < dim; d++)
            v[static_cast<size_t>(d)] = static_cast<int8_t>(
                d % 5 == 0 ? -128
                    : d % 5 == 1
                    ? 127
                    : static_cast<int>(rng.below(256)) - 128);
        for (const float scale : {1e-3f, 0.5f, 3.7e5f}) {
            for (const float p : {1.0f, 0.37f, 3e-9f}) {
                std::vector<float> scalar(static_cast<size_t>(dim));
                for (auto &a : scalar)
                    a = static_cast<float>(rng.gaussian(0.0, 100.0));
                std::vector<float> vector = scalar;
                simd::valueRowScalar(scalar.data(), v.data(), dim, p,
                                     scale);
                simd::valueRowAvx2(vector.data(), v.data(), dim, p,
                                   scale);
                for (int d = 0; d < dim; d++)
                    EXPECT_EQ(std::bit_cast<uint32_t>(
                                  scalar[static_cast<size_t>(d)]),
                              std::bit_cast<uint32_t>(
                                  vector[static_cast<size_t>(d)]))
                        << "dim " << dim << " d " << d << " scale "
                        << scale << " p " << p;
            }
        }
    }
    EXPECT_EQ(simd::valueRowKernel(), &simd::valueRowAvx2);
}

TEST(OnlineSoftmax, ResetReuseAcrossRowsOfDifferentLengths)
{
    // The workspace-reuse contract the serving decode engine leans
    // on: one accumulator, reset() across rows of different dims and
    // retained-set sizes (shrinking then growing), must match a fresh
    // accumulator bit for bit — including its counters.
    Rng rng(31);
    const MatrixF v = randomMatrix(32, 8, 23);
    OnlineSoftmaxRow reused(8);

    struct Row
    {
        int dim;
        int keys;
    };
    const Row rows[] = {{5, 12}, {3, 1}, {8, 32}, {5, 7}, {1, 3}};
    for (const Row &row : rows) {
        std::vector<float> scores(static_cast<size_t>(row.keys));
        for (auto &s : scores)
            s = static_cast<float>(rng.gaussian(0.0, 3.0));

        reused.reset(row.dim);
        EXPECT_EQ(reused.maxUpdates(), 0u);
        EXPECT_EQ(reused.rescaleOps(), 0u);
        EXPECT_EQ(reused.denominator(), 0.0f);

        OnlineSoftmaxRow fresh(row.dim);
        for (int base = 0; base < row.keys; base += 4) {
            const int n = std::min(4, row.keys - base);
            std::vector<float> sc;
            std::vector<std::span<const float>> vv;
            for (int t = base; t < base + n; t++) {
                sc.push_back(scores[static_cast<size_t>(t)]);
                vv.push_back(v.row(t % v.rows()).first(
                    static_cast<size_t>(row.dim)));
            }
            reused.update(sc, vv);
            fresh.update(sc, vv);
        }
        EXPECT_EQ(reused.maxUpdates(), fresh.maxUpdates());
        EXPECT_EQ(reused.rescaleOps(), fresh.rescaleOps());
        std::vector<float> a(static_cast<size_t>(row.dim));
        std::vector<float> b(static_cast<size_t>(row.dim));
        reused.finalizeInto(a);
        fresh.finalizeInto(b);
        for (int d = 0; d < row.dim; d++)
            EXPECT_EQ(a[static_cast<size_t>(d)],
                      b[static_cast<size_t>(d)])
                << "dim " << row.dim << " keys " << row.keys;
    }
}

TEST(HeadTail, OrderIsPermutation)
{
    for (int n : {1, 2, 3, 8, 15}) {
        auto order = headTailOrder(n);
        ASSERT_EQ(static_cast<int>(order.size()), n);
        std::vector<bool> seen(n, false);
        for (int t : order) {
            ASSERT_GE(t, 0);
            ASSERT_LT(t, n);
            EXPECT_FALSE(seen[t]);
            seen[t] = true;
        }
    }
}

TEST(HeadTail, InterleavesEnds)
{
    auto order = headTailOrder(6);
    std::vector<int> expect = {0, 5, 1, 4, 2, 3};
    EXPECT_EQ(order, expect);
}

TEST(HeadTail, FewerMaxUpdatesOnLocalityPattern)
{
    // Sink (first) and recent tokens carry the highest scores; visiting
    // them first means later tiles rarely raise the max.
    const int n = 64;
    std::vector<float> scores(n, 0.0f);
    scores[0] = 10.0f;
    for (int i = n - 8; i < n; i++)
        scores[i] = 8.0f;
    std::vector<float> v = {1.0f};

    auto count = [&](const std::vector<int> &tile_order) {
        OnlineSoftmaxRow acc(1);
        for (int t : tile_order) {
            std::vector<float> sc;
            std::vector<std::span<const float>> vv;
            for (int i = t * 8; i < (t + 1) * 8; i++) {
                sc.push_back(scores[i]);
                vv.push_back(std::span<const float>(v));
            }
            acc.update(sc, vv);
        }
        return acc.maxUpdates();
    };

    std::vector<int> natural = {0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_LE(count(headTailOrder(8)), count(natural));
}

TEST(Metrics, RelativeErrorZeroForIdentical)
{
    const MatrixF m = randomMatrix(4, 4, 16);
    EXPECT_DOUBLE_EQ(relativeError(m, m), 0.0);
}

TEST(Metrics, CosineOneForScaled)
{
    MatrixF a = randomMatrix(3, 8, 17);
    MatrixF b = a;
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 8; j++)
            b.at(i, j) *= 2.5f;
    EXPECT_NEAR(cosineSimilarity(a, b), 1.0, 1e-9);
}

TEST(Metrics, RetainedMassFullMask)
{
    const MatrixF logits = randomMatrix(4, 10, 18);
    Matrix<uint8_t> keep(4, 10);
    keep.fill(1);
    EXPECT_NEAR(retainedMass(logits, keep), 1.0, 1e-6);
}

TEST(Metrics, RetainedMassDropsWithPruning)
{
    MatrixF logits(1, 3, {10.0f, 0.0f, 0.0f});
    Matrix<uint8_t> keep(1, 3);
    keep.at(0, 0) = 1;
    // Keeping only the dominant logit retains almost all mass.
    EXPECT_GT(retainedMass(logits, keep), 0.99);
    Matrix<uint8_t> keep2(1, 3);
    keep2.at(0, 1) = 1;
    EXPECT_LT(retainedMass(logits, keep2), 0.01);
}

TEST(Metrics, TopkRecall)
{
    MatrixF logits(1, 4, {4.0f, 3.0f, 2.0f, 1.0f});
    Matrix<uint8_t> keep(1, 4);
    keep.at(0, 0) = 1;
    keep.at(0, 2) = 1;
    EXPECT_DOUBLE_EQ(topkRecall(logits, keep, 2), 0.5);
    EXPECT_DOUBLE_EQ(topkRecall(logits, keep, 1), 1.0);
}

TEST(Metrics, PrunedFraction)
{
    Matrix<uint8_t> keep(2, 4);
    keep.at(0, 0) = 1;
    keep.at(1, 0) = 1;
    EXPECT_DOUBLE_EQ(prunedFraction(keep), 0.75);
}

TEST(Metrics, TaskScoreMapping)
{
    EXPECT_DOUBLE_EQ(taskScoreFromMass(1.0), 1.0);
    EXPECT_GT(taskScoreFromMass(0.999), 0.999);
    EXPECT_GT(taskScoreFromMass(0.99), taskScoreFromMass(0.9));
    EXPECT_GT(taskScoreFromMass(0.9), taskScoreFromMass(0.5));
}

} // namespace
} // namespace pade
