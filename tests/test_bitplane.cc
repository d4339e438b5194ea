/**
 * @file
 * Unit and property tests for the bit-plane decomposition, including the
 * paper's Fig. 6 worked example.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "quant/bitplane.h"

namespace pade {
namespace {

MatrixI8
randomInt8(int r, int c, uint64_t seed, int bits = 8)
{
    Rng rng(seed);
    MatrixI8 m(r, c);
    const int lo = -(1 << (bits - 1));
    const int hi = (1 << (bits - 1)) - 1;
    for (int i = 0; i < r; i++)
        for (int j = 0; j < c; j++)
            m.at(i, j) = static_cast<int8_t>(rng.range(lo, hi));
    return m;
}

TEST(BitPlane, PlaneWeights8Bit)
{
    MatrixI8 m(1, 1);
    BitPlaneSet p(m, 8);
    EXPECT_EQ(p.planeWeight(0), -128);
    EXPECT_EQ(p.planeWeight(1), 64);
    EXPECT_EQ(p.planeWeight(7), 1);
}

TEST(BitPlane, RemainingMagnitude)
{
    MatrixI8 m(1, 1);
    BitPlaneSet p(m, 8);
    EXPECT_EQ(p.remainingMagnitude(0), 127);
    EXPECT_EQ(p.remainingMagnitude(1), 63);
    EXPECT_EQ(p.remainingMagnitude(6), 1);
    EXPECT_EQ(p.remainingMagnitude(7), 0);
}

TEST(BitPlane, ReconstructAllInt8Values)
{
    // Property: full reconstruction is exact for every representable
    // value.
    MatrixI8 m(1, 256);
    for (int v = -128; v <= 127; v++)
        m.at(0, v + 128) = static_cast<int8_t>(v);
    BitPlaneSet p(m, 8);
    for (int v = -128; v <= 127; v++)
        EXPECT_EQ(p.reconstruct(0, v + 128, 7), v);
}

TEST(BitPlane, PartialReconstructConservative)
{
    // With unknown bits zero, the partial value plus the remaining
    // magnitude must bracket the true value.
    MatrixI8 m = randomInt8(4, 32, 11);
    BitPlaneSet p(m, 8);
    for (int row = 0; row < 4; row++) {
        for (int col = 0; col < 32; col++) {
            const int truth = m.at(row, col);
            for (int r = 0; r < 8; r++) {
                const int partial = p.reconstruct(row, col, r);
                EXPECT_LE(partial, truth);
                EXPECT_GE(partial + p.remainingMagnitude(r), truth);
            }
        }
    }
}

TEST(BitPlaneDeathTest, OutOfRangeKeyAbortsInEveryBuild)
{
    // A 4-bit set holds [-8, 7]; packing 8 or -9 would store another
    // value, so the matrix constructor checks every row it packs.
    const auto pack = [](int8_t v) {
        MatrixI8 m(2, 3);
        m.at(1, 2) = v;
        const BitPlaneSet p(m, 4);
        return p.reconstruct(1, 2, 3);
    };
    EXPECT_EQ(pack(7), 7);
    EXPECT_EQ(pack(-8), -8);
    EXPECT_DEATH(pack(8), "PADE_CHECK");
    EXPECT_DEATH(pack(-9), "PADE_CHECK");
}

TEST(BitPlane, MsbPlaneIsSign)
{
    MatrixI8 m(1, 4, {-5, 5, -128, 127});
    BitPlaneSet p(m, 8);
    EXPECT_TRUE(p.bit(0, 0, 0));
    EXPECT_FALSE(p.bit(0, 0, 1));
    EXPECT_TRUE(p.bit(0, 0, 2));
    EXPECT_FALSE(p.bit(0, 0, 3));
}

TEST(BitPlane, ExactDotEqualsInteger)
{
    MatrixI8 q = randomInt8(1, 64, 13);
    MatrixI8 k = randomInt8(8, 64, 14);
    BitPlaneSet planes(k, 8);
    for (int j = 0; j < 8; j++) {
        int64_t ref = 0;
        for (int d = 0; d < 64; d++)
            ref += static_cast<int64_t>(q.at(0, d)) * k.at(j, d);
        EXPECT_EQ(exactDot(q.row(0), planes, j), ref);
    }
}

TEST(QueryPlanes, RoundTripAndWeights)
{
    MatrixI8 q = randomInt8(1, 70, 21);
    const QueryPlanes qp(q.row(0), 8);
    ASSERT_EQ(qp.numCols(), 70);
    ASSERT_EQ(qp.numPlanes(), 8);
    ASSERT_EQ(qp.wordsPerPlane(), 2);
    EXPECT_EQ(qp.planeWeight(0), -128);
    EXPECT_EQ(qp.planeWeight(1), 64);
    EXPECT_EQ(qp.planeWeight(7), 1);
    // Summing plane weights over set bits reconstructs every value.
    for (int d = 0; d < 70; d++) {
        int v = 0;
        for (int t = 0; t < 8; t++)
            if (qp.bit(t, d))
                v += qp.planeWeight(t);
        EXPECT_EQ(v, q.at(0, d));
    }
}

TEST(QueryPlanes, MaskedSumMatchesDirectSum)
{
    // maskedSum over a key plane is sum of q over that plane's set
    // bits — the primitive both popcount kernels build on. Exercise
    // every word-count specialization (1..4 words and the generic
    // path at 5 words = 289 cols).
    for (int cols : {40, 64, 100, 128, 180, 256, 289}) {
        MatrixI8 q = randomInt8(1, cols, 22 + cols);
        MatrixI8 k = randomInt8(3, cols, 23 + cols);
        BitPlaneSet planes(k, 8);
        const QueryPlanes qp(q.row(0));
        for (int j = 0; j < 3; j++)
            for (int r = 0; r < 8; r++) {
                int64_t ref = 0;
                for (int d = 0; d < cols; d++)
                    if (planes.bit(j, r, d))
                        ref += q.at(0, d);
                EXPECT_EQ(qp.maskedSum(planes.plane(j, r)), ref)
                    << "cols=" << cols << " j=" << j << " r=" << r;
            }
    }
}

TEST(BitPlane, PartialDotPopcountMatchesScalar)
{
    for (int bits : {2, 5, 8}) {
        MatrixI8 q = randomInt8(1, 96, 31);
        MatrixI8 k = randomInt8(4, 96, 32);
        // Clamp keys into the bit range.
        const int lo = -(1 << (bits - 1));
        const int hi = (1 << (bits - 1)) - 1;
        for (int i = 0; i < 4; i++)
            for (int d = 0; d < 96; d++)
                k.at(i, d) = static_cast<int8_t>(
                    std::clamp<int>(k.at(i, d), lo, hi));
        BitPlaneSet planes(k, bits);
        const QueryPlanes qp(q.row(0));
        for (int j = 0; j < 4; j++)
            for (int r = 0; r < bits; r++) {
                EXPECT_EQ(partialDot(qp, planes, j, r),
                          partialDotScalar(q.row(0), planes, j, r));
                EXPECT_EQ(partialDot(q.row(0), planes, j, r),
                          partialDotScalar(q.row(0), planes, j, r));
            }
        EXPECT_EQ(exactDot(qp, planes, 0),
                  exactDotScalar(q.row(0), planes, 0));
    }
}

TEST(BitPlane, PartialDotMonotoneConvergence)
{
    MatrixI8 q = randomInt8(1, 32, 15);
    MatrixI8 k = randomInt8(4, 32, 16);
    BitPlaneSet planes(k, 8);
    for (int j = 0; j < 4; j++) {
        const int64_t exact = exactDot(q.row(0), planes, j);
        EXPECT_EQ(partialDot(q.row(0), planes, j, 7), exact);
    }
}

TEST(BitPlane, Fig6WorkedExample)
{
    // Paper Fig. 6 uses a 6-bit format with weights
    // (-2^3, 2^2, 2^1, 2^0, 2^-1, 2^-2): that equals a 6-bit integer
    // with weights (-32, 16, 8, 4, 2, 1) divided by 4. Keys are
    // k = [0, -0.25, -8, 7.75] -> integer [0, -1, -32, 31];
    // Q = [6, -5, 9, -4].
    MatrixI8 k(4, 4);
    k.at(0, 0) = 0;
    k.at(0, 1) = -1;
    k.at(0, 2) = -32;
    k.at(0, 3) = 31;
    BitPlaneSet planes(k, 6);

    std::vector<int8_t> q = {6, -5, 9, -4};
    std::span<const int8_t> qs(q);

    // Exact dot: 6*0 + (-5)*(-0.25) + 9*(-8) + (-4)*7.75 = -101.75.
    const double exact = exactDot(qs, planes, 0) / 4.0;
    EXPECT_DOUBLE_EQ(exact, -101.75);

    // After the MSB plane only: S^0 = -32 (paper Fig. 6(a)).
    const double s0 = partialDot(qs, planes, 0, 0) / 4.0;
    EXPECT_DOUBLE_EQ(s0, -32.0);

    // Remaining magnitude after MSB: (2^5 - 1)/4 = 7.75 in the
    // fractional scale.
    EXPECT_EQ(planes.remainingMagnitude(0), 31);
}

/** Parameterized over bit width: decomposition must be exact. */
class BitWidthTest : public ::testing::TestWithParam<int>
{
};

TEST_P(BitWidthTest, ReconstructionExact)
{
    const int bits = GetParam();
    MatrixI8 m = randomInt8(2, 40, 20 + bits, bits);
    BitPlaneSet p(m, bits);
    for (int row = 0; row < 2; row++)
        for (int col = 0; col < 40; col++)
            EXPECT_EQ(p.reconstruct(row, col, bits - 1),
                      m.at(row, col));
}

TEST_P(BitWidthTest, ExactDotMatchesDirect)
{
    const int bits = GetParam();
    MatrixI8 q = randomInt8(1, 24, 30 + bits, 8);
    MatrixI8 k = randomInt8(5, 24, 40 + bits, bits);
    BitPlaneSet planes(k, bits);
    for (int j = 0; j < 5; j++) {
        int64_t ref = 0;
        for (int d = 0; d < 24; d++)
            ref += static_cast<int64_t>(q.at(0, d)) * k.at(j, d);
        EXPECT_EQ(exactDot(q.row(0), planes, j), ref);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitWidthTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(BitPlane, PlaneBytes)
{
    MatrixI8 m(1, 64);
    BitPlaneSet p(m, 8);
    EXPECT_EQ(p.planeBytes(), 8);
    MatrixI8 m2(1, 65);
    BitPlaneSet p2(m2, 8);
    EXPECT_EQ(p2.planeBytes(), 9);
}

TEST(BitPlane, MultiWordColumns)
{
    // Columns beyond 64 exercise the multi-word path.
    MatrixI8 m = randomInt8(2, 130, 17);
    BitPlaneSet p(m, 8);
    EXPECT_EQ(p.wordsPerPlane(), 3);
    for (int col : {0, 63, 64, 127, 128, 129})
        EXPECT_EQ(p.reconstruct(0, col, 7), m.at(0, col));
}

} // namespace
} // namespace pade
