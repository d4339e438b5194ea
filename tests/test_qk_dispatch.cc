/**
 * @file
 * Tests for the QK kernel dispatch seam (core/simd/qk_dispatch.h) and
 * the SIMD backend's bit-exactness against the scalar oracle,
 * including the remainder/tail shapes that exercise masked loads and
 * padded storage: head_dims that are not multiples of the SIMD width,
 * and rows long enough that the AVX2 kernel must widen its 16-bit
 * lanes mid-row. The per-key guarded kernels (popcount, AVX2,
 * AVX-512BW) are checked against a replay built from planeDeltaScalar
 * and GuardFilter.
 *
 * Every parity test also passes in non-AVX2 builds (or on non-AVX2
 * hosts): the *Simd entry points then fall back to the popcount
 * kernel, which must produce the same values anyway.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/bit_serial.h"
#include "core/bui.h"
#include "core/guard_filter.h"
#include "core/guarded_scan.h"
#include "core/simd/cpu_features.h"
#include "core/simd/qk_dispatch.h"
#include "core/simd/qk_simd.h"
#include "quant/bitplane.h"

namespace pade {
namespace {

/** Random matrix whose values fit a @p bits two's-complement range,
 *  with an adjustable bias toward negative values. */
MatrixI8
randomRanged(int r, int c, int bits, uint64_t seed,
             double negative_frac = 0.5)
{
    Rng rng(seed);
    const int lo = -(1 << (bits - 1));
    const int hi = (1 << (bits - 1)) - 1;
    MatrixI8 m(r, c);
    for (int i = 0; i < r; i++)
        for (int j = 0; j < c; j++) {
            int v = rng.bernoulli(negative_frac)
                ? static_cast<int>(rng.range(lo, -1))
                : static_cast<int>(rng.range(0, hi));
            m.at(i, j) = static_cast<int8_t>(v);
        }
    return m;
}

/** RAII environment-variable override (restores on scope exit). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old) {
            had_old_ = true;
            old_ = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_old_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_old_ = false;
    std::string old_;
};

TEST(QkDispatch, KernelNamesRoundTrip)
{
    for (QkKernel k : {QkKernel::kScalar, QkKernel::kPopcount,
                       QkKernel::kSimd}) {
        const auto parsed = qkKernelFromName(qkKernelName(k));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, k);
    }
    EXPECT_EQ(qkKernelFromName("SIMD"), QkKernel::kSimd);
    EXPECT_EQ(qkKernelFromName("Scalar"), QkKernel::kScalar);
    EXPECT_FALSE(qkKernelFromName("auto").has_value());
    EXPECT_FALSE(qkKernelFromName("").has_value());
    EXPECT_FALSE(qkKernelFromName("avx512").has_value());
}

TEST(QkDispatch, DefaultMatchesAvailability)
{
    EXPECT_EQ(defaultQkKernel(), qkSimdAvailable()
                  ? QkKernel::kSimd
                  : QkKernel::kPopcount);
}

TEST(QkDispatch, SimdAvailabilityImpliesCpuSupport)
{
    // qkSimdAvailable() must never report true without both the
    // compiled backend and full runtime (CPU + OS) support, and the
    // AVX-512BW per-key kernel must never be selected without
    // AVX-512F/BW and OS-saved opmask + ZMM state.
    const simd::CpuFeatures &f = simd::cpuFeatures();
    if (qkSimdAvailable()) {
        EXPECT_TRUE(f.avx2);
        EXPECT_TRUE(f.os_ymm);
    }
    if (simd::keyKernel() == &simd::scoreKeyAvx512) {
        EXPECT_TRUE(simd::qkAvx512Compiled());
        EXPECT_TRUE(f.avx512f);
        EXPECT_TRUE(f.avx512bw);
        EXPECT_TRUE(f.os_zmm);
    }
    // ZMM state implies YMM state (XCR0 bits 1-2 are part of 0xE6).
    if (f.os_zmm) {
        EXPECT_TRUE(f.os_ymm);
    }
}

TEST(QkDispatch, ResolvePassesThroughWithoutEnv)
{
    ScopedEnv env(kQkKernelEnv, nullptr);
    EXPECT_EQ(resolveQkKernel(QkKernel::kScalar), QkKernel::kScalar);
    EXPECT_EQ(resolveQkKernel(QkKernel::kPopcount),
              QkKernel::kPopcount);
    // kSimd resolves to itself when available, kPopcount otherwise —
    // never to something that cannot execute.
    const QkKernel resolved = resolveQkKernel(QkKernel::kSimd);
    EXPECT_EQ(resolved, qkSimdAvailable() ? QkKernel::kSimd
                                          : QkKernel::kPopcount);
}

TEST(QkDispatch, EnvOverridesConfiguredKernel)
{
    {
        ScopedEnv env(kQkKernelEnv, "scalar");
        EXPECT_EQ(resolveQkKernel(QkKernel::kSimd), QkKernel::kScalar);
    }
    {
        ScopedEnv env(kQkKernelEnv, "POPCOUNT");
        EXPECT_EQ(resolveQkKernel(QkKernel::kScalar),
                  QkKernel::kPopcount);
    }
    {
        // "auto" resolves to the best available backend.
        ScopedEnv env(kQkKernelEnv, "auto");
        EXPECT_EQ(resolveQkKernel(QkKernel::kScalar),
                  defaultQkKernel());
    }
    {
        // Unknown values are ignored (with a one-time warning).
        ScopedEnv env(kQkKernelEnv, "gpu");
        EXPECT_EQ(resolveQkKernel(QkKernel::kScalar),
                  QkKernel::kScalar);
    }
    {
        // An env-forced simd request still clamps to availability.
        ScopedEnv env(kQkKernelEnv, "simd");
        EXPECT_EQ(resolveQkKernel(QkKernel::kScalar),
                  qkSimdAvailable() ? QkKernel::kSimd
                                    : QkKernel::kPopcount);
    }
}

TEST(QkDispatch, PlaneStorageIs32ByteAligned)
{
    // The alignment contract the SIMD backend relies on, checked
    // through the public span accessors across tail shapes.
    for (int cols : {1, 63, 65, 127, 129, 256, 300}) {
        MatrixI8 k = randomRanged(3, cols, 8, 1000 + cols);
        BitPlaneSet planes(k, 8);
        for (int row = 0; row < 3; row++)
            for (int r = 0; r < 8; r++)
                EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                              planes.plane(row, r).data()) %
                              32,
                          0u)
                    << "cols=" << cols;
        MatrixI8 q = randomRanged(1, cols, 8, 2000 + cols);
        const QueryPlanes qp(q.row(0));
        for (int t = 0; t < qp.numPlanes(); t++)
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                          qp.plane(t).data()) %
                          32,
                      0u)
                << "cols=" << cols;
    }
}

/**
 * Parameterized over head_dim: every shape must be bit-identical
 * across all three kernels. The values deliberately straddle the
 * SIMD width boundaries — 65/127 leave masked remainders in the
 * value-domain kernels, 257/300 end in a partial 256-bit chunk,
 * 4097 spans more than the 127 chunks one 16-bit AVX2 lane
 * accumulation may hold, and 1/3 are degenerate single-word rows.
 */
class SimdTailTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SimdTailTest, MaskedSumSimdMatchesOracle)
{
    const int cols = GetParam();
    for (int bits : {2, 5, 8}) {
        MatrixI8 q = randomRanged(1, cols, 8, 50 + cols, 0.6);
        MatrixI8 k = randomRanged(4, cols, bits, 60 + cols);
        BitPlaneSet planes(k, bits);
        const QueryPlanes qp(q.row(0));
        for (int j = 0; j < 4; j++)
            for (int r = 0; r < bits; r++) {
                int64_t ref = 0;
                for (int d = 0; d < cols; d++)
                    if (planes.bit(j, r, d))
                        ref += q.at(0, d);
                EXPECT_EQ(qp.maskedSum(planes.plane(j, r)), ref)
                    << "cols=" << cols << " bits=" << bits;
            }
    }
}

TEST_P(SimdTailTest, PlaneDeltaSimdMatchesScalar)
{
    const int cols = GetParam();
    for (int bits : {2, 4, 8}) {
        MatrixI8 q = randomRanged(1, cols, 8, 70 + cols, 0.7);
        MatrixI8 k = randomRanged(3, cols, bits, 80 + cols, 0.7);
        BitPlaneSet planes(k, bits);
        const QueryPlanes qp(q.row(0));
        for (int j = 0; j < 3; j++)
            for (int r = 0; r < bits; r++) {
                EXPECT_EQ(planeDelta(qp, planes, j, r),
                          planeDeltaScalar(q.row(0), planes, j, r))
                    << "cols=" << cols << " bits=" << bits
                    << " j=" << j << " r=" << r;
            }
    }
}

TEST_P(SimdTailTest, PartialAndExactDotSimdMatchScalar)
{
    const int cols = GetParam();
    for (int bits : {2, 4, 8}) {
        MatrixI8 q = randomRanged(1, cols, 8, 90 + cols);
        MatrixI8 k = randomRanged(3, cols, bits, 95 + cols);
        BitPlaneSet planes(k, bits);
        const QueryPlanes qp(q.row(0));
        for (int j = 0; j < 3; j++) {
            for (int r = 0; r < bits; r++)
                EXPECT_EQ(partialDotSimd(qp, planes, j, r),
                          partialDotScalar(q.row(0), planes, j, r))
                    << "cols=" << cols << " bits=" << bits
                    << " j=" << j << " r=" << r;
            int64_t ref = 0;
            for (int d = 0; d < cols; d++)
                ref += static_cast<int64_t>(q.at(0, d)) * k.at(j, d);
            EXPECT_EQ(exactDotSimd(qp, planes, j), ref);
        }
    }
}

/**
 * Independent oracle for one key of a guarded scan: planeDeltaScalar
 * per plane, folded through GuardFilter's own methods.
 */
KeyScore
replayGuardedKey(std::span<const int8_t> q, const BitPlaneSet &keys,
                 int key, const BuiTable &bui, GuardFilter &guard,
                 bool prune)
{
    int64_t score = 0;
    for (int r = 0; r < keys.numPlanes(); r++) {
        score += planeDeltaScalar(q, keys, key, r);
        guard.observe(score + bui.lower(r));
        if (prune && guard.shouldPrune(score + bui.upper(r)))
            return {score, r + 1, true};
    }
    return {score, keys.numPlanes(), false};
}

/** One per-key kernel under test: score key j, updating the guard. */
using PerKeyRunner = std::function<KeyScore(
    const QueryPlanes &qp, std::span<const int8_t> q,
    const BitPlaneSet &keys, int key, const BuiTable &bui,
    GuardFilter &guard, bool prune)>;

/**
 * Walk 24 keys of every bit-width with one guard per (bits, prune)
 * sweep, so guard state carries across keys as in a real scan, and
 * require the kernel to match the replay key by key: score, planes
 * consumed, verdict, guard maximum and update count. The guard band
 * is narrow enough that both verdicts occur at every head_dim.
 */
void
expectPerKeyMatchesReplay(int cols, const PerKeyRunner &run)
{
    // An 8-plane and a narrow 4-plane query: every kernel must score
    // any width QueryPlanes narrows a row to.
    for (int qbits : {8, 4})
        for (int bits : {2, 4, 8}) {
            MatrixI8 q = randomRanged(1, cols, qbits,
                                      600 + cols + bits + qbits, 0.55);
            MatrixI8 k = randomRanged(24, cols, bits, 700 + cols + bits);
            const BitPlaneSet keys(k, bits);
            const QueryPlanes qp(q.row(0));
            const BuiTable bui = computeBuiTable(q.row(0), bits);
            const double logit_scale = 1.0 / (8.0 * cols);
            for (bool prune : {false, true}) {
                GuardFilter ref(0.5, 5.0, logit_scale);
                GuardFilter got(0.5, 5.0, logit_scale);
                int pruned = 0;
                for (int j = 0; j < keys.numRows(); j++) {
                    const KeyScore want = replayGuardedKey(
                        q.row(0), keys, j, bui, ref, prune);
                    const KeyScore have =
                        run(qp, q.row(0), keys, j, bui, got, prune);
                    SCOPED_TRACE(testing::Message()
                                 << "cols=" << cols << " qbits=" << qbits
                                 << " bits=" << bits << " prune=" << prune
                                 << " key=" << j);
                    EXPECT_EQ(have.score, want.score);
                    EXPECT_EQ(have.planes, want.planes);
                    EXPECT_EQ(have.pruned, want.pruned);
                    EXPECT_EQ(got.maxLowerBound(), ref.maxLowerBound());
                    EXPECT_EQ(got.updates(), ref.updates());
                    pruned += want.pruned;
                }
                if (prune && bits == 8) {
                    EXPECT_GT(pruned, 0)
                        << "cols=" << cols << " qbits=" << qbits;
                }
            }
        }
}

/** A raw per-key SIMD kernel, called directly (not via keyKernel). */
PerKeyRunner
directRunner(simd::KeyKernel kernel)
{
    return [kernel](const QueryPlanes &qp, std::span<const int8_t>,
                    const BitPlaneSet &keys, int key,
                    const BuiTable &bui, GuardFilter &guard,
                    bool prune) {
        const simd::KeyGuard g{&guard, bui.lo.data(), bui.hi.data(),
                               prune};
        return kernel(qp.simdView(), keys.rowPlanes(key).data(),
                      keys.planeStride(), keys.numPlanes(),
                      keys.numPlanes(), &g);
    };
}

/** The per-key SIMD kernels this host can call directly: AVX2 where
 *  the CPU has it (or its portable stub in builds without it), and
 *  AVX-512BW where the CPU and OS support it. */
std::vector<simd::KeyKernel>
directKernels()
{
    std::vector<simd::KeyKernel> out;
    if (simd::qkAvx2Compiled() && !qkSimdAvailable())
        return out;
    out.push_back(&simd::scoreKeyAvx2);
    const simd::CpuFeatures &f = simd::cpuFeatures();
    if (f.avx512f && f.avx512bw && f.os_zmm)
        out.push_back(&simd::scoreKeyAvx512);
    return out;
}

/** Dense partial dot (planes 0..r of key @p row) through @p kernel. */
int64_t
partialDotVia(simd::KeyKernel kernel, const QueryPlanes &qp,
              const BitPlaneSet &keys, int row, int r)
{
    return kernel(qp.simdView(), keys.rowPlanes(row).data(),
                  keys.planeStride(), keys.numPlanes(), r + 1, nullptr)
        .score;
}

TEST_P(SimdTailTest, PerKeyPopcountMatchesGuardedReplay)
{
    // The guarded scan's kPopcount call, through its scan state.
    expectPerKeyMatchesReplay(
        GetParam(),
        [](const QueryPlanes &, std::span<const int8_t> q,
           const BitPlaneSet &keys, int key, const BuiTable &,
           GuardFilter &guard, bool prune) {
            ScanQuery sq;
            sq.start(q, QkKernel::kPopcount, keys.numPlanes(), guard,
                     nullptr, nullptr);
            const ScanPlan plan(QkKernel::kPopcount, keys.numPlanes(),
                                keys.planeStride(), prune);
            const KeyScore ks =
                scoreKey(QkKernelTag<QkKernel::kPopcount>{}, plan, sq,
                         keys.rowPlanes(key).data());
            guard = sq.guard;
            return ks;
        });
}

TEST_P(SimdTailTest, PerKeyAvx2MatchesGuardedReplay)
{
    // Called directly, so it stays covered on hosts where kSimd runs
    // the AVX-512BW kernel. Off-AVX2 builds run the portable stub.
    if (simd::qkAvx2Compiled() && !qkSimdAvailable())
        GTEST_SKIP() << "CPU/OS lacks AVX2";
    expectPerKeyMatchesReplay(GetParam(),
                              directRunner(&simd::scoreKeyAvx2));
}

TEST_P(SimdTailTest, PerKeyAvx512MatchesGuardedReplay)
{
    const simd::CpuFeatures &f = simd::cpuFeatures();
    if (!(f.avx512f && f.avx512bw && f.os_zmm))
        GTEST_SKIP() << "CPU/OS lacks AVX-512BW";
    if (simd::qkAvx2Compiled() && !qkSimdAvailable())
        GTEST_SKIP() << "CPU/OS lacks AVX2";
    expectPerKeyMatchesReplay(GetParam(),
                              directRunner(&simd::scoreKeyAvx512));
}

INSTANTIATE_TEST_SUITE_P(TailShapes, SimdTailTest,
                         ::testing::Values(1, 3, 31, 63, 64, 65, 96,
                                           127, 128, 129, 255, 256,
                                           257, 300, 512, 4097));

TEST(QkSimd, NarrowedQueryWidthsMatch)
{
    // assign() without an explicit width narrows to the minimal
    // covering range; the value mirror must reflect the (possibly
    // truncated) plane reconstruction, keeping all kernels identical.
    for (int qbits : {2, 3, 4, 6, 8}) {
        const int cols = 130;
        MatrixI8 q = randomRanged(1, cols, qbits, 300 + qbits);
        MatrixI8 k = randomRanged(2, cols, 8, 310 + qbits);
        BitPlaneSet planes(k, 8);
        QueryPlanes qp;
        qp.assign(q.row(0));
        EXPECT_LE(qp.numPlanes(), qbits + 1);
        for (int j = 0; j < 2; j++)
            for (int r = 0; r < 8; r++) {
                const int64_t ref =
                    partialDotScalar(q.row(0), planes, j, r);
                EXPECT_EQ(partialDotSimd(qp, planes, j, r), ref)
                    << "qbits=" << qbits;
                for (const simd::KeyKernel kernel : directKernels())
                    EXPECT_EQ(partialDotVia(kernel, qp, planes, j, r),
                              ref)
                        << "qbits=" << qbits;
            }
    }
}

TEST(QkSimd, ForcedWidthTruncationStaysConsistent)
{
    // A caller-forced width that truncates values must keep the
    // plane-domain and value-domain kernels mutually consistent
    // (both see the truncated reconstruction), so the reference is
    // the popcount kernel over the truncated planes.
    MatrixI8 q = randomRanged(1, 96, 8, 400);
    MatrixI8 k = randomRanged(2, 96, 8, 401);
    BitPlaneSet planes(k, 8);
    QueryPlanes qp;
    qp.assign(q.row(0), 4); // truncates 8-bit values to 4 bits
    for (int j = 0; j < 2; j++)
        for (int r = 0; r < 8; r++) {
            const int64_t ref = partialDot(qp, planes, j, r);
            EXPECT_EQ(partialDotSimd(qp, planes, j, r), ref);
            for (const simd::KeyKernel kernel : directKernels())
                EXPECT_EQ(partialDotVia(kernel, qp, planes, j, r), ref);
        }
}

TEST(QkSimd, AllOnesWideKeyDoesNotWrap)
{
    // The worst case for the AVX2 value kernel's 16-bit lanes: every
    // plane of a 4097-element key is all ones (each element is -1)
    // against a query of all -128, so each plane selects the whole
    // row and a lane gains -256 per 32-element chunk. The row spans
    // 129 chunks, past the 127 a 16-bit lane can hold.
    const int cols = 4097;
    MatrixI8 q(1, cols);
    MatrixI8 k(1, cols);
    for (int d = 0; d < cols; d++) {
        q.at(0, d) = -128;
        k.at(0, d) = -1;
    }
    const BitPlaneSet planes(k, 8);
    const QueryPlanes qp(q.row(0));
    EXPECT_EQ(exactDotScalar(q.row(0), planes, 0), int64_t{128} * cols);
    for (int r = 0; r < 8; r++) {
        const int64_t ref = partialDotScalar(q.row(0), planes, 0, r);
        EXPECT_EQ(partialDotSimd(qp, planes, 0, r), ref) << "r=" << r;
        for (const simd::KeyKernel kernel : directKernels())
            EXPECT_EQ(partialDotVia(kernel, qp, planes, 0, r), ref)
                << "r=" << r;
    }
}

TEST(QkSimd, ReusedQueryPlanesStayConsistent)
{
    // Workspace reuse across different shapes must rebuild the value
    // mirror correctly (stale bytes from a longer previous row must
    // not leak into the padding).
    QueryPlanes qp;
    for (int cols : {300, 65, 128, 1, 257, 64}) {
        MatrixI8 q = randomRanged(1, cols, 8, 500 + cols, 0.8);
        MatrixI8 k = randomRanged(2, cols, 8, 510 + cols);
        BitPlaneSet planes(k, 8);
        qp.assign(q.row(0));
        for (int j = 0; j < 2; j++) {
            EXPECT_EQ(exactDotSimd(qp, planes, j),
                      exactDotScalar(q.row(0), planes, j))
                << "cols=" << cols;
        }
    }
}

} // namespace
} // namespace pade
