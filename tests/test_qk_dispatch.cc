/**
 * @file
 * Tests for the QK kernel dispatch seam (core/simd/qk_dispatch.h) and
 * the SIMD backend's bit-exactness against the scalar oracle,
 * including the remainder/tail shapes that exercise masked loads and
 * padded storage: head_dims that are not multiples of the SIMD width,
 * and rows long enough that the AVX2 kernel must widen its 16-bit
 * lanes mid-row. The guarded kernels (the kPopcount pair path and
 * the AVX2 and AVX-512BW tile kernels) are checked against a replay
 * built from planeDeltaScalar and GuardFilter.
 *
 * Every parity test also passes in non-AVX2 builds (or on non-AVX2
 * hosts): directKernels() then holds only the portable AVX2 stub (or
 * nothing), which must produce the same values anyway.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <optional>
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
    // AVX-512BW tile kernel must never be selected without
    // AVX-512F/BW and OS-saved opmask + ZMM state.
    const simd::CpuFeatures &f = simd::cpuFeatures();
    if (qkSimdAvailable()) {
        EXPECT_TRUE(f.avx2);
        EXPECT_TRUE(f.os_ymm);
    }
    if (simd::tileKernel() == &simd::scanTileAvx512) {
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

// The masked-sum and plane-delta cases below call the kPopcount
// kernel only (QueryPlanes::maskedSum, planeDelta(QueryPlanes, ...));
// the SIMD kernels are covered by PerKeyAvx* and
// PartialAndExactDotSimdMatchScalar. Their CTest IDs are kept stable.
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

/** How a sweep's guards are built: band, scale and a seeded max. */
struct GuardCase
{
    double alpha = 0.5;
    double radius = 5.0;
    double logit_scale = 0.0; //!< 0: 1 / (8 * cols)
    /** Lower bound every guard observes before the scan, if any. */
    std::optional<int64_t> seed_max;
    /** The band prunes some 8-bit key (checked with pruning on). */
    bool prunes = true;
    /**
     * Applied to row 1's BUI table and guard (after staging, and the
     * same to the replay's), when the group has a row 1.
     */
    std::function<void(std::span<const int8_t> q, int bits, BuiTable &bui,
                       GuardFilter &guard)>
        edge;
};

/**
 * One tile scan under test: the kernel its rows are staged for
 * (ScanQuery::start), and the call that scores keys k0 .. k0 + n - 1
 * of @p keys against every row of @p rows (started ScanQuery objects,
 * guards included) and writes pair (i, g) to out[i * rows.size() + g].
 */
struct TileRunner
{
    QkKernel staging;
    std::function<void(const ScanPlan &plan, std::span<ScanQuery> rows,
                       const BitPlaneSet &keys, int k0, int n,
                       KeyScore *out)>
        run;
};

/** A raw SIMD tile kernel, called directly (not via tileKernel). */
TileRunner
directRunner(simd::TileKernel kernel)
{
    return {QkKernel::kSimd,
            [kernel](const ScanPlan &plan, std::span<ScanQuery> rows,
                     const BitPlaneSet &keys, int k0, int n,
                     KeyScore *out) {
                std::vector<simd::TileRow> views;
                for (ScanQuery &sq : rows)
                    views.push_back(sq.tileRow());
                kernel({keys.rowPlanes(k0).data(), plan.bits, plan.bits,
                        n, plan.prune},
                       views, out);
            }};
}

/** One expectTilesMatchReplay() configuration (see there). */
struct TileCase
{
    int cols;
    int qbits; //!< query value range
    int bits;  //!< key planes
    bool prune;
    int group; //!< query rows
    int tile;  //!< keys per runner call
};

/**
 * Score 32 keys in tiles of tc.tile keys against tc.group query rows,
 * each row's guard carried across the tiles as in a real scan, and
 * require every (key, row) pair to match the replay. Returns the
 * number of pairs the replay pruned.
 */
int
expectTileCase(const TileCase &tc, const TileRunner &run,
               const GuardCase &gc)
{
    SCOPED_TRACE(testing::Message()
                 << "cols=" << tc.cols << " qbits=" << tc.qbits
                 << " bits=" << tc.bits << " prune=" << tc.prune
                 << " group=" << tc.group << " tile=" << tc.tile);
    const int nkeys = 32;
    const auto group = static_cast<std::size_t>(tc.group);
    MatrixI8 q = randomRanged(tc.group, tc.cols, tc.qbits,
                              600 + tc.cols + tc.bits + tc.qbits +
                                  tc.group,
                              0.55);
    MatrixI8 k = randomRanged(nkeys, tc.cols, tc.bits,
                              700 + tc.cols + tc.bits);
    const BitPlaneSet keys(k, tc.bits);
    const ScanPlan plan(run.staging, tc.bits, tc.prune);
    GuardFilter fresh(gc.alpha, gc.radius,
                      gc.logit_scale > 0.0 ? gc.logit_scale
                                           : 1.0 / (8.0 * tc.cols));
    if (gc.seed_max)
        fresh.observe(*gc.seed_max);
    std::vector<ScanQuery> rows(group);
    std::vector<GuardFilter> ref(group, fresh);
    std::vector<BuiTable> bui;
    for (std::size_t g = 0; g < group; g++) {
        rows[g].start(q.row(static_cast<int>(g)), run.staging, tc.bits,
                      fresh, nullptr, nullptr);
        bui.push_back(computeBuiTable(q.row(static_cast<int>(g)),
                                      tc.bits));
    }
    if (gc.edge && group > 1) {
        gc.edge(q.row(1), tc.bits, rows[1].bui, rows[1].guard);
        gc.edge(q.row(1), tc.bits, bui[1], ref[1]);
    }
    std::vector<KeyScore> out(static_cast<std::size_t>(tc.tile) * group);
    int pruned = 0;
    for (int k0 = 0; k0 < nkeys; k0 += tc.tile) {
        const int n = std::min(tc.tile, nkeys - k0);
        run.run(plan, rows, keys, k0, n, out.data());
        for (int i = 0; i < n; i++)
            for (std::size_t g = 0; g < group; g++) {
                const KeyScore want =
                    replayGuardedKey(q.row(static_cast<int>(g)), keys,
                                     k0 + i, bui[g], ref[g], tc.prune);
                const KeyScore &have =
                    out[static_cast<std::size_t>(i) * group + g];
                EXPECT_EQ(have.score, want.score)
                    << "key " << k0 + i << " row " << g;
                EXPECT_EQ(have.planes, want.planes)
                    << "key " << k0 + i << " row " << g;
                EXPECT_EQ(have.pruned, want.pruned)
                    << "key " << k0 + i << " row " << g;
                pruned += want.pruned;
            }
        for (std::size_t g = 0; g < group; g++) {
            EXPECT_EQ(rows[g].guard.maxLowerBound(),
                      ref[g].maxLowerBound())
                << "after key " << k0 + n - 1 << " row " << g;
            EXPECT_EQ(rows[g].guard.updates(), ref[g].updates())
                << "after key " << k0 + n - 1 << " row " << g;
        }
    }
    return pruned;
}

/**
 * The tile sweep: at head_dim @p cols, every query width QueryPlanes
 * may narrow a row to (8 and 4 planes), key widths 2, 4 and 8,
 * pruning off and on, groups of 1 to 4 rows (the AVX-512BW kernel
 * scores a lone row alone, 2 as a pair, 3 as a pair and a lone row,
 * 4 as two pairs) and tiles of 1, 7 and 16 keys, each checked by
 * expectTileCase(): score, planes consumed and verdict per (key,
 * row), and each row's guard maximum and update count after every
 * tile (per key at tile length 1). The default guard band is narrow
 * enough that both verdicts occur at every head_dim.
 */
void
expectTilesMatchReplay(int cols, const TileRunner &run,
                       const GuardCase &gc = {})
{
    for (int qbits : {8, 4})
        for (int bits : {2, 4, 8})
            for (bool prune : {false, true})
                for (int group : {1, 2, 3, 4})
                    for (int tile : {1, 7, 16}) {
                        const int pruned = expectTileCase(
                            {cols, qbits, bits, prune, group, tile}, run,
                            gc);
                        if (prune && bits == 8 && gc.prunes) {
                            EXPECT_GT(pruned, 0)
                                << "cols=" << cols << " qbits=" << qbits
                                << " group=" << group
                                << " tile=" << tile;
                        }
                    }
}

/** The tile kernels this host can call directly: AVX2 where the CPU
 *  has it (or its portable stub in builds without it), and AVX-512BW
 *  where the CPU and OS support it. */
std::vector<simd::TileKernel>
directKernels()
{
    std::vector<simd::TileKernel> out;
    if (simd::qkAvx2Compiled() && !qkSimdAvailable())
        return out;
    out.push_back(&simd::scanTileAvx2);
    const simd::CpuFeatures &f = simd::cpuFeatures();
    if (f.avx512f && f.avx512bw && f.os_zmm)
        out.push_back(&simd::scanTileAvx512);
    return out;
}

/**
 * Dense partial dot (planes 0..r of key @p row) of query row @p q
 * through @p kernel, the row staged as the guarded scan stages it.
 */
int64_t
partialDotVia(simd::TileKernel kernel, std::span<const int8_t> q,
              const BitPlaneSet &keys, int row, int r)
{
    ScanQuery sq;
    sq.start(q, QkKernel::kSimd, keys.numPlanes(),
             GuardFilter(1.0, 0.0, 1.0), nullptr, nullptr);
    const simd::TileRow view = sq.tileRow();
    KeyScore out{};
    kernel({keys.rowPlanes(row).data(), keys.numPlanes(), r + 1, 1, false},
           {&view, 1}, &out);
    return out.score;
}

TEST_P(SimdTailTest, PartialAndExactDotSimdMatchScalar)
{
    const int cols = GetParam();
    for (int bits : {2, 4, 8}) {
        MatrixI8 q = randomRanged(1, cols, 8, 90 + cols);
        MatrixI8 k = randomRanged(3, cols, bits, 95 + cols);
        BitPlaneSet planes(k, bits);
        for (const simd::TileKernel kernel : directKernels())
            for (int j = 0; j < 3; j++) {
                for (int r = 0; r < bits; r++)
                    EXPECT_EQ(partialDotVia(kernel, q.row(0), planes, j, r),
                              partialDotScalar(q.row(0), planes, j, r))
                        << "cols=" << cols << " bits=" << bits
                        << " j=" << j << " r=" << r;
                int64_t ref = 0;
                for (int d = 0; d < cols; d++)
                    ref += static_cast<int64_t>(q.at(0, d)) * k.at(j, d);
                EXPECT_EQ(partialDotVia(kernel, q.row(0), planes, j,
                                        bits - 1),
                          ref);
            }
    }
}

TEST_P(SimdTailTest, PerKeyPopcountMatchesGuardedReplay)
{
    // The guarded scan's kPopcount path, pair by pair through the
    // same ScanQuery state the tile loop uses.
    expectTilesMatchReplay(
        GetParam(),
        {QkKernel::kPopcount,
         [](const ScanPlan &plan, std::span<ScanQuery> rows,
            const BitPlaneSet &keys, int k0, int n, KeyScore *out) {
             for (std::size_t g = 0; g < rows.size(); g++)
                 for (int i = 0; i < n; i++)
                     out[static_cast<std::size_t>(i) * rows.size() + g] =
                         scoreKey(QkKernelTag<QkKernel::kPopcount>{},
                                  plan, rows[g],
                                  keys.rowPlanes(k0 + i).data());
         }});
}

TEST_P(SimdTailTest, PerKeyAvx2MatchesGuardedReplay)
{
    // The AVX2 tile kernel, called directly, so it stays covered on
    // hosts where kSimd runs the AVX-512BW kernel. Off-AVX2 builds
    // run the portable stub.
    if (simd::qkAvx2Compiled() && !qkSimdAvailable())
        GTEST_SKIP() << "CPU/OS lacks AVX2";
    expectTilesMatchReplay(GetParam(),
                           directRunner(&simd::scanTileAvx2));
}

TEST_P(SimdTailTest, PerKeyAvx512MatchesGuardedReplay)
{
    const simd::CpuFeatures &f = simd::cpuFeatures();
    if (!(f.avx512f && f.avx512bw && f.os_zmm))
        GTEST_SKIP() << "CPU/OS lacks AVX-512BW";
    if (simd::qkAvx2Compiled() && !qkSimdAvailable())
        GTEST_SKIP() << "CPU/OS lacks AVX2";
    expectTilesMatchReplay(GetParam(),
                           directRunner(&simd::scanTileAvx512));
}

INSTANTIATE_TEST_SUITE_P(TailShapes, SimdTailTest,
                         ::testing::Values(1, 3, 31, 63, 64, 65, 96,
                                           127, 128, 129, 255, 256,
                                           257, 300, 512, 4097));

TEST(QkSimd, SaturatedThresholdTilesMatchReplay)
{
    // Margins so wide that max(LB) - margin falls below INT64_MIN:
    // threshold() saturates there, and the tile kernels' lane-wise
    // threshold must saturate with it. 2^63 - 1024 is the widest
    // margin a double converts exactly; 1e30 saturates the margin
    // itself at INT64_MAX.
    for (double radius : {0x1p63 - 1024.0, 1e30}) {
        GuardCase gc;
        gc.alpha = 1.0;
        gc.radius = radius;
        gc.logit_scale = 1.0;
        gc.prunes = false;
        GuardFilter probe(gc.alpha, gc.radius, gc.logit_scale);
        probe.observe(-2048);
        ASSERT_EQ(probe.threshold(), INT64_MIN) << "radius " << radius;
        for (const simd::TileKernel kernel : directKernels())
            for (int cols : {64, 65})
                expectTilesMatchReplay(cols, directRunner(kernel), gc);
    }
}

TEST(QkSimd, FirstKeyPrunedAtPlaneOne)
{
    // A guard that has already seen a lower bound no key can reach
    // prunes the first key of the first tile at its sign plane, the
    // lane-0 stop of the vector decision, with no threshold update.
    const int64_t seeded = int64_t{1} << 40;
    for (int cols : {64, 96}) {
        MatrixI8 q = randomRanged(1, cols, 8, 900 + cols);
        MatrixI8 k = randomRanged(4, cols, 8, 910 + cols);
        const BitPlaneSet keys(k, 8);
        const BuiTable bui = computeBuiTable(q.row(0), 8);
        GuardFilter ref(0.5, 5.0, 1.0 / (8.0 * cols));
        ref.observe(seeded);
        GuardFilter replay = ref;
        const KeyScore want =
            replayGuardedKey(q.row(0), keys, 0, bui, replay, true);
        ASSERT_TRUE(want.pruned);
        ASSERT_EQ(want.planes, 1);
        const ScanPlan plan(QkKernel::kSimd, 8, true);
        for (const simd::TileKernel kernel : directKernels()) {
            std::vector<ScanQuery> rows(1);
            rows[0].start(q.row(0), QkKernel::kSimd, 8, ref, nullptr,
                          nullptr);
            KeyScore out[4];
            directRunner(kernel).run(plan, rows, keys, 0, 4, out);
            EXPECT_EQ(out[0].score, want.score);
            EXPECT_EQ(out[0].planes, 1);
            EXPECT_TRUE(out[0].pruned);
            EXPECT_EQ(rows[0].guard.maxLowerBound(), seeded);
            EXPECT_EQ(rows[0].guard.updates(), ref.updates());
        }
        GuardCase gc;
        gc.seed_max = seeded;
        for (const simd::TileKernel kernel : directKernels())
            expectTilesMatchReplay(cols, directRunner(kernel), gc);
    }
}

TEST(QkSimd, FirstObserveCountsAtLowestBound)
{
    // An unseen guard counts its first observe as an update even when
    // that lower bound is INT64_MIN, the guard's initial maximum: an
    // all-zero key has S^r = 0, so lo[0] = INT64_MIN makes lb[0] equal
    // the maximum it would have to beat.
    const int cols = 64;
    MatrixI8 q = randomRanged(1, cols, 8, 950);
    const MatrixI8 k(1, cols); // zero-initialized
    const BitPlaneSet keys(k, 8);
    int64_t lo[simd::kMaxTilePlanes] = {INT64_MIN};
    const int64_t hi[simd::kMaxTilePlanes] = {};
    ScanQuery sq;
    sq.start(q.row(0), QkKernel::kSimd, 8, GuardFilter(1.0, 5.0, 1.0),
             nullptr, nullptr);
    GuardFilter want(1.0, 5.0, 1.0);
    for (int r = 0; r < 8; r++)
        want.observe(0 + lo[r]);
    ASSERT_EQ(want.updates(), 2u);
    for (const simd::TileKernel kernel : directKernels()) {
        GuardFilter got(1.0, 5.0, 1.0);
        const simd::TileRow row{sq.tileRow().q, lo, hi, &got};
        KeyScore out{};
        kernel({keys.rowPlanes(0).data(), 8, 8, 1, false}, {&row, 1},
               &out);
        EXPECT_EQ(out.score, 0);
        EXPECT_EQ(got.updates(), want.updates());
        EXPECT_EQ(got.maxLowerBound(), want.maxLowerBound());
    }
}

TEST(QkSimd, NarrowedQueryWidthsMatch)
{
    // assign() without an explicit width narrows to the minimal
    // covering range, which must still reconstruct the row exactly:
    // the popcount kernel over the narrowed planes and the tile
    // kernels over the row's bytes agree with the scalar oracle.
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
                EXPECT_EQ(partialDot(qp, planes, j, r), ref)
                    << "qbits=" << qbits;
                for (const simd::TileKernel kernel : directKernels())
                    EXPECT_EQ(partialDotVia(kernel, q.row(0), planes, j, r),
                              ref)
                        << "qbits=" << qbits;
            }
    }
}

TEST(QkSimd, ForcedWidthTruncationStaysConsistent)
{
    // A caller-forced width that truncates values packs each value's
    // sign-extended low bits, so the popcount kernel scores exactly
    // the truncated row.
    const int cols = 96;
    MatrixI8 q = randomRanged(1, cols, 8, 400);
    MatrixI8 k = randomRanged(2, cols, 8, 401);
    BitPlaneSet planes(k, 8);
    QueryPlanes qp;
    qp.assign(q.row(0), 4); // truncates 8-bit values to 4 bits
    std::vector<int8_t> truncated(cols);
    for (int d = 0; d < cols; d++)
        truncated[static_cast<std::size_t>(d)] = static_cast<int8_t>(
            static_cast<int8_t>(q.at(0, d) << 4) >> 4);
    for (int j = 0; j < 2; j++)
        for (int r = 0; r < 8; r++)
            EXPECT_EQ(partialDot(qp, planes, j, r),
                      partialDotScalar(truncated, planes, j, r));
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
    EXPECT_EQ(exactDotScalar(q.row(0), planes, 0), int64_t{128} * cols);
    for (int r = 0; r < 8; r++) {
        const int64_t ref = partialDotScalar(q.row(0), planes, 0, r);
        for (const simd::TileKernel kernel : directKernels())
            EXPECT_EQ(partialDotVia(kernel, q.row(0), planes, 0, r), ref)
                << "r=" << r;
    }
}

/**
 * The extreme lane values the AVX-512BW kernel's pair path would hold
 * for a row (qk_avx512.cc): the lowest of lo[p] - corr[p] and
 * hi[p] - corr[p] over the planes, and the highest plus U, the largest
 * biased prefix score. corr[p] is the bias plane p's prefix carries:
 * the row's biased byte sum (q + 128 per element, 128 past cols) times
 * 2^{bits-1}, plus 128 * 64 per key word times each later plane's
 * weight. The pair path takes the row only when both lie strictly
 * inside +-2^30 and its guard max does too.
 */
struct PairLaneRange
{
    int64_t low;
    int64_t high;
};

PairLaneRange
pairLaneRange(std::span<const int8_t> q, int bits, const BuiTable &bui)
{
    const auto cols = static_cast<int64_t>(q.size());
    const int64_t words = (cols + 63) / 64;
    int64_t biased = 128 * (64 * words - cols);
    for (int8_t x : q)
        biased += x + 128;
    const int64_t reach = 255 * 64 * words * ((int64_t{1} << bits) - 1);
    int64_t corr = biased << (bits - 1);
    PairLaneRange r{INT64_MAX, INT64_MIN};
    for (int p = 0; p < bits; p++) {
        if (p > 0)
            corr += (128 * 64 * words) << std::max(0, bits - 1 - p);
        for (int64_t bound : {bui.lo[p], bui.hi[p]}) {
            r.low = std::min(r.low, bound - corr);
            r.high = std::max(r.high, bound - corr + reach);
        }
    }
    return r;
}

TEST(QkSimd, PairLaneEdgesMatchReplay)
{
    // Row 1 of each group sits at an edge of the pair path's lane
    // range, while the group's other rows are ordinary: a guard max or
    // BUI bounds just inside +-2^30 keep it paired with row 0, and
    // just outside send it to the 64-bit row path beside its in-range
    // partners. The bounds move by one constant per row, which shifts
    // every lower bound, upper bound and the guard max alike, so the
    // verdicts stay those of an ordinary row, now at the edge.
    const int64_t edge = int64_t{1} << 30;
    const auto shifted = [](int64_t (*target)(const PairLaneRange &)) {
        return [target](std::span<const int8_t> q, int bits, BuiTable &bui,
                        GuardFilter &) {
            const int64_t d = target(pairLaneRange(q, bits, bui));
            for (int p = 0; p < bits; p++) {
                bui.lo[p] += d;
                bui.hi[p] += d;
            }
        };
    };
    const auto seeded = [](int64_t max) {
        return [max](std::span<const int8_t>, int, BuiTable &,
                     GuardFilter &guard) { guard.observe(max); };
    };
    struct Edge
    {
        const char *what;
        decltype(GuardCase::edge) apply;
        bool saturated = false; //!< margin past 2^31 (radius 1e30)
    };
    const Edge edges[] = {
        {"top lane 2^30 - 1",
         shifted([](const PairLaneRange &r) { return (edge - 1) - r.high; })},
        {"top lane 2^30",
         shifted([](const PairLaneRange &r) { return edge - r.high; })},
        {"bottom lane -2^30 + 1",
         shifted([](const PairLaneRange &r) { return (1 - edge) - r.low; })},
        {"bottom lane -2^30",
         shifted([](const PairLaneRange &r) { return -edge - r.low; })},
        {"guard max 2^30 - 1", seeded(edge - 1)},
        {"guard max 2^30", seeded(edge)},
        {"guard max -2^30 + 1", seeded(1 - edge)},
        {"guard max -2^30", seeded(-edge)},
        // Past 32 bits: bounds that a 32-bit lane cannot hold at all.
        {"bottom lane 2^31",
         shifted([](const PairLaneRange &r) { return 2 * edge - r.low; })},
        // Inside 32 bits but past 2^30: with a margin saturated at
        // 2^31 - 1, max - margin would read -1 and prune keys a 64-bit
        // threshold never prunes.
        {"guard max 2^31 - 2, saturated margin", seeded(2 * edge - 2),
         true},
    };
    for (const Edge &e : edges) {
        SCOPED_TRACE(e.what);
        GuardCase gc;
        gc.prunes = false;
        gc.edge = e.apply;
        if (e.saturated) {
            gc.alpha = 1.0;
            gc.radius = 1e30;
            gc.logit_scale = 1.0;
        }
        for (const simd::TileKernel kernel : directKernels())
            for (int cols : {64, 65, 128})
                expectTilesMatchReplay(cols, directRunner(kernel), gc);
    }
    // The shifted rows' extremes land where the cases say.
    MatrixI8 q = randomRanged(1, 64, 8, 777, 0.55);
    GuardFilter unused(1.0, 5.0, 1.0);
    const int64_t want[] = {edge - 1, edge, 1 - edge, -edge};
    for (int c = 0; c < 4; c++) {
        BuiTable bui = computeBuiTable(q.row(0), 8);
        edges[c].apply(q.row(0), 8, bui, unused);
        const PairLaneRange r = pairLaneRange(q.row(0), 8, bui);
        EXPECT_EQ(c < 2 ? r.high : r.low, want[c]) << edges[c].what;
    }
}

TEST(QkSimd, WidestLegalRowsScoreExactly)
{
    // bits * head_dim <= kMaxWorkPrefixElems (65535): at 8, 4 and 2
    // bits the widest rows are 8191, 16383 and 32767 elements. Key 0
    // is all ones (every element -1) against a query of all -128, 128
    // per element; key 1 holds the largest value against a query of
    // all 127, which puts the pair path's biased plane sums at their
    // largest. Groups of 1, 2 and 4 rows run the row path, one pair
    // and two pairs; every partial score must be exact.
    for (const auto &[bits, cols] :
         {std::pair{8, 8191}, std::pair{4, 16383}, std::pair{2, 32767}}) {
        SCOPED_TRACE(testing::Message() << "bits=" << bits);
        ASSERT_LE(bits * cols, kMaxWorkPrefixElems);
        ASSERT_GT(bits * (cols + 1), kMaxWorkPrefixElems);
        MatrixI8 q(2, cols);
        MatrixI8 k(2, cols);
        for (int d = 0; d < cols; d++) {
            q.at(0, d) = -128;
            k.at(0, d) = -1;
            q.at(1, d) = 127;
            k.at(1, d) = static_cast<int8_t>((1 << (bits - 1)) - 1);
        }
        const BitPlaneSet planes(k, bits);
        EXPECT_EQ(exactDotScalar(q.row(0), planes, 0), int64_t{128} * cols);
        for (int group : {1, 2, 4}) {
            std::vector<ScanQuery> rows(static_cast<std::size_t>(group));
            std::vector<simd::TileRow> views;
            for (int g = 0; g < group; g++) {
                rows[static_cast<std::size_t>(g)].start(
                    q.row(g % 2), QkKernel::kSimd, bits,
                    GuardFilter(1.0, 0.0, 1.0), nullptr, nullptr);
                views.push_back(rows[static_cast<std::size_t>(g)].tileRow());
            }
            for (const simd::TileKernel kernel : directKernels())
                for (int r = 0; r < bits; r++) {
                    std::vector<KeyScore> out(
                        2 * static_cast<std::size_t>(group));
                    kernel({planes.rowPlanes(0).data(), bits, r + 1, 2,
                            false},
                           views, out.data());
                    for (int key = 0; key < 2; key++)
                        for (int g = 0; g < group; g++)
                            EXPECT_EQ(
                                out[static_cast<std::size_t>(key * group + g)]
                                    .score,
                                partialDotScalar(q.row(g % 2), planes, key, r))
                                << "group=" << group << " key=" << key
                                << " row=" << g << " r=" << r;
                }
        }
    }
}

TEST(QkSimd, ReusedQueryPlanesStayConsistent)
{
    // Workspace reuse across different shapes must repack the planes
    // from scratch: no bits of a longer previous row may survive.
    QueryPlanes qp;
    for (int cols : {300, 65, 128, 1, 257, 64}) {
        MatrixI8 q = randomRanged(1, cols, 8, 500 + cols, 0.8);
        MatrixI8 k = randomRanged(2, cols, 8, 510 + cols);
        BitPlaneSet planes(k, 8);
        qp.assign(q.row(0));
        for (int j = 0; j < 2; j++) {
            EXPECT_EQ(exactDot(qp, planes, j),
                      exactDotScalar(q.row(0), planes, j))
                << "cols=" << cols;
        }
    }
}

TEST(QkSimd, ReusedScanQueryStaysConsistent)
{
    // The same for the bytes kSimd stages: a reused ScanQuery holds
    // exactly the new row, zero-padded to 32 bytes, however long the
    // previous row was.
    ScanQuery sq;
    for (int cols : {300, 65, 128, 1, 257, 64}) {
        MatrixI8 q = randomRanged(1, cols, 8, 520 + cols, 0.8);
        MatrixI8 k = randomRanged(2, cols, 8, 530 + cols);
        BitPlaneSet planes(k, 8);
        sq.start(q.row(0), QkKernel::kSimd, 8, GuardFilter(1.0, 0.0, 1.0),
                 nullptr, nullptr);
        ASSERT_EQ(sq.bytes.size(),
                  static_cast<std::size_t>((cols + 31) / 32 * 32));
        for (int d = 0; d < cols; d++)
            EXPECT_EQ(sq.bytes[static_cast<std::size_t>(d)], q.at(0, d));
        for (std::size_t d = static_cast<std::size_t>(cols);
             d < sq.bytes.size(); d++)
            EXPECT_EQ(sq.bytes[d], 0) << "cols=" << cols;
        const simd::TileRow view = sq.tileRow();
        for (const simd::TileKernel kernel : directKernels())
            for (int j = 0; j < 2; j++) {
                KeyScore out{};
                kernel({planes.rowPlanes(j).data(), 8, 8, 1, false},
                       {&view, 1}, &out);
                EXPECT_EQ(out.score, exactDotScalar(q.row(0), planes, j))
                    << "cols=" << cols;
            }
    }
}

} // namespace
} // namespace pade
