/**
 * @file
 * Serving-layer tests: incremental bit-plane KV cache, the
 * decode engine's single-query bit-identity with batch padeAttention
 * across all three QK kernels, and the continuous batcher's
 * scheduling/determinism contracts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/pade_attention.h"
#include "core/simd/qk_dispatch.h"
#include "obs/telemetry.h"
#include "serving/continuous_batcher.h"
#include "serving/decode_engine.h"
#include "serving/kv_cache.h"
#include "workload/generator.h"

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

MatrixI8
firstRows(const MatrixI8 &m, int n)
{
    MatrixI8 out(n, m.cols());
    for (int r = 0; r < n; r++)
        for (int c = 0; c < m.cols(); c++)
            out.at(r, c) = m.at(r, c);
    return out;
}

MatrixI8
oneRow(const MatrixI8 &m, int r)
{
    MatrixI8 out(1, m.cols());
    for (int c = 0; c < m.cols(); c++)
        out.at(0, c) = m.at(r, c);
    return out;
}

/**
 * From-scratch reference for decode step: the first @p n_keys rows of
 * @p full packed anew, with query row @p q_row as the only query. The
 * quantization params are shared with @p full, so logit_scale and all
 * integer values match the incremental path exactly.
 */
QuantizedHead
subHead(const QuantizedHead &full, int n_keys, int q_row,
        float base_scale)
{
    const int bits = full.k_planes.numPlanes();
    Quantized q{oneRow(full.q.values, q_row), full.q.params};
    Quantized k{firstRows(full.k.values, n_keys), full.k.params};
    Quantized v{firstRows(full.v.values, n_keys), full.v.params};
    return QuantizedHead(std::move(q), std::move(k), std::move(v),
                         bits, base_scale);
}

// ---------------------------------------------------------------------
// BitPlaneSet::appendToken — bit-identity with the matrix constructor.
// ---------------------------------------------------------------------

TEST(AppendToken, ParityWithFullRepackAtTailShapes)
{
    // The satellite shapes: word boundaries (63/65), the SIMD
    // pair-register edge (127), a single column, and a 5-word row.
    for (int head_dim : {1, 63, 65, 127, 257}) {
        for (int bits : {4, 8}) {
            const MatrixI8 m =
                randomInt8(21, head_dim,
                           17u + static_cast<uint64_t>(head_dim), bits);
            const BitPlaneSet full(m, bits);

            BitPlaneSet inc(head_dim, bits, m.rows());
            EXPECT_EQ(inc.numRows(), 0);
            for (int r = 0; r < m.rows(); r++)
                inc.appendToken(m.row(r));

            ASSERT_EQ(inc.numRows(), full.numRows());
            ASSERT_EQ(inc.numCols(), full.numCols());
            ASSERT_EQ(inc.numPlanes(), full.numPlanes());
            ASSERT_EQ(inc.wordsPerPlane(), full.wordsPerPlane());
            for (int row = 0; row < m.rows(); row++) {
                for (int p = 0; p < bits; p++) {
                    auto a = inc.plane(row, p);
                    auto b = full.plane(row, p);
                    for (std::size_t w = 0; w < a.size(); w++)
                        EXPECT_EQ(a[w], b[w])
                            << "hdim " << head_dim << " bits " << bits
                            << " row " << row << " plane " << p
                            << " word " << w;
                }
            }
        }
    }
}

TEST(AppendToken, GrowthBeyondReservedCapacityStaysCorrect)
{
    // capacity_rows is a reservation, not a limit: exceeding it may
    // reallocate but must preserve contents.
    const MatrixI8 m = randomInt8(40, 33, 11);
    BitPlaneSet inc(33, 8, 4);
    for (int r = 0; r < m.rows(); r++)
        inc.appendToken(m.row(r));
    const BitPlaneSet full(m, 8);
    for (int row = 0; row < m.rows(); row++)
        for (int p = 0; p < 8; p++) {
            auto a = inc.plane(row, p);
            auto b = full.plane(row, p);
            for (std::size_t w = 0; w < a.size(); w++)
                EXPECT_EQ(a[w], b[w]);
        }
}

// ---------------------------------------------------------------------
// KvCache paging.
// ---------------------------------------------------------------------

TEST(KvCache, PagingGeometryAndValueRows)
{
    KvCacheConfig kc;
    kc.head_dim = 16;
    kc.bits = 8;
    kc.page_tokens = 4;
    kc.v_scale = 0.5f;
    KvCache cache(kc);
    EXPECT_EQ(cache.size(), 0);
    EXPECT_EQ(cache.numPages(), 0);

    const MatrixI8 keys = randomInt8(11, 16, 5);
    const MatrixI8 vals = randomInt8(11, 16, 6);
    for (int t = 0; t < 11; t++)
        cache.appendToken(keys.row(t), vals.row(t));

    EXPECT_EQ(cache.size(), 11);
    EXPECT_EQ(cache.numPages(), 3);
    EXPECT_EQ(cache.pageOf(0), 0);
    EXPECT_EQ(cache.pageOf(3), 0);
    EXPECT_EQ(cache.pageOf(4), 1);
    EXPECT_EQ(cache.rowOf(4), 0);
    EXPECT_EQ(cache.pageOf(10), 2);
    EXPECT_EQ(cache.rowOf(10), 2);
    EXPECT_EQ(cache.pagePlanes(0).numRows(), 4);
    EXPECT_EQ(cache.pagePlanes(2).numRows(), 3);
    EXPECT_GT(cache.bytesUsed(), 0u);

    // Value rows are the int8 rows as appended, addressable
    // globally; the value stage applies the config's scale.
    EXPECT_EQ(cache.config().v_scale, 0.5f);
    for (int t = 0; t < 11; t++) {
        auto v = cache.valueRow(t);
        ASSERT_EQ(static_cast<int>(v.size()), 16);
        for (int d = 0; d < 16; d++)
            EXPECT_EQ(v[d], vals.at(t, d));
    }

    // Cached WorkPrefix entries are the running sums of a fresh
    // PlaneWork computation on the page, plane by plane.
    for (int t = 0; t < 11; t++) {
        const BitPlaneSet &p = cache.pagePlanes(cache.pageOf(t));
        int bs = 0;
        int naive = 0;
        for (int r = 0; r < kc.bits; r++) {
            const PlaneWork fresh = planeWork(p, cache.rowOf(t), r,
                                              kc.subgroup, kc.muxes);
            bs += fresh.selected_bs;
            naive += fresh.selected_naive;
            const WorkPrefix &cached = cache.work(t, r);
            EXPECT_EQ(cached.bs, bs) << "token " << t << " plane " << r;
            EXPECT_EQ(cached.naive, naive)
                << "token " << t << " plane " << r;
        }
    }
}

TEST(KvCacheDeathTest, WorkPrefixCapAbortsInEveryBuild)
{
    // Each token's WorkPrefix row holds 16-bit running sums, so the
    // constructor refuses bits * head_dim past kMaxWorkPrefixElems
    // (65535): an 8-bit head_dim of 8192 is one element past it.
    const auto make = [](int head_dim, int bits) {
        KvCacheConfig kc;
        kc.head_dim = head_dim;
        kc.bits = bits;
        kc.page_tokens = 2;
        return KvCache(kc);
    };
    EXPECT_DEATH(make(8192, 8), "PADE_CHECK.*kMaxWorkPrefixElems");
    // At the cap (5 bits, head_dim 13107) an all-ones key selects
    // every element of every plane ones-only: the last running sum is
    // exactly 65535.
    KvCache cache = make(13107, 5);
    const std::vector<int8_t> k_row(13107, -1);
    const std::vector<int8_t> v_row(13107, 0);
    cache.appendToken(k_row, v_row);
    for (int r = 0; r < 5; r++) {
        EXPECT_EQ(cache.work(0, r).naive, 13107 * (r + 1));
        EXPECT_EQ(cache.work(0, r).bs, 0);
    }
}

TEST(KvCacheDeathTest, OutOfRangeKeyAbortsInEveryBuild)
{
    // A 4-bit key holds [-8, 7]. Packed anyway, 9 would be stored and
    // scored as -7, so an append outside the range aborts.
    KvCacheConfig kc;
    kc.head_dim = 16;
    kc.bits = 4;
    kc.page_tokens = 4;
    const auto append = [&kc](int8_t key) {
        KvCache cache(kc);
        std::vector<int8_t> k_row(16, 0);
        k_row[5] = key;
        cache.appendToken(k_row, std::vector<int8_t>(16, 0));
        return cache.pagePlanes(0).reconstruct(0, 5, kc.bits - 1);
    };
    EXPECT_EQ(append(7), 7);
    EXPECT_EQ(append(-8), -8);
    EXPECT_DEATH(append(8), "PADE_CHECK");
    EXPECT_DEATH(append(-9), "PADE_CHECK");
}

TEST(KvCache, PageBytesAreTheLogicalLayout)
{
    // Per token a page holds bits key planes of ceil(head_dim / 64)
    // words each with no padding, one int8 V row (1 byte per element)
    // and one 4-byte WorkPrefix per plane; key rows sit back to back
    // (160 B per token at head_dim 64 and 8 bits).
    for (int head_dim : {1, 63, 64, 65, 128}) {
        for (int bits : {4, 8}) {
            SCOPED_TRACE(testing::Message()
                         << "head_dim " << head_dim << " bits " << bits);
            KvCacheConfig kc;
            kc.head_dim = head_dim;
            kc.bits = bits;
            kc.page_tokens = 4;
            const int words = (head_dim + 63) / 64;
            const KvPage page(kc);
            EXPECT_EQ(kvPageBytes(page) / kc.page_tokens,
                      static_cast<std::size_t>(bits * words * 8 +
                                               head_dim + 4 * bits));

            KvCache cache(kc);
            const MatrixI8 keys = randomInt8(3, head_dim, 40, bits);
            const MatrixI8 vals = randomInt8(3, head_dim, 41);
            for (int t = 0; t < 3; t++)
                cache.appendToken(keys.row(t), vals.row(t));
            const BitPlaneSet &planes = cache.pagePlanes(0);
            ASSERT_EQ(planes.wordsPerPlane(), words);
            for (int row = 0; row < 2; row++) {
                EXPECT_EQ(planes.rowPlanes(row).size(),
                          static_cast<std::size_t>(bits * words));
                EXPECT_EQ(planes.rowPlanes(row + 1).data() -
                              planes.rowPlanes(row).data(),
                          bits * words);
            }
        }
    }
}

TEST(KvCache, SpansStayValidAcrossAppends)
{
    // Fixed-capacity pages must never relocate existing storage: a
    // span taken before later appends still reads the same memory.
    KvCacheConfig kc;
    kc.head_dim = 32;
    kc.page_tokens = 8;
    KvCache cache(kc);
    const MatrixI8 keys = randomInt8(24, 32, 7);
    const MatrixI8 vals = randomInt8(24, 32, 8);
    cache.appendToken(keys.row(0), vals.row(0));
    const int8_t *v0 = cache.valueRow(0).data();
    const uint64_t *p0 = cache.pagePlanes(0).plane(0, 0).data();
    for (int t = 1; t < 24; t++)
        cache.appendToken(keys.row(t), vals.row(t));
    EXPECT_EQ(cache.valueRow(0).data(), v0);
    EXPECT_EQ(cache.pagePlanes(0).plane(0, 0).data(), p0);
}

// ---------------------------------------------------------------------
// DecodeEngine — bit-identity with batch padeAttention.
// ---------------------------------------------------------------------

void
expectDecodeMatchesBatch(QkKernel kernel, int bits, int page_tokens,
                         int head_dim)
{
    const int prompt = 70;
    const int steps = 5;
    WorkloadSpec spec;
    spec.seq_len = prompt + steps;
    spec.query_len = steps;
    spec.head_dim = head_dim;
    spec.seed = 99;
    const AttentionHead fh = generateHead(spec);
    const QuantizedHead full = quantizeHead(fh, bits);

    PadeConfig cfg;
    cfg.qk_kernel = kernel;

    KvCacheConfig kc;
    kc.head_dim = head_dim;
    kc.bits = bits;
    kc.page_tokens = page_tokens;
    kc.v_scale = full.v.params.scale;
    KvCache cache(kc);
    DecodeEngine engine(cfg);

    for (int t = 0; t < prompt; t++)
        cache.appendToken(full.k.values.row(t), full.v.values.row(t));

    MatrixF out(1, head_dim);
    for (int t = 0; t < steps; t++) {
        const int pos = prompt + t;
        cache.appendToken(full.k.values.row(pos),
                          full.v.values.row(pos));

        const PruneStats before = engine.stats();
        const DecodeStep st = engine.stepGroup(
            cache, full.q.values, t, 1, full.logit_scale, out, 0);

        // From-scratch reference: re-pack the whole history, run the
        // batch algorithm with this step's query as the only row.
        const QuantizedHead ref = subHead(full, pos + 1, t, fh.scale);
        const PadeResult r = padeAttention(ref, cfg);

        EXPECT_EQ(st.keys, pos + 1);
        EXPECT_EQ(static_cast<uint64_t>(st.retained),
                  r.stats.keys_retained);
        EXPECT_EQ(st.planes, r.stats.planes_processed);

        // Output row: bit-for-bit.
        for (int d = 0; d < head_dim; d++)
            EXPECT_EQ(std::bit_cast<uint32_t>(out.at(0, d)),
                      std::bit_cast<uint32_t>(r.out.at(0, d)))
                << "step " << t << " dim " << d;

        // Keep mask, planes-consumed trace, retained scan order.
        auto keep = engine.lastKeep();
        auto planes = engine.lastPlanes();
        ASSERT_EQ(static_cast<int>(keep.size()), pos + 1);
        for (int j = 0; j <= pos; j++) {
            EXPECT_EQ(keep[static_cast<std::size_t>(j)],
                      r.keep.at(0, j));
            EXPECT_EQ(planes[static_cast<std::size_t>(j)],
                      r.planes.at(0, j));
        }
        auto retained = engine.lastRetained();
        ASSERT_EQ(retained.size(), r.retained[0].size());
        for (std::size_t i = 0; i < retained.size(); i++)
            EXPECT_EQ(retained[i], r.retained[0][i]);

        // Stats: the step's deltas equal the one-query batch stats.
        const PruneStats &after = engine.stats();
        EXPECT_EQ(after.planes_processed - before.planes_processed,
                  r.stats.planes_processed);
        EXPECT_EQ(after.planes_total - before.planes_total,
                  r.stats.planes_total);
        EXPECT_EQ(after.keys_retained - before.keys_retained,
                  r.stats.keys_retained);
        EXPECT_EQ(after.keys_total - before.keys_total,
                  r.stats.keys_total);
        EXPECT_EQ(after.ops_bs - before.ops_bs, r.stats.ops_bs);
        EXPECT_EQ(after.ops_naive - before.ops_naive,
                  r.stats.ops_naive);
        EXPECT_EQ(after.max_updates - before.max_updates,
                  r.stats.max_updates);
        EXPECT_EQ(after.rescale_ops - before.rescale_ops,
                  r.stats.rescale_ops);
        EXPECT_EQ(after.threshold_updates - before.threshold_updates,
                  r.stats.threshold_updates);
    }
}

TEST(DecodeEngine, BitIdenticalToBatchScalar)
{
    expectDecodeMatchesBatch(QkKernel::kScalar, 8, 16, 64);
}

TEST(DecodeEngine, BitIdenticalToBatchPopcount)
{
    expectDecodeMatchesBatch(QkKernel::kPopcount, 8, 16, 64);
}

TEST(DecodeEngine, BitIdenticalToBatchSimd)
{
    // Resolves to kPopcount when AVX2 is compiled out/unavailable;
    // the parity contract must hold either way.
    expectDecodeMatchesBatch(QkKernel::kSimd, 8, 16, 64);
}

TEST(DecodeEngine, BitIdenticalAtInt4AndOddShapes)
{
    // Narrow planes, page boundary inside a tile, non-power-of-two
    // head_dim exercising the SIMD tail path.
    expectDecodeMatchesBatch(QkKernel::kSimd, 4, 16, 96);
    expectDecodeMatchesBatch(QkKernel::kPopcount, 4, 10, 65);
    // page_tokens 24 against tile_bc 16: the decode scan splits tile
    // [16, 32) (and every third tile after it) into two kSimd tile
    // calls at a page boundary, which the batch scan does not.
    expectDecodeMatchesBatch(QkKernel::kSimd, 8, 24, 64);
    expectDecodeMatchesBatch(QkKernel::kSimd, 4, 24, 65);
}

TEST(DecodeEngine, SinglePageAndUnguardedDense)
{
    // guard_enabled=false runs every plane of every key (dense
    // bit-serial) — the ablation config must match batch too.
    const int h = 32;
    const int prompt = 20;
    WorkloadSpec spec;
    spec.seq_len = prompt + 1;
    spec.query_len = 1;
    spec.head_dim = h;
    spec.seed = 5;
    const AttentionHead fh = generateHead(spec);
    const QuantizedHead full = quantizeHead(fh, 8);

    PadeConfig cfg;
    cfg.guard_enabled = false;

    KvCacheConfig kc;
    kc.head_dim = h;
    kc.page_tokens = 256;
    kc.v_scale = full.v.params.scale;
    KvCache cache(kc);
    for (int t = 0; t <= prompt; t++)
        cache.appendToken(full.k.values.row(t), full.v.values.row(t));
    EXPECT_EQ(cache.numPages(), 1);

    DecodeEngine engine(cfg);
    MatrixF out(1, h);
    const DecodeStep st = engine.stepGroup(cache, full.q.values, 0, 1,
                                           full.logit_scale, out, 0);
    EXPECT_EQ(st.retained, prompt + 1);
    EXPECT_EQ(st.planes, static_cast<uint64_t>(8 * (prompt + 1)));

    const QuantizedHead ref = subHead(full, prompt + 1, 0, fh.scale);
    const PadeResult r = padeAttention(ref, cfg);
    for (int d = 0; d < h; d++)
        EXPECT_EQ(std::bit_cast<uint32_t>(out.at(0, d)),
                  std::bit_cast<uint32_t>(r.out.at(0, d)));
}

// ---------------------------------------------------------------------
// ContinuousBatcher.
// ---------------------------------------------------------------------

TEST(ContinuousBatcher, CompletesEveryRequestAndRespectsSlots)
{
    TraceSpec ts;
    ts.num_requests = 6;
    ts.rate_per_s = 5000.0;
    ts.prompt_min = 8;
    ts.prompt_max = 24;
    ts.decode_min = 2;
    ts.decode_max = 5;
    ts.seed = 21;
    const std::vector<ServingRequest> trace = poissonArrivalTrace(ts);

    BatcherOptions opt;
    opt.threads = 2;
    opt.max_active = 2;
    opt.prefill_chunk = 8;
    opt.head_dim = 32;
    const ServingReport rep = ContinuousBatcher(opt).run(trace);

    ASSERT_EQ(rep.sessions.size(), trace.size());
    EXPECT_LE(rep.peak_active, 2);
    EXPECT_GE(rep.peak_active, 1);
    EXPECT_GT(rep.rounds, 0);
    EXPECT_GT(rep.peak_cache_bytes, 0u);

    uint64_t decoded = 0;
    uint64_t prefilled = 0;
    for (std::size_t i = 0; i < trace.size(); i++) {
        const SessionStats &s = rep.sessions[i];
        EXPECT_EQ(s.prompt_len, trace[i].prompt_len);
        EXPECT_EQ(s.decode_steps, trace[i].decode_steps);
        EXPECT_GE(s.admit_ms, s.arrival_ms);
        EXPECT_GE(s.first_token_ms, s.admit_ms);
        EXPECT_GE(s.finish_ms, s.first_token_ms);
        EXPECT_NE(s.checksum, 0u);
        decoded += static_cast<uint64_t>(s.decode_steps);
        prefilled += static_cast<uint64_t>(s.prompt_len);
    }
    EXPECT_EQ(rep.tokens_decoded, decoded);
    EXPECT_EQ(rep.tokens_prefilled, prefilled);
    EXPECT_GE(rep.latency_ms.p99, rep.latency_ms.p95);
    EXPECT_GE(rep.latency_ms.p95, rep.latency_ms.p50);
    EXPECT_GT(rep.latency_ms.p50, 0.0);
}

TEST(ContinuousBatcherDeathTest, InvalidPadeConfigAbortsInEveryBuild)
{
    // The serving path takes its PadeConfig from BatcherOptions::pade:
    // the KvCache constructor refuses a bad GSAT geometry and the
    // first scan refuses a bad tile, in every build type.
    TraceSpec ts;
    ts.num_requests = 2;
    ts.prompt_min = 8;
    ts.prompt_max = 16;
    ts.decode_min = 1;
    ts.decode_max = 2;
    ts.seed = 23;
    const std::vector<ServingRequest> trace = poissonArrivalTrace(ts);
    const auto run = [&trace](auto edit) {
        BatcherOptions opt;
        opt.threads = 1;
        opt.head_dim = 32;
        edit(opt.pade);
        return ContinuousBatcher(opt).run(trace);
    };
    EXPECT_DEATH(run([](PadeConfig &c) { c.tile_bc = 0; }),
                 "PADE_CHECK.*tile");
    EXPECT_DEATH(run([](PadeConfig &c) { c.subgroup = 0; }),
                 "PADE_CHECK.*subgroup");
    EXPECT_DEATH(run([](PadeConfig &c) { c.subgroup = 65; }),
                 "PADE_CHECK.*subgroup");
    EXPECT_DEATH(run([](PadeConfig &c) { c.muxes = 0; }),
                 "PADE_CHECK.*muxes");
}

TEST(ContinuousBatcher, TokenOutputsDeterministicAcrossThreadCounts)
{
    TraceSpec ts;
    ts.num_requests = 5;
    ts.rate_per_s = 2000.0;
    ts.prompt_min = 8;
    ts.prompt_max = 16;
    ts.decode_min = 2;
    ts.decode_max = 4;
    ts.seed = 77;
    const std::vector<ServingRequest> trace = poissonArrivalTrace(ts);

    auto runWith = [&](int threads, int max_active) {
        BatcherOptions opt;
        opt.threads = threads;
        opt.max_active = max_active;
        opt.head_dim = 32;
        opt.prefill_chunk = 4;
        return ContinuousBatcher(opt).run(trace);
    };
    const ServingReport a = runWith(1, 2);
    const ServingReport b = runWith(4, 2);
    // Latencies are host timings and may differ; the decoded token
    // streams may not. Scheduling order (which request lands in which
    // slot) is arrival-driven, so per-session checksums line up too.
    EXPECT_EQ(a.checksum, b.checksum);
    for (std::size_t i = 0; i < trace.size(); i++)
        EXPECT_EQ(a.sessions[i].checksum, b.sessions[i].checksum);
    EXPECT_EQ(a.tokens_decoded, b.tokens_decoded);

    // A different slot count changes interleaving but not outputs:
    // each session's token stream depends only on its own seed.
    const ServingReport c = runWith(2, 4);
    EXPECT_EQ(a.checksum, c.checksum);
}

TEST(ContinuousBatcher, PrefillOnlyRequestCompletesItsPrompt)
{
    // decode_steps == 0 is a legal prefill-only request: the batcher
    // must still do the prompt work — which is now *scored* chunked
    // prefill, so it produces real outputs — before evicting, must
    // not emit a decode token, and must keep the (empty) TTFT sample
    // set clean.
    std::vector<ServingRequest> trace(2);
    trace[0] = {.prompt_len = 12, .seed = 5};
    trace[1] = {.prompt_len = 7, .seed = 6};

    BatcherOptions opt;
    opt.threads = 1;
    opt.head_dim = 16;
    opt.prefill_chunk = 4;
    const ServingReport rep = ContinuousBatcher(opt).run(trace);

    EXPECT_EQ(rep.tokens_prefilled, 19u);
    EXPECT_EQ(rep.tokens_decoded, 0u);
    EXPECT_EQ(rep.checksum, 0u);
    EXPECT_NE(rep.prefill_checksum, 0u);
    for (const SessionStats &s : rep.sessions) {
        EXPECT_GE(s.finish_ms, s.admit_ms);
        EXPECT_LT(s.first_token_ms, 0.0);
        EXPECT_NE(s.prefill_checksum, 0u);
    }
    EXPECT_EQ(rep.ttft_ms.p50, 0.0);
    EXPECT_GT(rep.latency_ms.p50, 0.0);
}

TEST(ContinuousBatcher, PriorityThenArrivalAdmission)
{
    // Four same-instant arrivals, one slot: admission must follow
    // priority (higher first) with trace order as the tie-break, and
    // the timeline must record both the class and the global
    // admission sequence.
    std::vector<ServingRequest> trace(4);
    trace[0] = {.prompt_len = 8, .decode_steps = 2, .priority = 0, .seed = 11};
    trace[1] = {.prompt_len = 8, .decode_steps = 2, .priority = 2, .seed = 12};
    trace[2] = {.prompt_len = 8, .decode_steps = 2, .priority = 2, .seed = 13};
    trace[3] = {.prompt_len = 8, .decode_steps = 2, .priority = 5, .seed = 14};

    BatcherOptions opt;
    opt.threads = 1;
    opt.max_active = 1;
    opt.head_dim = 16;
    opt.prefill_chunk = 8;
    const ServingReport rep = ContinuousBatcher(opt).run(trace);

    EXPECT_EQ(rep.sessions[3].admit_seq, 0); // priority 5
    EXPECT_EQ(rep.sessions[1].admit_seq, 1); // priority 2, earlier
    EXPECT_EQ(rep.sessions[2].admit_seq, 2); // priority 2, later
    EXPECT_EQ(rep.sessions[0].admit_seq, 3); // priority 0
    for (std::size_t i = 0; i < trace.size(); i++)
        EXPECT_EQ(rep.sessions[i].priority, trace[i].priority);
    EXPECT_LE(rep.sessions[3].admit_ms, rep.sessions[1].admit_ms);
    EXPECT_LE(rep.sessions[1].admit_ms, rep.sessions[2].admit_ms);
    EXPECT_LE(rep.sessions[2].admit_ms, rep.sessions[0].admit_ms);
}

TEST(ContinuousBatcher, GqaSessionsDeterministicAcrossThreadCounts)
{
    // Model-granularity sessions (4 query heads on 2 shared KV
    // streams) with the in-session KV-head fan-out nested on the
    // pool: decode AND prefill token streams must be bit-identical
    // for every thread count.
    TraceSpec ts;
    ts.num_requests = 4;
    ts.rate_per_s = 2000.0;
    ts.prompt_min = 8;
    ts.prompt_max = 16;
    ts.decode_min = 2;
    ts.decode_max = 4;
    ts.seed = 31;
    const std::vector<ServingRequest> trace = poissonArrivalTrace(ts);

    auto runWith = [&](int threads) {
        BatcherOptions opt;
        opt.threads = threads;
        opt.max_active = 2;
        opt.heads = 4;
        opt.kv_heads = 2;
        opt.head_dim = 32;
        opt.prefill_chunk = 4;
        return ContinuousBatcher(opt).run(trace);
    };
    const ServingReport a = runWith(1);
    const ServingReport b = runWith(4);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.prefill_checksum, b.prefill_checksum);
    EXPECT_NE(a.checksum, 0u);
    EXPECT_NE(a.prefill_checksum, 0u);
    for (std::size_t i = 0; i < trace.size(); i++) {
        EXPECT_EQ(a.sessions[i].checksum, b.sessions[i].checksum);
        EXPECT_EQ(a.sessions[i].prefill_checksum,
                  b.sessions[i].prefill_checksum);
    }
}

TEST(ContinuousBatcher, MultiLayerPipelinedMatchesSerialSchedule)
{
    // Whole-model sessions (3 layers): the software-pipelined layer
    // schedule must reproduce the serial layer-by-layer reference bit
    // for bit — per session and in aggregate — at any thread count.
    TraceSpec ts;
    ts.num_requests = 4;
    ts.rate_per_s = 2000.0;
    ts.prompt_min = 8;
    ts.prompt_max = 14;
    ts.decode_min = 2;
    ts.decode_max = 4;
    ts.seed = 43;
    const std::vector<ServingRequest> trace = poissonArrivalTrace(ts);

    auto runWith = [&](int threads, bool pipeline) {
        BatcherOptions opt;
        opt.threads = threads;
        opt.max_active = 2;
        opt.layers = 3;
        opt.heads = 2;
        opt.kv_heads = 2;
        opt.head_dim = 24;
        opt.prefill_chunk = 4;
        opt.page_tokens = 8;
        opt.pipeline = pipeline;
        return ContinuousBatcher(opt).run(trace);
    };
    const ServingReport serial = runWith(1, false);
    const ServingReport piped1 = runWith(1, true);
    const ServingReport piped4 = runWith(4, true);
    EXPECT_NE(serial.checksum, 0u);
    EXPECT_NE(serial.prefill_checksum, 0u);
    for (const ServingReport *r : {&piped1, &piped4}) {
        EXPECT_EQ(serial.checksum, r->checksum);
        EXPECT_EQ(serial.prefill_checksum, r->prefill_checksum);
        for (std::size_t i = 0; i < trace.size(); i++) {
            EXPECT_EQ(serial.sessions[i].checksum,
                      r->sessions[i].checksum);
            EXPECT_EQ(serial.sessions[i].prefill_checksum,
                      r->sessions[i].prefill_checksum);
        }
    }
}

TEST(ContinuousBatcher, PrefixCacheSavesWorkWithoutChangingOutputs)
{
    // One shared-prefix group, one slot: sessions run strictly in
    // sequence, so every request after the first adopts the published
    // prefix pages. Checksums must not care — prefill_checksum mixes
    // only suffix positions and adopted pages are byte-identical to
    // privately built ones.
    TraceSpec ts;
    ts.num_requests = 5;
    ts.rate_per_s = 3000.0;
    ts.prompt_min = 6;
    ts.prompt_max = 12;
    ts.decode_min = 2;
    ts.decode_max = 3;
    ts.seed = 91;
    ts.prefix_groups = 1;
    ts.prefix_tokens = 16;
    const std::vector<ServingRequest> trace = poissonArrivalTrace(ts);
    for (const ServingRequest &req : trace) {
        EXPECT_EQ(req.prefix_len, 16);
        EXPECT_GT(req.prompt_len, req.prefix_len);
    }

    auto runWith = [&](int threads, bool cache) {
        BatcherOptions opt;
        opt.threads = threads;
        opt.max_active = 1;
        opt.layers = 2;
        opt.heads = 2;
        opt.kv_heads = 2;
        opt.head_dim = 24;
        opt.prefill_chunk = 4;
        opt.page_tokens = 8; // prefix spans exactly 2 shared pages
        opt.prefix_cache = cache;
        return ContinuousBatcher(opt).run(trace);
    };
    const ServingReport cold = runWith(1, false);
    const ServingReport warm = runWith(1, true);
    const ServingReport warm4 = runWith(4, true);

    // Outputs: hit/miss- and thread-count-invariant.
    EXPECT_NE(cold.checksum, 0u);
    EXPECT_NE(cold.prefill_checksum, 0u);
    for (const ServingReport *r : {&warm, &warm4}) {
        EXPECT_EQ(cold.checksum, r->checksum);
        EXPECT_EQ(cold.prefill_checksum, r->prefill_checksum);
        for (std::size_t i = 0; i < trace.size(); i++) {
            EXPECT_EQ(cold.sessions[i].checksum,
                      r->sessions[i].checksum);
            EXPECT_EQ(cold.sessions[i].prefill_checksum,
                      r->sessions[i].prefill_checksum);
        }
    }

    // Work: with one slot the first session publishes both prefix
    // pages and every later session adopts them.
    EXPECT_EQ(cold.tokens_prefix_hit, 0u);
    EXPECT_EQ(warm.tokens_prefix_hit, 4u * 16u);
    EXPECT_GT(warm.prefix_bytes_saved, 0u);
    EXPECT_EQ(warm.prefix.published, 2u); // both chain depths, once
    EXPECT_EQ(warm.prefix.hit_pages, 4u * 2u);
    EXPECT_EQ(warm.prefix.evictions, 0u);
    for (std::size_t i = 0; i < trace.size(); i++) {
        EXPECT_EQ(warm.sessions[i].prefix_len, 16);
        if (warm.sessions[i].admit_seq == 0)
            EXPECT_EQ(warm.sessions[i].prefix_hit_tokens, 0);
        else
            EXPECT_EQ(warm.sessions[i].prefix_hit_tokens, 16);
    }
}

// ---------------------------------------------------------------------
// One builder per cold prefix: sessions that miss on a prefix an
// earlier-admitted session is building wait for its pages.
// ---------------------------------------------------------------------

/** Page size of the cold-prefix tests; their prefixes are 2 or 4
 *  pages. */
constexpr int kColdPage = 8;

/** A 2-layer GQA model with a small page, a fixed virtual clock and
 *  the prefix cache on. */
BatcherOptions
coldPrefixOptions(int threads)
{
    BatcherOptions opt;
    opt.threads = threads;
    opt.max_active = 4;
    opt.layers = 2;
    opt.heads = 4;
    opt.kv_heads = 2;
    opt.head_dim = 16;
    opt.page_tokens = kColdPage;
    opt.prefill_chunk = 8;
    opt.prefix_cache = true;
    opt.fixed_round_ms = 0.25;
    return opt;
}

/** Streams (layers x KV heads) of coldPrefixOptions(). */
constexpr uint64_t kColdStreams = 4;

ServingRequest
prefixedRequest(int prefix_len, int suffix, int decode_steps,
                uint64_t prefix_seed, uint64_t seed)
{
    ServingRequest req;
    req.prompt_len = prefix_len + suffix;
    req.decode_steps = decode_steps;
    req.prefix_len = prefix_len;
    req.prefix_seed = prefix_seed;
    req.seed = seed;
    return req;
}

/** One run with the registry activity it caused. */
struct CountedRun
{
    ServingReport report;
    obs::MetricsSnapshot delta;

    uint64_t
    count(std::string_view name) const
    {
        return delta.counter(name);
    }
};

CountedRun
runCounted(const BatcherOptions &opt,
           const std::vector<ServingRequest> &trace)
{
    const obs::MetricsSnapshot before =
        obs::Registry::instance().snapshot();
    CountedRun run;
    run.report = ContinuousBatcher(opt).run(trace);
    run.delta = obs::MetricsSnapshot::delta(
        before, obs::Registry::instance().snapshot());
    return run;
}

/** Per-session outputs of @p got equal @p want's. */
void
expectSameOutputs(const ServingReport &want, const ServingReport &got)
{
    ASSERT_EQ(want.sessions.size(), got.sessions.size());
    EXPECT_EQ(want.tokens_decoded, got.tokens_decoded);
    EXPECT_EQ(want.tokens_prefilled, got.tokens_prefilled);
    for (std::size_t i = 0; i < want.sessions.size(); i++) {
        EXPECT_EQ(want.sessions[i].checksum, got.sessions[i].checksum)
            << "session " << i;
        EXPECT_EQ(want.sessions[i].prefill_checksum,
                  got.sessions[i].prefill_checksum)
            << "session " << i;
    }
}

/**
 * Serve @p trace with @p opt at threads {1, 2, 8}; check every run's
 * outputs against the prefix_cache = false run's and the serial
 * oracle's (one thread, one slot, pipeline off), and pass each run to
 * @p check.
 */
template <typename Check>
void
forColdPrefixRuns(BatcherOptions opt,
                  const std::vector<ServingRequest> &trace, Check check)
{
    BatcherOptions off = opt;
    off.prefix_cache = false;
    BatcherOptions oracle = off;
    oracle.threads = 1;
    oracle.max_active = 1;
    oracle.pipeline = false;
    const CountedRun cold = runCounted(off, trace);
    const ServingReport serial = ContinuousBatcher(oracle).run(trace);
    EXPECT_NE(cold.report.checksum | cold.report.prefill_checksum, 0u);
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        opt.threads = threads;
        const CountedRun warm = runCounted(opt, trace);
        expectSameOutputs(cold.report, warm.report);
        expectSameOutputs(serial, warm.report);
        check(warm, cold);
    }
}

TEST(ContinuousBatcher, ColdPrefixIsBuiltOnce)
{
    // Four sessions admitted together on one cold 4-page prefix: the
    // first builds it, the other three wait in their slots, then
    // adopt all four pages and feed only their suffixes.
    const int prefix = 4 * kColdPage;
    std::vector<ServingRequest> trace;
    const int suffix[] = {5, 9, 12, 3};
    for (int i = 0; i < 4; i++)
        trace.push_back(prefixedRequest(prefix, suffix[i], 2 + i % 2,
                                        0xc01d, 100 + i));
    forColdPrefixRuns(
        coldPrefixOptions(1), trace,
        [&](const CountedRun &warm, const CountedRun &cold) {
            EXPECT_EQ(warm.count("prefix.waits"), 3u);
            EXPECT_EQ(cold.count("kv.tokens_appended") -
                          warm.count("kv.tokens_appended"),
                      3 * prefix * kColdStreams);
            EXPECT_EQ(warm.report.tokens_prefix_hit, 3u * prefix);
            EXPECT_EQ(warm.report.prefix.lookups, 4u + 3u);
            EXPECT_EQ(warm.report.prefix.hit_pages, 3u * 4u);
            EXPECT_EQ(warm.report.prefix.published, 4u);
            for (const SessionStats &s : warm.report.sessions)
                EXPECT_EQ(s.prefix_hit_tokens,
                          s.admit_seq == 0 ? 0 : prefix);
        });
}

TEST(ContinuousBatcher, WaiterAdoptsShorterBuilderPrefixAndBuildsTheRest)
{
    // The waiter's prefix is 2 pages longer than its builder's: it
    // adopts the builder's 2 pages and builds the other 2 itself. A
    // third session on another document has no builder; it shares no
    // page with the first two, which the batcher's adoption check
    // would catch if their chains collided.
    const int shorter = 2 * kColdPage;
    const int longer = 4 * kColdPage;
    const std::vector<ServingRequest> trace{
        prefixedRequest(shorter, 6, 2, 0xd0c, 200),
        prefixedRequest(longer, 4, 3, 0xd0c, 201),
        prefixedRequest(longer, 7, 2, 0xd0c + 1, 202)};
    forColdPrefixRuns(
        coldPrefixOptions(1), trace,
        [&](const CountedRun &warm, const CountedRun &cold) {
            EXPECT_EQ(warm.count("prefix.waits"), 1u);
            EXPECT_EQ(cold.count("kv.tokens_appended") -
                          warm.count("kv.tokens_appended"),
                      shorter * kColdStreams);
            const std::vector<SessionStats> &s = warm.report.sessions;
            EXPECT_EQ(s[0].prefix_hit_tokens, 0);
            EXPECT_EQ(s[1].prefix_hit_tokens, shorter);
            EXPECT_EQ(s[2].prefix_hit_tokens, 0);
            // 2 depths by the builder, the waiter's other 2, and the
            // other document's 4.
            EXPECT_EQ(warm.report.prefix.published, 8u);
            EXPECT_EQ(warm.report.prefix.lookups, 3u + 1u);
        });
}

TEST(ContinuousBatcher, BudgetEvictionAtPublishHandsTheBuildOn)
{
    // A budget below one page depth evicts every page a builder
    // publishes, so each waiter that re-acquires misses: the first
    // becomes the builder and the rest wait on it, until every
    // session has built the prefix once.
    const int prefix = 4 * kColdPage;
    std::vector<ServingRequest> trace;
    for (int i = 0; i < 4; i++)
        trace.push_back(
            prefixedRequest(prefix, 3 + i, 2, 0xb0d, 300 + i));
    BatcherOptions opt = coldPrefixOptions(1);
    opt.prefix_cache_bytes = 1;
    forColdPrefixRuns(
        opt, trace, [&](const CountedRun &warm, const CountedRun &cold) {
            // 3 waits on session 0, 2 on session 1, 1 on session 2.
            EXPECT_EQ(warm.count("prefix.waits"), 6u);
            EXPECT_EQ(warm.count("kv.tokens_appended"),
                      cold.count("kv.tokens_appended"));
            EXPECT_EQ(warm.report.tokens_prefix_hit, 0u);
            EXPECT_EQ(warm.report.prefix.lookups, 4u + 3u + 2u + 1u);
            EXPECT_EQ(warm.report.prefix.published, 4u * 4u);
            EXPECT_EQ(warm.report.prefix.evictions, 4u * 4u);
            EXPECT_EQ(warm.report.prefix.nodes, 0);
        });
}

TEST(ContinuousBatcher, WaiterHoldsItsSlotWhileTheQueueWaits)
{
    // Two slots, three sessions on one cold prefix: the second waits
    // in its slot, the third is admitted once a slot frees and finds
    // the whole prefix published.
    const int prefix = 4 * kColdPage;
    const std::vector<ServingRequest> trace{
        prefixedRequest(prefix, 5, 3, 0x5107, 400),
        prefixedRequest(prefix, 2, 2, 0x5107, 401),
        prefixedRequest(prefix, 9, 2, 0x5107, 402)};
    BatcherOptions opt = coldPrefixOptions(1);
    opt.max_active = 2;
    forColdPrefixRuns(
        opt, trace, [&](const CountedRun &warm, const CountedRun &cold) {
            EXPECT_EQ(warm.report.peak_active, 2);
            EXPECT_EQ(warm.count("prefix.waits"), 1u);
            EXPECT_EQ(cold.count("kv.tokens_appended") -
                          warm.count("kv.tokens_appended"),
                      2 * prefix * kColdStreams);
            for (const SessionStats &s : warm.report.sessions)
                EXPECT_EQ(s.prefix_hit_tokens,
                          s.admit_seq == 0 ? 0 : prefix);
        });
}

TEST(ContinuousBatcher, PrefillOnlyWaiterFinishes)
{
    // decode_steps 0 waiters: one whose prompt is exactly the prefix
    // has nothing left to feed once it adopts the pages, one with a
    // suffix prefills it; neither emits a decode token.
    const int prefix = 4 * kColdPage;
    const std::vector<ServingRequest> trace{
        prefixedRequest(prefix, 5, 2, 0xf111, 500),
        prefixedRequest(prefix, 0, 0, 0xf111, 501),
        prefixedRequest(prefix, 6, 0, 0xf111, 502)};
    forColdPrefixRuns(
        coldPrefixOptions(1), trace,
        [&](const CountedRun &warm, const CountedRun &) {
            EXPECT_EQ(warm.count("prefix.waits"), 2u);
            EXPECT_EQ(warm.report.tokens_decoded, 2u);
            const std::vector<SessionStats> &s = warm.report.sessions;
            for (std::size_t i = 1; i < s.size(); i++) {
                EXPECT_EQ(s[i].prefix_hit_tokens, prefix);
                EXPECT_LT(s[i].first_token_ms, 0.0);
                EXPECT_GE(s[i].finish_ms, s[i].admit_ms);
            }
            EXPECT_EQ(s[1].prefill_checksum, 0u);
            EXPECT_NE(s[2].prefill_checksum, 0u);
        });
}

TEST(PoissonTrace, PriorityClassesAreDeterministicAndBounded)
{
    TraceSpec ts;
    ts.num_requests = 40;
    ts.priority_levels = 4;
    ts.seed = 17;
    const auto a = poissonArrivalTrace(ts);
    const auto b = poissonArrivalTrace(ts);
    bool any_nonzero = false;
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_GE(a[i].priority, 0);
        EXPECT_LT(a[i].priority, 4);
        EXPECT_EQ(a[i].priority, b[i].priority);
        any_nonzero |= a[i].priority != 0;
    }
    EXPECT_TRUE(any_nonzero);

    // Single-class traces stay all-zero (and draw nothing extra).
    ts.priority_levels = 1;
    for (const ServingRequest &r : poissonArrivalTrace(ts))
        EXPECT_EQ(r.priority, 0);
}

// ---------------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------------

TEST(Percentiles, NearestRankOnKnownSet)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; i--)
        v.push_back(static_cast<double>(i));
    const Percentiles p = Percentiles::of(v);
    EXPECT_DOUBLE_EQ(p.p50, 50.0);
    EXPECT_DOUBLE_EQ(p.p95, 95.0);
    EXPECT_DOUBLE_EQ(p.p99, 99.0);
    // Below 1000 samples the 0.999 nearest rank is the last sample.
    EXPECT_DOUBLE_EQ(p.p999, 100.0);
    EXPECT_DOUBLE_EQ(p.mean, 50.5);
    EXPECT_DOUBLE_EQ(p.max, 100.0);
    EXPECT_EQ(p.count, 100);
}

TEST(Percentiles, P999SeparatesFromMaxAtScale)
{
    // 2000 samples 1..2000: nearest rank ceil(0.999 * 2000) = 1998.
    std::vector<double> v;
    for (int i = 1; i <= 2000; i++)
        v.push_back(static_cast<double>(i));
    const Percentiles p = Percentiles::of(v);
    EXPECT_DOUBLE_EQ(p.p999, 1998.0);
    EXPECT_DOUBLE_EQ(p.max, 2000.0);
    EXPECT_EQ(p.count, 2000);
}

TEST(Percentiles, SmallAndEmptySets)
{
    const Percentiles empty = Percentiles::of({});
    EXPECT_EQ(empty.p50, 0.0);
    EXPECT_EQ(empty.p95, 0.0);
    EXPECT_EQ(empty.p99, 0.0);
    EXPECT_EQ(empty.p999, 0.0);
    EXPECT_EQ(empty.mean, 0.0);
    EXPECT_EQ(empty.max, 0.0);
    EXPECT_EQ(empty.count, 0);

    const std::vector<double> one = {42.0};
    const Percentiles p1 = Percentiles::of(one);
    EXPECT_DOUBLE_EQ(p1.p50, 42.0);
    EXPECT_DOUBLE_EQ(p1.p99, 42.0);
    EXPECT_DOUBLE_EQ(p1.p999, 42.0);
    EXPECT_DOUBLE_EQ(p1.mean, 42.0);
    EXPECT_DOUBLE_EQ(p1.max, 42.0);
    EXPECT_EQ(p1.count, 1);

    const std::vector<double> two = {10.0, 20.0};
    const Percentiles p2 = Percentiles::of(two);
    EXPECT_DOUBLE_EQ(p2.p50, 10.0);
    EXPECT_DOUBLE_EQ(p2.p95, 20.0);
    EXPECT_DOUBLE_EQ(p2.mean, 15.0);
    EXPECT_DOUBLE_EQ(p2.max, 20.0);
    EXPECT_EQ(p2.count, 2);
}

} // namespace
} // namespace pade
