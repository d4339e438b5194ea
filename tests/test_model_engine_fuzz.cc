/**
 * @file
 * Differential fuzz harness for the pipelined ModelEngine and the
 * cross-session prefix cache.
 *
 * Oracle convention (docs/TESTING.md): every randomized trial runs
 * the same token stream through the serial layer-by-layer reference
 * schedule (pipeline = false, no pool) and through the systolic
 * pipeline at several thread counts, then asserts the retired-token
 * outputs, the per-token scan accounting, and the engine-wide
 * PruneStats are *bit-identical* — not approximately equal. A second
 * family of trials shares a prompt prefix between two sessions
 * through a PrefixIndex and asserts the adopter's decode stream is
 * bit-identical to the same session run fully privately.
 *
 * Every trial derives from one reproducer seed; failures print it
 * (SCOPED_TRACE), so `--gtest_filter=ModelEngineFuzz.* ` plus the
 * seed replays a single counterexample deterministically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "attention/online_softmax.h"
#include "common/rng.h"
#include "core/pade_attention.h"
#include "serving/decode_engine.h"
#include "core/simd/qk_dispatch.h"
#include "runtime/thread_pool.h"
#include "obs/telemetry.h"
#include "serving/model_engine.h"
#include "serving/prefix_index.h"
#include "workload/generator.h"

namespace pade {
namespace {

uint64_t
mixChecksum(uint64_t acc, uint32_t word)
{
    uint64_t state = acc + word;
    return splitMix64(state);
}

uint64_t
mixMatrix(uint64_t acc, const MatrixF &m)
{
    for (int r = 0; r < m.rows(); r++)
        for (float v : m.row(r))
            acc = mixChecksum(acc, std::bit_cast<uint32_t>(v));
    return acc;
}

/** One retired token, reduced to comparable words. */
struct TokenRecord
{
    int pos = 0;
    uint64_t out_mix = 0;  //!< all layers' outputs, layer-ascending
    uint64_t step_mix = 0; //!< all layers' LayerStep accounting
};

struct RunResult
{
    std::vector<TokenRecord> tokens;
    PruneStats stats;
};

/** The randomized shape of one fuzz trial. */
struct TrialConfig
{
    ModelSpec spec;
    int page_tokens = 16;
    /** Sink+recency eviction; .enabled() (recency > 0) turns the
     *  window-aware decode scan order on. */
    RetentionPolicy retention;
    QkKernel kernel = QkKernel::kScalar;
    std::vector<int> chunks; //!< prefill chunk split of prompt_len

    std::string
    describe(uint64_t seed) const
    {
        std::ostringstream os;
        os << "reproducer seed=" << seed << " layers=" << spec.layers
           << " heads=" << spec.heads << " kv=" << spec.kv_heads
           << " dim=" << spec.head_dim << " bits=" << spec.bits
           << " prompt=" << spec.prompt_len
           << " decode=" << spec.decode_steps
           << " prefix=" << spec.prefix_len
           << " page=" << page_tokens << " retention="
           << retention.sink_tokens << "/" << retention.recency_tokens
           << " kernel=" << static_cast<int>(kernel);
        return os.str();
    }
};

ModelEngineConfig
engineConfig(const TrialConfig &t, bool pipeline)
{
    ModelEngineConfig mc;
    mc.layers = t.spec.layers;
    mc.pipeline = pipeline;
    mc.layer.heads = t.spec.heads;
    mc.layer.kv_heads = t.spec.kv_heads;
    mc.layer.head_dim = t.spec.head_dim;
    mc.layer.bits = t.spec.bits;
    mc.layer.page_tokens = t.page_tokens;
    mc.layer.pade.qk_kernel = t.kernel;
    mc.layer.retention = t.retention;
    return mc;
}

/**
 * Run one trial's token stream to completion. @p adopt_from, when
 * given, publishes @p adopt_pages prefix page depths from that
 * finished engine into a fresh index and adopts them here before
 * feeding (the cross-session path); prefilling then starts past the
 * adopted tokens.
 */
RunResult
runModel(const TrialConfig &t, bool pipeline, int threads,
         std::span<const int> chunks,
         const ModelEngine *adopt_from = nullptr, int adopt_pages = 0)
{
    ModelWorkload work(t.spec);
    RunResult result;

    const auto streams = static_cast<std::size_t>(t.spec.layers) *
        static_cast<std::size_t>(t.spec.kv_heads);
    const std::vector<float> v_scales(streams, work.vScale());
    const std::vector<float> logit_scales(streams, work.logitScale());
    ModelEngine engine(
        engineConfig(t, pipeline), v_scales, logit_scales,
        [&work](int layer, int pos, MatrixI8 &k, MatrixI8 &v,
                MatrixI8 &q) {
            work.stageKv(layer, pos, k, v);
            work.stageQueries(layer, pos, q);
        },
        [&result](const TokenResult &tr) {
            TokenRecord rec;
            rec.pos = tr.pos;
            for (const MatrixF &out : tr.outs)
                rec.out_mix = mixMatrix(rec.out_mix, out);
            for (const LayerStep &st : tr.steps) {
                rec.step_mix = mixChecksum(
                    rec.step_mix, static_cast<uint32_t>(st.keys));
                rec.step_mix = mixChecksum(
                    rec.step_mix, static_cast<uint32_t>(st.retained));
                rec.step_mix = mixChecksum(
                    rec.step_mix, static_cast<uint32_t>(st.planes));
            }
            result.tokens.push_back(rec);
        });

    std::optional<ThreadPool> pool;
    if (threads > 1)
        pool.emplace(threads);
    ThreadPool *pool_ptr = pool ? &*pool : nullptr;

    int next = 0;
    if (adopt_from) {
        std::vector<std::shared_ptr<const KvPage>> pages;
        for (int d = 0; d < adopt_pages; d++)
            adopt_from->sharePrefixPages(d, pages);
        // Round-trip the pages through an index, as serving does.
        ModelWorkload donor_work(t.spec);
        const std::vector<uint64_t> chain =
            donor_work.prefixPageChain(t.page_tokens);
        PrefixIndexOptions pio;
        pio.streams = static_cast<int>(streams);
        PrefixIndex index(pio);
        index.publish(
            std::span<const uint64_t>(chain).first(
                static_cast<std::size_t>(adopt_pages)),
            pages);
        PrefixMatch match = index.acquire(std::span<const uint64_t>(
            chain).first(static_cast<std::size_t>(adopt_pages)));
        EXPECT_EQ(match.pages, adopt_pages);
        for (int d = 0; d < match.pages; d++)
            engine.adoptPrefixPages(
                std::span<const std::shared_ptr<const KvPage>>(
                    match.shared)
                    .subspan(static_cast<std::size_t>(d) * streams,
                             streams));
        next = adopt_pages * t.page_tokens;
        index.release(std::span<const uint64_t>(chain).first(
                          static_cast<std::size_t>(adopt_pages)),
                      match.pages);
    }

    // Prompt in the trial's chunk split (drain between chunks, as the
    // batcher's scheduling rounds do), then token-at-a-time decode.
    for (int chunk : chunks) {
        for (int t2 = 0; t2 < chunk && next < t.spec.prompt_len; t2++)
            engine.feed(next++, t.spec.prompt_len);
        engine.drain(pool_ptr);
    }
    while (next < t.spec.prompt_len)
        engine.feed(next++, t.spec.prompt_len);
    engine.drain(pool_ptr);
    for (int s = 0; s < t.spec.decode_steps; s++) {
        engine.feed(t.spec.prompt_len + s, t.spec.prompt_len);
        engine.drain(pool_ptr);
    }
    EXPECT_EQ(engine.pending(), 0);
    result.stats = engine.stats();
    return result;
}

void
expectStatsEqual(const PruneStats &a, const PruneStats &b)
{
    EXPECT_EQ(a.planes_processed, b.planes_processed);
    EXPECT_EQ(a.planes_total, b.planes_total);
    EXPECT_EQ(a.keys_retained, b.keys_retained);
    EXPECT_EQ(a.keys_total, b.keys_total);
    EXPECT_EQ(a.ops_bs, b.ops_bs);
    EXPECT_EQ(a.ops_naive, b.ops_naive);
    EXPECT_EQ(a.max_updates, b.max_updates);
    EXPECT_EQ(a.rescale_ops, b.rescale_ops);
    EXPECT_EQ(a.threshold_updates, b.threshold_updates);
}

void
expectRunsIdentical(const RunResult &oracle, const RunResult &got,
                    const char *what)
{
    ASSERT_EQ(oracle.tokens.size(), got.tokens.size()) << what;
    for (std::size_t i = 0; i < oracle.tokens.size(); i++) {
        EXPECT_EQ(oracle.tokens[i].pos, got.tokens[i].pos)
            << what << " token " << i;
        EXPECT_EQ(oracle.tokens[i].out_mix, got.tokens[i].out_mix)
            << what << " token " << i << " outputs";
        EXPECT_EQ(oracle.tokens[i].step_mix, got.tokens[i].step_mix)
            << what << " token " << i << " accounting";
    }
    expectStatsEqual(oracle.stats, got.stats);
}

/** Draw one random trial shape from the reproducer seed. */
TrialConfig
drawTrial(uint64_t seed, bool with_prefix)
{
    Rng rng(seed);
    TrialConfig t;
    const int layer_choices[] = {1, 2, 4};
    const int kv_choices[] = {1, 4, 8};
    const int dim_choices[] = {17, 24, 33}; // odd shapes on purpose
    const int bit_choices[] = {4, 8};
    t.spec.layers = layer_choices[rng.below(3)];
    t.spec.kv_heads = kv_choices[rng.below(3)];
    t.spec.heads =
        t.spec.kv_heads * static_cast<int>(rng.range(1, 2));
    t.spec.head_dim = dim_choices[rng.below(3)];
    t.spec.bits = bit_choices[rng.below(2)];
    t.page_tokens = static_cast<int>(rng.range(1, 2)) * 8;
    t.spec.prompt_len = static_cast<int>(rng.range(6, 40));
    t.spec.decode_steps = static_cast<int>(rng.range(0, 6));
    t.spec.seed = splitMix64(seed);
    t.kernel = static_cast<QkKernel>(rng.below(3));
    // Retention exercises middle-page reclamation under the pipeline;
    // keep it off prefix trials' donors so every prefix page stays
    // resident for publication.
    if (!with_prefix && rng.bernoulli(0.25)) {
        t.retention.sink_tokens = t.page_tokens;
        t.retention.recency_tokens = 2 * t.page_tokens;
    }
    if (with_prefix) {
        // Room for at least one whole shared page plus a private
        // suffix.
        t.spec.prompt_len =
            std::max(t.spec.prompt_len, 2 * t.page_tokens + 3);
        // One to as many whole pages as fit, plus sometimes a ragged
        // (unshareable) prefix tail.
        const int max_pages =
            std::max(1, t.spec.prompt_len / t.page_tokens - 1);
        const int pages =
            static_cast<int>(rng.range(1, max_pages));
        t.spec.prefix_len = pages * t.page_tokens +
            (rng.bernoulli(0.3) ? static_cast<int>(rng.range(
                                      1, t.page_tokens - 1))
                                : 0);
        t.spec.prefix_len =
            std::min(t.spec.prefix_len, t.spec.prompt_len);
        t.spec.prefix_seed = splitMix64(t.spec.seed);
        if (t.spec.decode_steps == 0)
            t.spec.decode_steps = 2; // parity needs a decode stream
    }
    // Random chunked-prefill split.
    int left = t.spec.prompt_len;
    while (left > 0) {
        const int c =
            static_cast<int>(rng.range(1, std::max(1, left)));
        t.chunks.push_back(c);
        left -= c;
    }
    return t;
}

/**
 * The tentpole invariant: for ~200 random configurations, the
 * pipelined schedule retires bit-identical tokens, accounting, and
 * PruneStats as the serial oracle, at 1, 2, and 8 threads, and under
 * a different prefill chunking.
 */
TEST(ModelEngineFuzz, PipelineMatchesSerialOracle)
{
    constexpr uint64_t kBase = 0xf022ed5eedULL;
    constexpr int kTrials = 140;
    for (int i = 0; i < kTrials; i++) {
        uint64_t state = kBase + static_cast<uint64_t>(i);
        const uint64_t seed = splitMix64(state);
        const TrialConfig t = drawTrial(seed, /*with_prefix=*/false);
        SCOPED_TRACE(t.describe(seed));

        const RunResult oracle =
            runModel(t, /*pipeline=*/false, /*threads=*/1, t.chunks);
        for (int threads : {1, 2, 8}) {
            const RunResult piped =
                runModel(t, /*pipeline=*/true, threads, t.chunks);
            expectRunsIdentical(oracle, piped, "pipelined");
        }
        // Chunking invariance: one whole-prompt chunk vs the random
        // split (prefill scoring tiles over the full-prompt ISTA
        // order, so the split cannot matter).
        const std::vector<int> whole{t.spec.prompt_len};
        const RunResult onechunk =
            runModel(t, /*pipeline=*/true, 2, whole);
        expectRunsIdentical(oracle, onechunk, "one-chunk");
    }
}

/**
 * Prefix-sharing parity: a session that adopts published prefix
 * pages (skipping their packing and scoring entirely) decodes a
 * bit-identical token stream to the same session run fully
 * privately — at every thread count.
 */
TEST(ModelEngineFuzz, AdoptedPrefixMatchesPrivateDecode)
{
    constexpr uint64_t kBase = 0x9a5e5aa11ULL;
    constexpr int kTrials = 60;
    for (int i = 0; i < kTrials; i++) {
        uint64_t state = kBase + static_cast<uint64_t>(i);
        const uint64_t seed = splitMix64(state);
        TrialConfig t = drawTrial(seed, /*with_prefix=*/true);
        SCOPED_TRACE(t.describe(seed));
        const int shared_pages = t.spec.prefix_len / t.page_tokens;
        ASSERT_GE(shared_pages, 1);

        // Donor session: same prefix identity, its own suffix. Runs
        // fully, donating its prefix pages.
        TrialConfig donor = t;
        donor.spec.seed = splitMix64(t.spec.seed) ^ 0xd0;
        ModelWorkload donor_work(donor.spec);
        const auto streams =
            static_cast<std::size_t>(t.spec.layers) *
            static_cast<std::size_t>(t.spec.kv_heads);
        const std::vector<float> v_scales(streams,
                                          donor_work.vScale());
        const std::vector<float> logit_scales(
            streams, donor_work.logitScale());
        ModelEngine donor_engine(
            engineConfig(donor, /*pipeline=*/true), v_scales,
            logit_scales,
            [&donor_work](int layer, int pos, MatrixI8 &k, MatrixI8 &v,
                          MatrixI8 &q) {
                donor_work.stageKv(layer, pos, k, v);
                donor_work.stageQueries(layer, pos, q);
            },
            [](const TokenResult &) {});
        for (int pos = 0; pos < donor.spec.prompt_len; pos++)
            donor_engine.feed(pos, donor.spec.prompt_len);
        donor_engine.drain(nullptr);

        // Prefix chains agree between donor and adopter by content.
        EXPECT_EQ(donor_work.prefixPageChain(t.page_tokens),
                  ModelWorkload(t.spec).prefixPageChain(
                      t.page_tokens));

        const RunResult priv =
            runModel(t, /*pipeline=*/true, 1, t.chunks);
        for (int threads : {1, 2, 8}) {
            const RunResult adopted =
                runModel(t, /*pipeline=*/true, threads, t.chunks,
                         &donor_engine, shared_pages);
            // Adopted prefix positions are never scored, so compare
            // the streams from the first post-prefix token on.
            const int skipped = shared_pages * t.page_tokens;
            ASSERT_EQ(priv.tokens.size(),
                      adopted.tokens.size() +
                          static_cast<std::size_t>(skipped));
            for (std::size_t j = 0; j < adopted.tokens.size(); j++) {
                const TokenRecord &want =
                    priv.tokens[j + static_cast<std::size_t>(skipped)];
                EXPECT_EQ(want.pos, adopted.tokens[j].pos);
                EXPECT_EQ(want.out_mix, adopted.tokens[j].out_mix)
                    << "token " << adopted.tokens[j].pos
                    << " threads=" << threads;
                EXPECT_EQ(want.step_mix, adopted.tokens[j].step_mix)
                    << "token " << adopted.tokens[j].pos
                    << " threads=" << threads;
            }
        }
    }
}

/** A fixed trial for the chunk-schedule tests: 2 layers of GQA (4
 *  query heads on 2 KV heads), 16-token pages, a 100-token prompt. */
TrialConfig
chunkTrial(QkKernel kernel, bool windowed)
{
    TrialConfig t;
    t.spec.layers = 2;
    t.spec.heads = 4;
    t.spec.kv_heads = 2;
    t.spec.head_dim = 33;
    t.spec.bits = 8;
    t.spec.prompt_len = 100;
    t.spec.decode_steps = 4;
    t.spec.seed = 0x5c4ed11eULL;
    t.page_tokens = 16;
    t.kernel = kernel;
    if (windowed) {
        t.retention.sink_tokens = 16;
        t.retention.recency_tokens = 32;
    }
    return t;
}

/**
 * The chunk schedule against the serial oracle: chunks of one
 * position, of one less than a block, of exactly a block, of one
 * more and of two blocks plus one, and a chunk that starts mid-page
 * and straddles the page boundary, with and without an evicting
 * retention window, at 1, 2 and 8 threads. Outputs, per-token
 * LayerSteps and ModelEngine::stats() must be bit-identical, so the
 * block units' PruneStats must be folded back exactly.
 */
TEST(ModelEngineFuzz, ChunkSchedulesMatchSerialOracle)
{
    static_assert(ModelEngine::kBlockPositions == 16);
    const auto uniform = [](int chunk, int prompt) {
        return std::vector<int>(
            static_cast<std::size_t>((prompt + chunk - 1) / chunk),
            chunk);
    };
    for (const bool windowed : {false, true}) {
        const TrialConfig t = chunkTrial(QkKernel::kSimd, windowed);
        SCOPED_TRACE(t.describe(0));
        const int prompt = t.spec.prompt_len;
        std::vector<std::vector<int>> plans;
        for (const int chunk : {1, 15, 16, 17, 33})
            plans.push_back(uniform(chunk, prompt));
        plans.push_back({10, 12}); // [10, 22) straddles page 0 | 1
        const RunResult oracle =
            runModel(t, /*pipeline=*/false, /*threads=*/1, t.chunks);
        for (const std::vector<int> &plan : plans) {
            SCOPED_TRACE(testing::Message()
                         << "first chunk " << plan.front()
                         << (windowed ? " windowed" : ""));
            for (const int threads : {1, 2, 8})
                expectRunsIdentical(oracle,
                                    runModel(t, /*pipeline=*/true,
                                             threads, plan),
                                    "chunk schedule");
        }
    }
}

/**
 * Waves and units of one engine alone are a function of the chunk:
 * more than kBlockPositions positions cross each layer in two waves
 * (one append unit, then one unit per block), a shorter chunk or a
 * decode token in one wave of one unit — at every thread count.
 */
TEST(ModelEngineSchedule, WaveCountsFollowTheChunk)
{
    const TrialConfig t = chunkTrial(QkKernel::kSimd, false);
    const int layers = t.spec.layers;
    ModelWorkload work(t.spec);
    const auto streams = static_cast<std::size_t>(layers) *
        static_cast<std::size_t>(t.spec.kv_heads);
    const std::vector<float> v_scales(streams, work.vScale());
    const std::vector<float> logit_scales(streams, work.logitScale());
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(testing::Message() << "threads " << threads);
        ModelEngine engine(
            engineConfig(t, /*pipeline=*/true), v_scales, logit_scales,
            [&work](int layer, int pos, MatrixI8 &k, MatrixI8 &v,
                    MatrixI8 &q) {
                work.stageKv(layer, pos, k, v);
                work.stageQueries(layer, pos, q);
            },
            [](const TokenResult &) {});
        ThreadPool pool(threads);
        int next = 0;
        // Feed @p n positions, drain, and return (waves, units).
        const auto run = [&](int n) {
            for (int i = 0; i < n; i++)
                engine.feed(next++, t.spec.prompt_len);
            const obs::MetricsSnapshot before =
                obs::Registry::instance().snapshot();
            int waves = 0;
            while (engine.advance(&pool))
                waves++;
            const obs::MetricsSnapshot d = obs::MetricsSnapshot::delta(
                before, obs::Registry::instance().snapshot());
            EXPECT_EQ(d.counter("model.rounds"),
                      static_cast<uint64_t>(waves));
            return std::pair(waves, d.counter("model.units"));
        };
        const auto units = [&](int blocks) {
            return static_cast<uint64_t>(layers * (1 + blocks));
        };
        EXPECT_EQ(run(1), std::pair(layers, uint64_t(layers)));
        EXPECT_EQ(run(15), std::pair(layers, uint64_t(layers)));
        EXPECT_EQ(run(16), std::pair(layers, uint64_t(layers)));
        EXPECT_EQ(run(17), std::pair(2 * layers, units(2)));
        EXPECT_EQ(run(33), std::pair(2 * layers, units(3)));
        EXPECT_EQ(run(18), std::pair(2 * layers, units(2)));
        ASSERT_EQ(next, t.spec.prompt_len);
        EXPECT_EQ(run(1), std::pair(layers, uint64_t(layers))); // decode
        EXPECT_EQ(engine.completed(), t.spec.prompt_len + 1);
    }
}

/**
 * The windowed scan order is by definition a filter of the full
 * order: for any (seq_len, tile, head_tail, sink, window_start) —
 * out-of-range live bounds included, istaScanOrderInto clamps — it
 * must emit exactly the subsequence of the full ISTA order whose keys
 * satisfy `j < sink || j >= window_start`. That subsequence property
 * is what lets DecodeEngine drop the per-key retention test from its
 * scan loop, so it is fuzzed directly here. The full order is built
 * independently, tile by tile from headTailOrder().
 */
TEST(ModelEngineFuzz, WindowedScanOrderIsFilteredFullOrder)
{
    constexpr uint64_t kBase = 0x5ca12f117e2ULL;
    constexpr int kTrials = 500;
    std::vector<int> full;
    std::vector<int> windowed;
    std::vector<int> expect;
    for (int i = 0; i < kTrials; i++) {
        uint64_t state = kBase + static_cast<uint64_t>(i);
        const uint64_t seed = splitMix64(state);
        Rng rng(seed);
        const int seq_len = static_cast<int>(rng.range(1, 300));
        const int tile = static_cast<int>(rng.range(1, 40));
        const bool head_tail = rng.bernoulli(0.5);
        const int sink = static_cast<int>(rng.range(0, seq_len + 8));
        const int win = static_cast<int>(rng.range(0, seq_len + 8));
        std::ostringstream os;
        os << "seed=" << seed << " seq=" << seq_len << " tile=" << tile
           << " head_tail=" << head_tail << " sink=" << sink
           << " win=" << win;
        SCOPED_TRACE(os.str());

        std::vector<int> tiles = headTailOrder((seq_len + tile - 1) / tile);
        if (!head_tail)
            std::sort(tiles.begin(), tiles.end());
        full.clear();
        for (int t : tiles)
            for (int j = t * tile; j < std::min(seq_len, (t + 1) * tile);
                 j++)
                full.push_back(j);

        istaScanOrderInto(seq_len, tile, head_tail, sink, win,
                          windowed);
        const int live_sink = std::min(sink, seq_len);
        const int live_win = std::min(win, seq_len);
        expect.clear();
        for (int j : full)
            if (j < live_sink || j >= live_win)
                expect.push_back(j);
        EXPECT_EQ(windowed, expect);

        // window_start = 0 keeps every key live: the windowed order
        // must reproduce the full order verbatim (the nothing-evicted
        // degenerate case the engine hits on short streams).
        istaScanOrderInto(seq_len, tile, head_tail, sink, 0, windowed);
        EXPECT_EQ(windowed, full);
    }
}

/**
 * A retention window wide enough to cover the whole stream never
 * evicts, so the windowed engine — live-range scan order, touched-set
 * scratch clearing and all — must be bit-identical to the same trial
 * with retention disabled, including PruneStats.
 */
TEST(ModelEngineFuzz, CoveringWindowMatchesRetentionOff)
{
    constexpr uint64_t kBase = 0xc0ffee11aaULL;
    constexpr int kTrials = 40;
    for (int i = 0; i < kTrials; i++) {
        uint64_t state = kBase + static_cast<uint64_t>(i);
        const uint64_t seed = splitMix64(state);
        TrialConfig t = drawTrial(seed, /*with_prefix=*/false);
        t.retention = RetentionPolicy{};
        if (t.spec.decode_steps == 0)
            t.spec.decode_steps = 2; // exercise the decode scan too
        SCOPED_TRACE(t.describe(seed));

        const RunResult bare =
            runModel(t, /*pipeline=*/true, /*threads=*/2, t.chunks);

        TrialConfig covered = t;
        uint64_t knob_state = seed ^ 0xc0;
        Rng rng(splitMix64(knob_state));
        covered.retention.sink_tokens = static_cast<int>(rng.range(0, 4));
        covered.retention.recency_tokens =
            t.spec.prompt_len + t.spec.decode_steps +
            static_cast<int>(rng.range(1, 9));
        const RunResult windowed = runModel(covered, /*pipeline=*/true,
                                            /*threads=*/2, t.chunks);
        expectRunsIdentical(bare, windowed, "covering-window");
    }
}

/**
 * Windowed (actually-evicting) streams are checksum-stable across
 * everything that must not matter: the serial-vs-pipelined schedule
 * at several thread counts, the prefill chunking, and the QK kernel
 * (kScalar / kPopcount / kSimd are bit-identical by contract, and the
 * live-range order must not break that).
 */
TEST(ModelEngineFuzz, WindowedRunStableAcrossKernelsChunksThreads)
{
    constexpr uint64_t kBase = 0x91d0e5caULL;
    constexpr int kTrials = 30;
    for (int i = 0; i < kTrials; i++) {
        uint64_t state = kBase + static_cast<uint64_t>(i);
        const uint64_t seed = splitMix64(state);
        TrialConfig t = drawTrial(seed, /*with_prefix=*/false);
        // Force an evicting window: sink + recency well inside the
        // stream so middle keys actually die and the windowed order
        // diverges from the full order.
        t.retention.sink_tokens = t.page_tokens;
        t.retention.recency_tokens = 2 * t.page_tokens;
        t.spec.prompt_len =
            std::max(t.spec.prompt_len, 4 * t.page_tokens + 5);
        t.spec.decode_steps = std::max(t.spec.decode_steps, 3);
        t.kernel = QkKernel::kScalar;
        SCOPED_TRACE(t.describe(seed));
        // (runModel feeds any prompt tail past t.chunks as one final
        // chunk, so the grown prompt still has a valid split.)

        const RunResult oracle =
            runModel(t, /*pipeline=*/false, /*threads=*/1, t.chunks);
        for (int threads : {1, 2, 8}) {
            const RunResult piped =
                runModel(t, /*pipeline=*/true, threads, t.chunks);
            expectRunsIdentical(oracle, piped, "windowed-pipelined");
        }
        const std::vector<int> whole{t.spec.prompt_len};
        const RunResult onechunk =
            runModel(t, /*pipeline=*/true, 2, whole);
        expectRunsIdentical(oracle, onechunk, "windowed-one-chunk");
        for (QkKernel k : {QkKernel::kPopcount, QkKernel::kSimd}) {
            TrialConfig alt = t;
            alt.kernel = k;
            const RunResult crossed =
                runModel(alt, /*pipeline=*/true, 2, t.chunks);
            expectRunsIdentical(oracle, crossed, "windowed-kernel");
        }
    }
}

} // namespace
} // namespace pade
