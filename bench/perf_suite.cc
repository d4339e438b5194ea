/**
 * @file
 * Perf-tracking suite: times the simulator's hot paths and emits a
 * machine-readable BENCH_perf.json so the performance trajectory is
 * visible across PRs (CI uploads the file as an artifact).
 *
 * Nine stages are measured:
 *  1. QK scoring kernel — the three-way kernel comparison (scalar
 *     ctz-walk oracle, word-parallel popcount, AVX2 SIMD backend)
 *     across {seq, bits, head_dim} points, including the
 *     head_dim >= 128 rows the SIMD backend targets;
 *  2. full padeAttention under all kernel dispatches, with a reused
 *     PadeWorkspace (the allocation-free hot path);
 *  3. reference attention — cache-blocked dense matmul path and the
 *     tiled flash recurrence (the oracle every figure bench pays for);
 *  4. a batch-driver sweep across {seq, bits, concentration} points,
 *     fanned over the thread pool (the fig17-style DSE bottleneck);
 *  5. serving decode — per-token cost of the incremental KvCache
 *     (append + guarded step) against re-packing the full history
 *     every token, across context lengths. The append (cache
 *     maintenance) component is context-independent for the cached
 *     path and linear in context for re-pack — the subsystem's
 *     headline property;
 *  6. GQA layer decode — per-token cost of a whole 8-query-head
 *     layer at KV-sharing ratios 1:1 / 4:1 / 8:1 (LayerEngine with
 *     shared caches), against 8x the single-head cost. Sharing the
 *     KV stream amortizes the append and the per-key page/PlaneWork
 *     lookups across the group, so the grouped cost sits measurably
 *     below heads-times-single — and KV residency scales with
 *     kv_heads, not heads;
 *  7. model serving — (a) the ModelEngine's software-pipelined layer
 *     schedule against the serial layer-by-layer reference at 2 and 4
 *     layers: wall time (same pool for both, so the GQA fan-out is
 *     held equal) plus the round (critical-path span) speedup, the
 *     schedule property the wall ratio realizes once the host has
 *     >= layers cores; and (b) a
 *     ContinuousBatcher run over a shared-prefix trace with the
 *     cross-session prefix cache off vs on — adopted prompt tokens,
 *     KV bytes never re-materialized, and the (bit-identical)
 *     checksum match;
 *  8. telemetry overhead — the pipelined model decode of stage 7
 *     timed with trace-span recording off (metric counters only, the
 *     permanent registry cost) and on (ring-buffered round/unit
 *     spans); the delta is the observability tax and must stay under
 *     2% (docs/OBSERVABILITY.md);
 *  9. windowed decode — per-token decode cost of a layer under a
 *     sink+recency retention window at context 4096 vs 16384, which
 *     must stay flat (the scan order and its scratch clearing are
 *     O(window), not O(context)).
 *
 * Flags: --quick (CI smoke: fewer/smaller points), --reps=N best-of
 * repetitions (default 3), --out=FILE (default BENCH_perf.json),
 * --threads=N sweep workers (default hardware).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "attention/reference.h"
#include "bench/common.h"
#include "core/pade_attention.h"
#include "core/simd/qk_dispatch.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "quant/bitplane.h"
#include "runtime/batch_driver.h"
#include "runtime/thread_pool.h"
#include "serving/continuous_batcher.h"
#include "serving/layer_engine.h"
#include "serving/model_engine.h"
#include "workload/generator.h"

using namespace pade;
using namespace pade::bench;

namespace {

/** Wall-clock milliseconds of fn(), best of @p reps runs. */
template <typename F>
double
bestMs(int reps, F &&fn)
{
    double best = 0.0;
    for (int r = 0; r < reps; r++) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

/** Minimal JSON emitter: objects/arrays of already-formatted fields. */
class Json
{
  public:
    void
    openObject(const std::string &key = "")
    {
        indent(key);
        out_ += "{\n";
        depth_++;
        first_.push_back(true);
    }
    void
    openArray(const std::string &key)
    {
        indent(key);
        out_ += "[\n";
        depth_++;
        first_.push_back(true);
    }
    void
    close(bool array = false)
    {
        out_ += "\n";
        depth_--;
        for (int i = 0; i < depth_; i++)
            out_ += "  ";
        out_ += array ? "]" : "}";
        first_.pop_back();
        if (!first_.empty())
            first_.back() = false;
    }
    void
    field(const std::string &key, const std::string &raw)
    {
        indent(key);
        out_ += raw;
    }
    void
    field(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        field(key, std::string(buf));
    }
    void
    field(const std::string &key, int64_t v)
    {
        field(key, std::to_string(v));
    }
    void
    str(const std::string &key, const std::string &v)
    {
        field(key, "\"" + v + "\"");
    }

    const std::string &text() const { return out_; }

  private:
    void
    indent(const std::string &key)
    {
        if (!first_.empty()) {
            if (!first_.back())
                out_ += ",\n";
            first_.back() = false;
        }
        for (int i = 0; i < depth_; i++)
            out_ += "  ";
        if (!key.empty())
            out_ += "\"" + key + "\": ";
    }

    std::string out_;
    std::vector<bool> first_;
    int depth_ = 0;
};

QuantizedHead
makeHead(int seq, int bits, int head_dim = 128, int queries = 8,
         uint64_t seed = 42)
{
    WorkloadSpec spec;
    spec.seq_len = seq;
    spec.query_len = queries;
    spec.head_dim = head_dim;
    spec.seed = seed;
    return quantizeHead(generateHead(spec), bits);
}

/** Measured cost of one GQA layer configuration (section 6). */
struct GqaDecodeCost
{
    double layer_us_per_tok = 0.0; //!< whole layer: appends + decode
    std::size_t kv_bytes = 0;      //!< resident KV after the run
};

/**
 * Per-token decode cost of one whole layer: prefill ctx tokens
 * (untimed), then time `steps` rounds of KV append + grouped decode
 * across every head, best of `reps` fresh engines. An enabled
 * @p retention policy windows the decode scan (section 9 measures
 * its context-independence with it).
 */
GqaDecodeCost
measureGqaDecode(int heads, int kv_heads, int ctx, int steps, int reps,
                 int64_t &checksum, RetentionPolicy retention = {})
{
    // A few untimed decode steps absorb one-time costs (grow-once
    // decode scratch sized to the stream) so the timed region sees
    // steady-state us/token.
    const int warmup = 4;
    LayerSpec spec;
    spec.heads = heads;
    spec.kv_heads = kv_heads;
    spec.head_dim = 128;
    spec.prompt_len = ctx;
    spec.decode_steps = warmup + steps;
    spec.seed = 42;
    const LayerWorkload lw = generateLayerWorkload(spec);

    LayerEngineConfig lc;
    lc.heads = heads;
    lc.kv_heads = kv_heads;
    lc.head_dim = spec.head_dim;
    lc.retention = retention;

    std::vector<float> v_scales;
    std::vector<float> logit_scales;
    for (const QuantizedHead &g : lw.groups) {
        v_scales.push_back(g.v.params.scale);
        logit_scales.push_back(g.logit_scale);
    }

    MatrixI8 k_stage(kv_heads, spec.head_dim);
    MatrixI8 v_stage(kv_heads, spec.head_dim);
    MatrixI8 q_stage(heads, spec.head_dim);
    MatrixF out(heads, spec.head_dim);

    GqaDecodeCost cost;
    for (int r = 0; r < std::max(1, reps); r++) {
        LayerEngine layer(lc, v_scales);
        for (int pos = 0; pos < ctx; pos++) {
            lw.stageKv(pos, k_stage, v_stage);
            layer.appendToken(k_stage, v_stage);
        }
        for (int t = 0; t < warmup; t++) {
            const int pos = ctx + t;
            lw.stageKv(pos, k_stage, v_stage);
            lw.stageQueries(pos, q_stage);
            layer.appendToken(k_stage, v_stage);
            const LayerStep st =
                layer.decode(q_stage, logit_scales, out);
            checksum += st.retained;
        }
        const auto t0 = std::chrono::steady_clock::now();
        for (int t = 0; t < steps; t++) {
            const int pos = ctx + warmup + t;
            lw.stageKv(pos, k_stage, v_stage);
            lw.stageQueries(pos, q_stage);
            layer.appendToken(k_stage, v_stage);
            const LayerStep st =
                layer.decode(q_stage, logit_scales, out);
            checksum += st.retained;
        }
        const double us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count() /
            steps;
        if (r == 0 || us < cost.layer_us_per_tok)
            cost.layer_us_per_tok = us;
        cost.kv_bytes = layer.bytesUsed();
    }
    return cost;
}

/** Section 7a measurement: wall time and scheduling-round count. */
struct ModelServeCost
{
    double us_per_tok = 0.0;
    /** advance() rounds to drain the stream. A pipelined round runs
     *  its flights concurrently (one unit of critical-path span);
     *  a serial round runs one whole token (`layers` units of span).
     *  serial_rounds * layers / pipelined_rounds is therefore the
     *  schedule's critical-path speedup given >= layers workers —
     *  deterministic, unlike the wall ratio, which saturates at the
     *  host's actual core count (1.0 on a single-core runner). */
    int64_t rounds = 0;
};

/**
 * Per-position cost of one whole-model token stream (section 7a):
 * every position of a ctx-token prompt plus `steps` decode tokens is
 * fed up front and the engine drained once, so the pipelined schedule
 * keeps its flight window full — layer l of token t overlapping layer
 * l+1 of token t-1 — while the serial reference schedule runs the
 * identical stream layer-by-layer. Both schedules get the SAME pool
 * (the serial one still fans its GQA groups out on it), so the ratio
 * isolates the pipeline overlap.
 */
ModelServeCost
measureModelServe(int layers, bool pipeline, ThreadPool *pool, int ctx,
                  int steps, int reps, int64_t &checksum)
{
    ModelSpec spec;
    spec.layers = layers;
    spec.heads = 8;
    spec.kv_heads = 2;
    spec.head_dim = 64;
    spec.prompt_len = ctx;
    spec.decode_steps = steps;
    spec.seed = 42;
    ModelWorkload work(spec);

    ModelEngineConfig mc;
    mc.layers = layers;
    mc.pipeline = pipeline;
    mc.layer.heads = spec.heads;
    mc.layer.kv_heads = spec.kv_heads;
    mc.layer.head_dim = spec.head_dim;
    mc.layer.page_tokens = 64;

    const auto streams = static_cast<std::size_t>(layers) *
        static_cast<std::size_t>(spec.kv_heads);
    const std::vector<float> v_scales(streams, work.vScale());
    const std::vector<float> logit_scales(streams, work.logitScale());

    ModelServeCost cost;
    for (int r = 0; r < std::max(1, reps); r++) {
        int64_t retained = 0;
        ModelEngine engine(
            mc, v_scales, logit_scales,
            [&work](int layer, int pos, MatrixI8 &k, MatrixI8 &v,
                    MatrixI8 &q) {
                work.stageKv(layer, pos, k, v);
                work.stageQueries(layer, pos, q);
            },
            [&retained](const TokenResult &tr) {
                for (const LayerStep &st : tr.steps)
                    retained += st.retained;
            });
        int64_t rounds = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (int pos = 0; pos < spec.positions(); pos++)
            engine.feed(pos, spec.prompt_len);
        while (engine.advance(pool))
            rounds++;
        const double us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count() /
            spec.positions();
        checksum += retained;
        cost.rounds = rounds;
        if (r == 0 || us < cost.us_per_tok)
            cost.us_per_tok = us;
    }
    return cost;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    const bool quick = cli.getBool("quick");
    const int reps = static_cast<int>(cli.getInt("reps", quick ? 2 : 3));
    const std::string out_path = cli.get("out", "BENCH_perf.json");
    const int sweep_threads = static_cast<int>(
        cli.getInt("threads", ThreadPool::hardwareThreads()));

    banner(std::string("PADE perf suite (") +
           (quick ? "quick" : "full") + ", best of " +
           std::to_string(reps) + ")");

    Json json;
    json.openObject();
    json.str("schema", "pade-perf-v1");
    json.field("quick", std::string(quick ? "true" : "false"));
    json.field("reps", static_cast<int64_t>(reps));
    json.field("hardware_threads",
               static_cast<int64_t>(ThreadPool::hardwareThreads()));
    int64_t checksum = 0; // defeats dead-code elimination; recorded

    // ------------------------------------------------------------------
    // 1. QK scoring kernel: the three-way comparison — scalar oracle,
    //    word-parallel popcount, AVX2 SIMD — exactDot over all
    //    (query, key) pairs. head_dim rows >= 128 are the ones the
    //    SIMD backend targets (ISSUE 3 acceptance: >= 1.5x over
    //    popcount there).
    // ------------------------------------------------------------------
    std::printf("\n[1/9] QK scoring kernel (exactDot over all pairs; "
                "simd %s)\n",
                qkSimdAvailable() ? "available" : "UNAVAILABLE");
    Table t1;
    t1.header({"seq", "bits", "hdim", "scalar ns/pair",
               "popcount ns/pair", "simd ns/pair", "simd/pop"});
    json.field("simd_available",
               std::string(qkSimdAvailable() ? "true" : "false"));
    json.openArray("qk_kernel");

    struct QkPoint
    {
        int seq, bits, head_dim;
    };
    std::vector<QkPoint> qk_points;
    if (quick) {
        qk_points = {{1024, 8, 128}, {4096, 8, 128}, {4096, 8, 256}};
    } else {
        for (int seq : {1024, 4096, 16384})
            for (int bits : {4, 8})
                qk_points.push_back({seq, bits, 128});
        // head_dim sweep at the paper operating point: covers the
        // pair-register kernel (<= 128), the quad kernel (<= 256),
        // and the wide chunked kernel beyond.
        for (int hd : {64, 256, 512})
            qk_points.push_back({4096, 8, hd});
    }

    for (const auto [seq, bits, head_dim] : qk_points) {
        const QuantizedHead head = makeHead(seq, bits, head_dim);
        const int p = head.q.values.rows();
        const double pairs = static_cast<double>(p) * seq;

        const double scalar_ms = bestMs(reps, [&] {
            for (int i = 0; i < p; i++) {
                auto q = head.q.values.row(i);
                for (int j = 0; j < seq; j++)
                    checksum += exactDotScalar(q, head.k_planes, j);
            }
        });
        QueryPlanes qp;
        const double pop_ms = bestMs(reps, [&] {
            for (int i = 0; i < p; i++) {
                qp.assign(head.q.values.row(i));
                for (int j = 0; j < seq; j++)
                    checksum += exactDot(qp, head.k_planes, j);
            }
        });
        const double simd_ms = bestMs(reps, [&] {
            for (int i = 0; i < p; i++) {
                qp.assign(head.q.values.row(i));
                for (int j = 0; j < seq; j++)
                    checksum += exactDotSimd(qp, head.k_planes, j);
            }
        });
        const double simd_vs_pop = pop_ms / simd_ms;
        t1.row({std::to_string(seq), std::to_string(bits),
                std::to_string(head_dim),
                Table::num(scalar_ms * 1e6 / pairs, 1),
                Table::num(pop_ms * 1e6 / pairs, 1),
                Table::num(simd_ms * 1e6 / pairs, 1),
                Table::num(simd_vs_pop, 2)});
        json.openObject();
        json.field("seq", static_cast<int64_t>(seq));
        json.field("bits", static_cast<int64_t>(bits));
        json.field("head_dim", static_cast<int64_t>(head_dim));
        json.field("scalar_ns_per_pair", scalar_ms * 1e6 / pairs);
        json.field("popcount_ns_per_pair", pop_ms * 1e6 / pairs);
        json.field("simd_ns_per_pair", simd_ms * 1e6 / pairs);
        json.field("speedup_pop_vs_scalar", scalar_ms / pop_ms);
        json.field("speedup_simd_vs_pop", simd_vs_pop);
        json.close();
    }
    json.close(true);
    t1.print();

    // ------------------------------------------------------------------
    // 2. Full padeAttention under all three dispatches, reused
    //    workspace. kSimd silently resolves to kPopcount when the
    //    backend is unavailable (the two columns then read the same).
    // ------------------------------------------------------------------
    std::printf("\n[2/9] padeAttention (guarded, workspace reuse)\n");
    Table t2;
    t2.header({"seq", "scalar ms", "popcount ms", "simd ms",
               "simd/scalar", "keep rate"});
    json.openArray("pade_attention");
    for (int seq : quick ? std::vector<int>{1024}
                         : std::vector<int>{1024, 4096}) {
        const QuantizedHead head = makeHead(seq, 8);
        PadeWorkspace ws;
        double keep = 0.0;
        const auto time_kernel = [&](QkKernel k) {
            PadeConfig cfg;
            cfg.qk_kernel = k;
            return bestMs(reps, [&] {
                const PadeResult res = padeAttention(head, cfg, &ws);
                checksum +=
                    static_cast<int64_t>(res.stats.keys_retained);
                keep = res.stats.keepRate();
            });
        };
        const double scalar_ms = time_kernel(QkKernel::kScalar);
        const double pop_ms = time_kernel(QkKernel::kPopcount);
        const double simd_ms = time_kernel(QkKernel::kSimd);
        t2.row({std::to_string(seq), Table::num(scalar_ms, 2),
                Table::num(pop_ms, 2), Table::num(simd_ms, 2),
                Table::num(scalar_ms / simd_ms, 2),
                Table::num(keep, 3)});
        json.openObject();
        json.field("seq", static_cast<int64_t>(seq));
        json.field("bits", static_cast<int64_t>(8));
        json.field("scalar_ms", scalar_ms);
        json.field("popcount_ms", pop_ms);
        json.field("simd_ms", simd_ms);
        json.field("speedup_pop_vs_scalar", scalar_ms / pop_ms);
        json.field("speedup_simd_vs_scalar", scalar_ms / simd_ms);
        json.field("keep_rate", keep);
        json.close();
    }
    json.close(true);
    t2.print();

    // ------------------------------------------------------------------
    // 3. Reference attention (cache-blocked matmul path + flash).
    // ------------------------------------------------------------------
    std::printf("\n[3/9] reference attention (oracle path)\n");
    Table t3;
    t3.header({"seq", "queries", "dense ms", "flash ms"});
    json.openArray("reference");
    for (int seq : quick ? std::vector<int>{1024}
                         : std::vector<int>{1024, 2048}) {
        WorkloadSpec spec;
        spec.seq_len = seq;
        spec.query_len = 256;
        spec.head_dim = 128;
        const AttentionHead head = generateHead(spec);
        const double dense_ms = bestMs(reps, [&] {
            const MatrixF o = denseAttention(head.q, head.k, head.v,
                                             head.scale);
            checksum += static_cast<int64_t>(o.at(0, 0) * 1e3);
        });
        const double flash_ms = bestMs(reps, [&] {
            const MatrixF o = flashAttention(head.q, head.k, head.v,
                                             head.scale, 64);
            checksum += static_cast<int64_t>(o.at(0, 0) * 1e3);
        });
        t3.row({std::to_string(seq), "256", Table::num(dense_ms, 2),
                Table::num(flash_ms, 2)});
        json.openObject();
        json.field("seq", static_cast<int64_t>(seq));
        json.field("queries", static_cast<int64_t>(256));
        json.field("dense_ms", dense_ms);
        json.field("flash_ms", flash_ms);
        json.close();
    }
    json.close(true);
    t3.print();

    // ------------------------------------------------------------------
    // 4. Batch-driver sweep across {seq, bits, concentration}.
    // ------------------------------------------------------------------
    std::printf("\n[4/9] batch-driver sweep (%d workers)\n",
                sweep_threads);
    std::vector<BatchItem> sweep;
    for (int seq : quick ? std::vector<int>{2048}
                         : std::vector<int>{2048, 8192})
        for (int bits : {8, 4})
            for (double conc : {0.75, 1.25}) {
                BatchItem item;
                item.req.model = llama2_7b();
                item.req.model.concentration = conc;
                item.req.dataset = dsWikitext2();
                item.req.dataset.seq_len = seq;
                item.req.bits = bits;
                item.req.max_sim_seq = 2048;
                sweep.push_back(item);
            }
    const BatchDriver driver(BatchOptions{.threads = sweep_threads,
                                          .seed_base = 7});
    const double sweep_ms = bestMs(1, [&] {
        const BatchResult res = driver.run(sweep);
        checksum += res.completed;
        if (res.failed > 0)
            std::fprintf(stderr, "sweep: %d requests failed\n",
                         res.failed);
    });
    std::printf("%zu requests in %.1f ms\n", sweep.size(), sweep_ms);
    json.openObject("batch_sweep");
    json.field("requests", static_cast<int64_t>(sweep.size()));
    json.field("threads", static_cast<int64_t>(sweep_threads));
    json.field("wall_ms", sweep_ms);
    json.close();

    // ------------------------------------------------------------------
    // 5. Serving decode: incremental KvCache vs full re-pack. The
    //    cached pack cost (append only) must stay flat across context
    //    lengths — it is O(bits * head_dim) per token — while the
    //    re-pack cost is O(context); the total step cost additionally
    //    carries the O(context) guarded scan both paths share.
    // ------------------------------------------------------------------
    std::printf("\n[5/9] serving decode (incremental KvCache vs "
                "re-pack)\n");
    Table t5;
    t5.header({"ctx", "append us/tok", "cached us/tok",
               "repack us/tok", "repack/cached", "decode tok/s"});
    json.openArray("serving_decode");
    const int serve_steps = quick ? 6 : 12;
    for (int ctx : quick ? std::vector<int>{512, 1024}
                         : std::vector<int>{1024, 2048, 4096}) {
        ServingDecodePoint pt;
        pt.ctx = ctx;
        pt.steps = serve_steps;
        pt.reps = reps;
        const ServingDecodeCost c =
            measureServingDecode(pt, PadeConfig{});
        checksum += c.pages;
        // Coarse steady_clock ticks can measure a 0 us cached loop;
        // keep the ratios finite so the JSON stays parseable.
        const double cached_us = std::max(c.cached_us_per_tok, 1e-9);

        t5.row({std::to_string(ctx),
                Table::num(c.append_us_per_tok, 2),
                Table::num(c.cached_us_per_tok, 1),
                Table::num(c.repack_us_per_tok, 1),
                Table::num(c.repack_us_per_tok / cached_us, 1),
                Table::num(1e6 / cached_us, 0)});
        json.openObject();
        json.field("ctx", static_cast<int64_t>(ctx));
        json.field("steps", static_cast<int64_t>(serve_steps));
        json.field("append_us_per_tok", c.append_us_per_tok);
        json.field("cached_us_per_tok", c.cached_us_per_tok);
        json.field("repack_us_per_tok", c.repack_us_per_tok);
        json.field("repack_vs_cached",
                   c.repack_us_per_tok / cached_us);
        json.field("decode_tok_per_s", 1e6 / cached_us);
        json.close();
    }
    json.close(true);
    t5.print();

    // ------------------------------------------------------------------
    // 6. GQA layer decode: a whole 8-head layer at KV sharing ratios
    //    1:1 / 4:1 / 8:1 versus 8x the single-head cost. The shared
    //    cache amortizes appends and per-key page/PlaneWork lookups
    //    across the group (acceptance: the 8:1 ratio sits measurably
    //    below 1.0), and KV residency scales with kv_heads.
    // ------------------------------------------------------------------
    std::printf("\n[6/9] GQA layer decode (8 query heads, shared KV "
                "caches)\n");
    Table t6;
    t6.header({"heads", "kv", "ratio", "ctx", "layer us/tok",
               "us/tok/head", "vs heads x single", "KV MB"});
    json.openArray("gqa_decode");
    const int gqa_ctx = quick ? 512 : 1024;
    const int gqa_steps = quick ? 6 : 12;

    const GqaDecodeCost single =
        measureGqaDecode(1, 1, gqa_ctx, gqa_steps, reps, checksum);
    struct GqaRow
    {
        int heads, kv_heads;
    };
    for (const auto [heads, kv_heads] :
         {GqaRow{1, 1}, GqaRow{8, 8}, GqaRow{8, 2}, GqaRow{8, 1}}) {
        const GqaDecodeCost c = heads == 1
            ? single
            : measureGqaDecode(heads, kv_heads, gqa_ctx, gqa_steps,
                               reps, checksum);
        const double vs_single = c.layer_us_per_tok /
            (heads * single.layer_us_per_tok);
        char ratio[16];
        std::snprintf(ratio, sizeof(ratio), "%d:1",
                      heads / kv_heads);
        t6.row({std::to_string(heads), std::to_string(kv_heads),
                ratio, std::to_string(gqa_ctx),
                Table::num(c.layer_us_per_tok, 1),
                Table::num(c.layer_us_per_tok / heads, 1),
                Table::num(vs_single, 3),
                Table::num(static_cast<double>(c.kv_bytes) / 1e6,
                           2)});
        json.openObject();
        json.field("heads", static_cast<int64_t>(heads));
        json.field("kv_heads", static_cast<int64_t>(kv_heads));
        json.field("ctx", static_cast<int64_t>(gqa_ctx));
        json.field("steps", static_cast<int64_t>(gqa_steps));
        json.field("layer_us_per_tok", c.layer_us_per_tok);
        json.field("us_per_tok_per_head",
                   c.layer_us_per_tok / heads);
        json.field("vs_heads_x_single", vs_single);
        json.field("kv_bytes", static_cast<int64_t>(c.kv_bytes));
        json.close();
    }
    json.close(true);
    t6.print();

    // ------------------------------------------------------------------
    // 7. Model serving: (a) pipelined vs serial ModelEngine layer
    //    schedule (same pool, same token stream — the ratio is the
    //    pipeline overlap), (b) cross-session prefix caching in the
    //    ContinuousBatcher (adopted tokens + KV bytes saved; the
    //    checksums must match bit for bit, cache on or off).
    // ------------------------------------------------------------------
    std::printf("\n[7/9] model serving (pipelined layers, prefix "
                "cache)\n");
    Table t7;
    t7.header({"layers", "serial us/tok", "pipelined us/tok",
               "wall speedup", "round speedup"});
    json.openArray("model_pipeline");
    {
        const int ctx = quick ? 192 : 384;
        const int steps = quick ? 16 : 32;
        ThreadPool pool(sweep_threads);
        for (int layers : {2, 4}) {
            const ModelServeCost serial = measureModelServe(
                layers, false, &pool, ctx, steps, reps, checksum);
            const ModelServeCost piped = measureModelServe(
                layers, true, &pool, ctx, steps, reps, checksum);
            // Critical-path span ratio of the two schedules: a serial
            // round is `layers` sequential units, a pipelined round
            // is one (its flights run concurrently). This is the
            // speedup the pipeline delivers given >= layers workers;
            // the wall ratio realizes it up to the host core count.
            const double round_speedup =
                static_cast<double>(serial.rounds * layers) /
                static_cast<double>(piped.rounds);
            t7.row({std::to_string(layers),
                    Table::num(serial.us_per_tok, 1),
                    Table::num(piped.us_per_tok, 1),
                    Table::num(serial.us_per_tok / piped.us_per_tok,
                               2),
                    Table::num(round_speedup, 2)});
            json.openObject();
            json.field("layers", static_cast<int64_t>(layers));
            json.field("ctx", static_cast<int64_t>(ctx));
            json.field("decode_steps", static_cast<int64_t>(steps));
            json.field("serial_us_per_tok", serial.us_per_tok);
            json.field("pipelined_us_per_tok", piped.us_per_tok);
            json.field("serial_rounds", serial.rounds);
            json.field("pipelined_rounds", piped.rounds);
            json.field("wall_speedup",
                       serial.us_per_tok / piped.us_per_tok);
            json.field("round_speedup_pipelined_vs_serial",
                       round_speedup);
            json.close();
        }
    }
    json.close(true);
    t7.print();

    {
        TraceSpec ts;
        ts.num_requests = quick ? 10 : 16;
        ts.rate_per_s = 4000.0;
        ts.prompt_min = 24;
        ts.prompt_max = 48;
        ts.decode_min = 4;
        ts.decode_max = 8;
        ts.seed = 2026;
        ts.prefix_groups = 2;
        ts.prefix_tokens = 128;
        const std::vector<ServingRequest> trace =
            poissonArrivalTrace(ts);

        BatcherOptions opt;
        opt.threads = sweep_threads;
        opt.max_active = 4;
        opt.prefill_chunk = 32;
        opt.layers = 2;
        opt.heads = 4;
        opt.kv_heads = 2;
        opt.head_dim = 64;
        opt.page_tokens = 64; // prefix spans exactly 2 shared pages
        ServingReport cold;
        ServingReport warm;
        const double cold_ms = bestMs(1, [&] {
            cold = ContinuousBatcher(opt).run(trace);
        });
        opt.prefix_cache = true;
        const double warm_ms = bestMs(1, [&] {
            warm = ContinuousBatcher(opt).run(trace);
        });
        checksum += static_cast<int64_t>(warm.checksum & 0xffff);

        const bool match = cold.checksum == warm.checksum &&
            cold.prefill_checksum == warm.prefill_checksum;
        if (!match)
            std::fprintf(stderr,
                         "prefix cache changed outputs (BUG)\n");
        const double hit_rate = warm.tokens_prefilled > 0
            ? static_cast<double>(warm.tokens_prefix_hit) /
                static_cast<double>(warm.tokens_prefilled)
            : 0.0;
        std::printf("prefix cache: %llu/%llu prompt tokens adopted "
                    "(%.0f%%), %.2f MB KV never re-materialized, "
                    "checksums %s (cold %.1f ms, warm %.1f ms)\n",
                    static_cast<unsigned long long>(
                        warm.tokens_prefix_hit),
                    static_cast<unsigned long long>(
                        warm.tokens_prefilled),
                    hit_rate * 100.0,
                    static_cast<double>(warm.prefix_bytes_saved) /
                        1e6,
                    match ? "MATCH" : "MISMATCH",
                    cold_ms, warm_ms);

        json.openObject("prefix_cache");
        json.field("requests",
                   static_cast<int64_t>(trace.size()));
        json.field("prefix_groups",
                   static_cast<int64_t>(ts.prefix_groups));
        json.field("prefix_tokens",
                   static_cast<int64_t>(ts.prefix_tokens));
        json.field("cold_wall_ms", cold_ms);
        json.field("warm_wall_ms", warm_ms);
        json.field("tokens_prefilled",
                   static_cast<int64_t>(warm.tokens_prefilled));
        json.field("tokens_prefix_hit",
                   static_cast<int64_t>(warm.tokens_prefix_hit));
        json.field("hit_rate", hit_rate);
        json.field("prefix_bytes_saved",
                   static_cast<int64_t>(warm.prefix_bytes_saved));
        json.field("index_published",
                   static_cast<int64_t>(warm.prefix.published));
        json.field("index_hit_pages",
                   static_cast<int64_t>(warm.prefix.hit_pages));
        json.field("checksum_match",
                   std::string(match ? "true" : "false"));
        json.close();
    }

    // ------------------------------------------------------------------
    // 8. Telemetry overhead: the same pipelined model decode measured
    //    with span recording disabled (metric counters still run —
    //    that is the permanent, unavoidable cost of the registry) and
    //    enabled (ring-buffer spans on every round/unit). The delta is
    //    the full observability tax; acceptance target is < 2%. A
    //    PADE_TELEMETRY=OFF build compiles both paths to no-ops, so
    //    `telemetry_compiled` records which regime this run measured.
    // ------------------------------------------------------------------
    std::printf("\n[8/9] telemetry overhead (spans off vs on; compiled "
                "%s)\n",
                obs::kTelemetryEnabled ? "ON" : "OFF");
    {
        const int ctx = quick ? 192 : 384;
        const int steps = quick ? 16 : 32;
        ThreadPool pool(sweep_threads);
        obs::setTraceEnabled(false);
        const ModelServeCost spans_off = measureModelServe(
            2, true, &pool, ctx, steps, reps, checksum);
        obs::clearTrace();
        obs::setTraceCapacity(1u << 20); // never wraps during the run
        obs::setTraceEnabled(true);
        const ModelServeCost spans_on = measureModelServe(
            2, true, &pool, ctx, steps, reps, checksum);
        obs::setTraceEnabled(false);
        const obs::TraceStats tstats = obs::traceStats();
        obs::clearTrace();
        obs::setTraceCapacity(16384); // restore the default ring size

        const double overhead_pct = spans_off.us_per_tok > 0.0
            ? (spans_on.us_per_tok / spans_off.us_per_tok - 1.0) *
                100.0
            : 0.0;
        std::printf("pipelined decode %.1f -> %.1f us/tok with spans "
                    "(%+.2f%% overhead, %llu events buffered)\n",
                    spans_off.us_per_tok, spans_on.us_per_tok,
                    overhead_pct,
                    static_cast<unsigned long long>(tstats.recorded));

        json.openObject("telemetry_overhead");
        json.field("telemetry_compiled",
                   std::string(obs::kTelemetryEnabled ? "true"
                                                      : "false"));
        json.field("ctx", static_cast<int64_t>(ctx));
        json.field("decode_steps", static_cast<int64_t>(steps));
        json.field("us_per_tok_spans_off", spans_off.us_per_tok);
        json.field("us_per_tok_spans_on", spans_on.us_per_tok);
        json.field("overhead_pct", overhead_pct);
        json.field("trace_events_recorded",
                   static_cast<int64_t>(tstats.recorded));
        json.close();
    }

    // ------------------------------------------------------------------
    // 9. Windowed decode: per-token cost at context 4096 vs 16384
    //    under a 64-sink / 512-recency window — flat, because the scan
    //    order and its scratch clearing are O(window).
    // ------------------------------------------------------------------
    std::printf("\n[9/9] windowed decode (64 sink + 512 recency)\n");
    {
        RetentionPolicy rp;
        rp.sink_tokens = 64;
        rp.recency_tokens = 512;
        // Enough timed steps that per-step jitter averages out — the
        // flatness claim compares two ~50 us/token measurements.
        const int win_steps = quick ? 32 : 96;
        Table t9;
        t9.header({"ctx", "window", "decode us/tok"});
        json.openArray("windowed_decode");
        // Interleave the two contexts across reps (4k, 16k, 4k, ...)
        // so a noisy window on the host lands on both: the flatness
        // ratio must compare like conditions, not whichever context
        // drew the quiet window.
        const int ctxs[2] = {4096, 16384};
        double best_us[2] = {0.0, 0.0};
        for (int r = 0; r < std::max(1, reps); r++) {
            for (int i = 0; i < 2; i++) {
                const GqaDecodeCost c = measureGqaDecode(
                    1, 1, ctxs[i], win_steps, 1, checksum, rp);
                if (r == 0 || c.layer_us_per_tok < best_us[i])
                    best_us[i] = c.layer_us_per_tok;
            }
        }
        const double us_small = best_us[0];
        const double us_large = best_us[1];
        for (int i = 0; i < 2; i++) {
            t9.row({std::to_string(ctxs[i]),
                    std::to_string(rp.sink_tokens + rp.recency_tokens),
                    Table::num(best_us[i], 1)});
            json.openObject();
            json.field("ctx", static_cast<int64_t>(ctxs[i]));
            json.field("sink_tokens",
                       static_cast<int64_t>(rp.sink_tokens));
            json.field("recency_tokens",
                       static_cast<int64_t>(rp.recency_tokens));
            json.field("decode_us_per_tok", best_us[i]);
            json.close();
        }
        json.close(true);
        t9.print();
        const double flatness =
            us_large / std::max(us_small, 1e-9);
        std::printf("windowed decode us/tok at 16384 vs 4096 ctx: "
                    "%.2fx (flat target: within 10%%)\n",
                    flatness);
        json.field("windowed_decode_flatness_16k_vs_4k", flatness);
    }

    json.field("checksum", checksum);
    json.close();

    FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "%s\n", json.text().c_str());
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
