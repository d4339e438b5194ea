/**
 * @file
 * Perf-tracking suite: times the simulator's hot paths and emits a
 * machine-readable BENCH_perf.json so the performance trajectory is
 * visible across PRs (CI uploads the file as an artifact).
 *
 * Three stages are measured, checks that neither the serving
 * benchmark (servbench/) nor the kernel microbenchmarks
 * (bench/micro_kernels.cc, which time the QK kernels and
 * padeAttention under every dispatch with spread) cover:
 *  1. reference attention — cache-blocked dense matmul path and the
 *     tiled flash recurrence (the oracle every figure bench pays for);
 *  2. GQA layer decode — per-token cost of a whole 8-query-head
 *     layer at KV-sharing ratios 1:1 / 4:1 / 8:1 (LayerEngine with
 *     shared caches), against 8x the single-head cost. Sharing the
 *     KV stream amortizes the append and the per-key page/WorkPrefix
 *     lookups across the group, so the grouped cost sits measurably
 *     below heads-times-single — and KV residency scales with
 *     kv_heads, not heads;
 *  3. windowed decode — per-token decode cost of a layer under a
 *     sink+recency retention window at context 4096 vs 16384, which
 *     must stay flat (the scan order and its scratch clearing are
 *     O(window), not O(context)).
 *
 * Flags: --quick (CI smoke: fewer/smaller points), --reps=N best-of
 * repetitions (default 3), --out=FILE (default BENCH_perf.json).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "attention/reference.h"
#include "bench/common.h"
#include "core/simd/qk_dispatch.h"
#include "runtime/thread_pool.h"
#include "serving/layer_engine.h"
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

/** Measured cost of one GQA layer configuration (section 2). */
struct GqaDecodeCost
{
    double layer_us_per_tok = 0.0; //!< whole layer: appends + decode
    std::size_t kv_bytes = 0;      //!< resident KV after the run
};

/**
 * Per-token decode cost of one whole layer: prefill ctx tokens
 * (untimed), then time `steps` rounds of KV append + grouped decode
 * across every head, best of `reps` fresh engines. An enabled
 * @p retention policy windows the decode scan (section 3 measures
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

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    const bool quick = cli.getBool("quick");
    const int reps = static_cast<int>(cli.getInt("reps", quick ? 2 : 3));
    const std::string out_path = cli.get("out", "BENCH_perf.json");

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
    // The decode sections run the default kernel: kSimd here, else
    // kPopcount.
    json.field("simd_available",
               std::string(qkSimdAvailable() ? "true" : "false"));
    int64_t checksum = 0; // defeats dead-code elimination; recorded

    // ------------------------------------------------------------------
    // 1. Reference attention (cache-blocked matmul path + flash).
    // ------------------------------------------------------------------
    std::printf("\n[1/3] reference attention (oracle path)\n");
    Table t1;
    t1.header({"seq", "queries", "dense ms", "flash ms"});
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
        t1.row({std::to_string(seq), "256", Table::num(dense_ms, 2),
                Table::num(flash_ms, 2)});
        json.openObject();
        json.field("seq", static_cast<int64_t>(seq));
        json.field("queries", static_cast<int64_t>(256));
        json.field("dense_ms", dense_ms);
        json.field("flash_ms", flash_ms);
        json.close();
    }
    json.close(true);
    t1.print();

    // ------------------------------------------------------------------
    // 2. GQA layer decode: a whole 8-head layer at KV sharing ratios
    //    1:1 / 4:1 / 8:1 versus 8x the single-head cost. The shared
    //    cache amortizes appends and per-key page/WorkPrefix lookups
    //    across the group (acceptance: the 8:1 ratio sits measurably
    //    below 1.0), and KV residency scales with kv_heads.
    // ------------------------------------------------------------------
    std::printf("\n[2/3] GQA layer decode (8 query heads, shared KV "
                "caches)\n");
    Table t2;
    t2.header({"heads", "kv", "ratio", "ctx", "layer us/tok",
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
        t2.row({std::to_string(heads), std::to_string(kv_heads),
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
    t2.print();

    // ------------------------------------------------------------------
    // 3. Windowed decode: per-token cost at context 4096 vs 16384
    //    under a 64-sink / 512-recency window — flat, because the scan
    //    order and its scratch clearing are O(window).
    // ------------------------------------------------------------------
    std::printf("\n[3/3] windowed decode (64 sink + 512 recency)\n");
    {
        RetentionPolicy rp;
        rp.sink_tokens = 64;
        rp.recency_tokens = 512;
        // Enough timed steps that per-step jitter averages out — the
        // flatness claim compares two ~50 us/token measurements.
        const int win_steps = quick ? 32 : 96;
        Table t3;
        t3.header({"ctx", "window", "decode us/tok"});
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
            t3.row({std::to_string(ctxs[i]),
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
        t3.print();
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
