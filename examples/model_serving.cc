/**
 * @file
 * Model-granularity GQA serving demo: one transformer layer's
 * attention — `heads` query heads grouped onto `kv_heads` shared KV
 * caches — served end to end through `LayerEngine`: scored chunked
 * prefill of the prompt, then grouped autoregressive decode.
 *
 *   $ ./model_serving [--heads 8] [--kv-heads 2] [--head-dim 64]
 *                     [--prompt 96] [--steps 16] [--chunk 32]
 *                     [--bits 8] [--threads 0] [--seed 42]
 *
 * Two exactness gates make this a CI smoke for the whole
 * model-granularity stack (exit status is nonzero if either fails):
 *
 *  1. every decoded output row is bit-identical to the
 *     per-head-private-cache oracle — each query head decoding
 *     against its own copy of its group's KV stream as a group of
 *     one;
 *  2. the grouped decode checksum is identical with and without the
 *     KV-head ThreadPool fan-out.
 *
 * The report also shows what the sharing buys: KV bytes scale with
 * kv_heads (an 8:1 group stores 1/8th the pages) and the per-token
 * plane table is built once per KV head instead of once per query
 * head.
 */

#include <algorithm>
#include <bit>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "common/rng.h"
#include "serving/kv_cache.h"
#include "serving/layer_engine.h"
#include "serving/report_format.h"
#include "workload/generator.h"

using namespace pade;
using namespace pade::bench;

namespace {

uint64_t
mix(uint64_t acc, const MatrixF &m)
{
    for (int r = 0; r < m.rows(); r++)
        for (float v : m.row(r)) {
            uint64_t state = acc + std::bit_cast<uint32_t>(v);
            acc = splitMix64(state);
        }
    return acc;
}

/** Serve the whole layer; returns the decode-output checksum. */
uint64_t
serveLayer(const LayerWorkload &lw, const LayerEngineConfig &lc,
           int chunk, ThreadPool *pool, std::size_t *kv_bytes,
           uint64_t *prefill_checksum)
{
    std::vector<float> v_scales;
    std::vector<float> logit_scales;
    for (const QuantizedHead &g : lw.groups) {
        v_scales.push_back(g.v.params.scale);
        logit_scales.push_back(g.logit_scale);
    }
    LayerEngine layer(lc, v_scales);

    MatrixI8 k_stage(lc.kv_heads, lc.head_dim);
    MatrixI8 v_stage(lc.kv_heads, lc.head_dim);
    MatrixI8 q_stage(lc.heads, lc.head_dim);
    MatrixF out(lc.heads, lc.head_dim);

    const int prompt = lw.spec.prompt_len;
    uint64_t prefill_sum = 0;
    for (int base = 0; base < prompt; base += chunk) {
        const int n = std::min(chunk, prompt - base);
        for (int t = 0; t < n; t++) {
            lw.stageKv(base + t, k_stage, v_stage);
            layer.appendToken(k_stage, v_stage);
        }
        for (int t = 0; t < n; t++) {
            const int pos = base + t;
            lw.stageQueries(pos, q_stage);
            layer.prefillPosition(q_stage, pos, prompt, logit_scales,
                                  out, pool);
            prefill_sum = mix(prefill_sum, out);
        }
    }

    uint64_t decode_sum = 0;
    for (int t = 0; t < lw.spec.decode_steps; t++) {
        const int pos = prompt + t;
        lw.stageKv(pos, k_stage, v_stage);
        layer.appendToken(k_stage, v_stage);
        lw.stageQueries(pos, q_stage);
        layer.decode(q_stage, logit_scales, out, pool);
        decode_sum = mix(decode_sum, out);
    }

    if (kv_bytes)
        *kv_bytes = layer.bytesUsed();
    if (prefill_checksum)
        *prefill_checksum = prefill_sum;
    return decode_sum;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    LayerSpec spec;
    spec.heads = static_cast<int>(cli.getInt("heads", 8));
    spec.kv_heads = static_cast<int>(cli.getInt("kv-heads", 2));
    spec.head_dim = static_cast<int>(cli.getInt("head-dim", 64));
    spec.prompt_len = static_cast<int>(cli.getInt("prompt", 96));
    spec.decode_steps = static_cast<int>(cli.getInt("steps", 16));
    spec.bits = static_cast<int>(cli.getInt("bits", 8));
    spec.seed = static_cast<uint64_t>(cli.getInt("seed", 42));
    const int chunk = static_cast<int>(cli.getInt("chunk", 32));
    const int threads = static_cast<int>(cli.getInt("threads", 0));
    banner("Model-granularity GQA serving on the PADE engine");

    if (spec.heads % spec.kv_heads != 0) {
        std::fprintf(stderr, "heads must be a multiple of kv-heads\n");
        return 1;
    }
    const LayerWorkload lw = generateLayerWorkload(spec);

    LayerEngineConfig lc;
    lc.heads = spec.heads;
    lc.kv_heads = spec.kv_heads;
    lc.head_dim = spec.head_dim;
    lc.bits = spec.bits;

    std::printf("layer: %d query heads on %d KV heads (group %d), "
                "head_dim %d, prompt %d (+%d decode), chunk %d\n\n",
                spec.heads, spec.kv_heads, spec.groupSize(),
                spec.head_dim, spec.prompt_len, spec.decode_steps,
                chunk);

    // Grouped execution, serial and pooled.
    std::size_t grouped_bytes = 0;
    uint64_t prefill_sum = 0;
    const uint64_t serial_sum =
        serveLayer(lw, lc, chunk, nullptr, &grouped_bytes,
                   &prefill_sum);
    ThreadPool pool(threads);
    const uint64_t pooled_sum =
        serveLayer(lw, lc, chunk, &pool, nullptr, nullptr);

    // Per-head-private-cache oracle: every query head decodes as a
    // group of one against its own copy of the KV stream.
    MatrixF oracle_out(spec.heads, spec.head_dim);
    uint64_t oracle_sum = 0;
    std::size_t oracle_bytes = 0;
    {
        std::vector<KvCache> caches;
        std::vector<DecodeEngine> engines;
        for (int h = 0; h < spec.heads; h++) {
            KvCacheConfig kc;
            kc.head_dim = spec.head_dim;
            kc.bits = spec.bits;
            kc.v_scale = lw.groupOf(h).v.params.scale;
            caches.emplace_back(kc);
            engines.emplace_back(lc.pade);
        }
        for (int pos = 0; pos < spec.positions(); pos++) {
            for (int h = 0; h < spec.heads; h++) {
                const QuantizedHead &g = lw.groupOf(h);
                caches[static_cast<std::size_t>(h)].appendToken(
                    g.k.values.row(pos), g.v.values.row(pos));
            }
            if (pos < spec.prompt_len)
                continue;
            for (int h = 0; h < spec.heads; h++) {
                const QuantizedHead &g = lw.groupOf(h);
                engines[static_cast<std::size_t>(h)].stepGroup(
                    caches[static_cast<std::size_t>(h)], g.q.values,
                    lw.queryRow(h, pos), 1, g.logit_scale, oracle_out,
                    h);
            }
            oracle_sum = mix(oracle_sum, oracle_out);
        }
        for (const KvCache &c : caches)
            oracle_bytes += c.bytesUsed();
    }

    const bool oracle_ok = serial_sum == oracle_sum;
    const bool pool_ok = serial_sum == pooled_sum;
    char note[48];
    std::printf("%s\n",
                formatChecksumLine("decode checksum", serial_sum,
                                   "grouped")
                    .c_str());
    std::printf("%s\n",
                formatChecksumLine("oracle checksum", oracle_sum,
                                   oracle_ok ? "bit-identical"
                                             : "DIVERGED")
                    .c_str());
    std::printf("%s\n",
                formatChecksumLine("pooled checksum", pooled_sum,
                                   pool_ok ? "bit-identical"
                                           : "DIVERGED")
                    .c_str());
    std::snprintf(note, sizeof(note), "scored, %d positions",
                  spec.prompt_len);
    std::printf("%s\n",
                formatChecksumLine("prefill checksum", prefill_sum,
                                   note)
                    .c_str());
    std::printf("\nKV residency      : %.2f MB shared (%d caches) vs "
                "%.2f MB private (%d caches) — %.1fx\n",
                static_cast<double>(grouped_bytes) / 1e6,
                spec.kv_heads,
                static_cast<double>(oracle_bytes) / 1e6, spec.heads,
                static_cast<double>(oracle_bytes) /
                    static_cast<double>(grouped_bytes));
    std::printf("plane tables      : built once per KV head (%d) and "
                "reused by all %d query heads\n",
                spec.kv_heads, spec.heads);
    return (oracle_ok && pool_ok) ? 0 : 1;
}
