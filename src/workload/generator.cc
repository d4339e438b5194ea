#include "workload/generator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <initializer_list>

#include "attention/reference.h"
#include "common/check.h"
#include "common/rng.h"

namespace pade {

WorkloadSpec
WorkloadSpec::fromPresets(const ModelConfig &m, const DatasetConfig &d,
                          int query_len, uint64_t seed)
{
    WorkloadSpec spec;
    spec.seq_len = d.seq_len;
    spec.query_len = query_len;
    spec.head_dim = m.head_dim;
    spec.concentration = m.concentration;
    spec.locality = d.locality;
    spec.seed = seed;
    return spec;
}

AttentionHead
generateHead(const WorkloadSpec &spec)
{
    Rng rng(spec.seed);
    const int h = spec.head_dim;
    const int s = spec.seq_len;
    const int p = spec.query_len;

    AttentionHead head;
    head.scale = 1.0f / std::sqrt(static_cast<float>(h));
    head.q = MatrixF(p, h);
    head.k = MatrixF(s, h);
    head.v = MatrixF(s, h);

    // Shared context direction (unit vector).
    std::vector<float> u(h);
    double norm = 0.0;
    for (float &x : u) {
        x = static_cast<float>(rng.gaussian());
        norm += static_cast<double>(x) * x;
    }
    norm = std::sqrt(std::max(norm, 1e-12));
    for (float &x : u)
        x = static_cast<float>(x / norm);

    // Queries: aligned component ~sqrt(H) plus unit noise so that
    // q_i . u ~ sqrt(H) and the scaled logits land in the O(1..10)
    // range LLM attention exhibits.
    const double q_align = std::sqrt(static_cast<double>(h));
    for (int i = 0; i < p; i++) {
        const double c = rng.gaussian(q_align, 0.15 * q_align);
        for (int d = 0; d < h; d++) {
            head.q.at(i, d) = static_cast<float>(
                c * u[d] + rng.gaussian());
        }
    }

    // Per-key importance: a small cluster of "vital" tokens whose
    // logits sit well above a heavy-but-bounded bulk, plus sink
    // (token 0) and recency boosts scaled by locality. Real attention
    // rows concentrate their mass on tens of tokens, so masks must
    // capture a *group* — making predictor precision matter. QAT mode
    // flattens the gap (paper Fig. 26(a) observation). The amplitude
    // grows mildly with log(S) so that vital tokens stay separated
    // from the softmax bulk as the denominator grows — matching the
    // paper's observation that exploitable sparsity increases with
    // sequence length.
    // Importance follows a smooth power-law c = amp * u^tau
    // (u uniform): a continuum from a few near-max vital tokens
    // through a mid band into the bulk. Tuned so that capturing 99.9%
    // of softmax mass needs roughly 20-35% of the keys at LLM-like
    // concentration (matching the sparsity levels the paper's Fig. 15
    // sweeps), and correspondingly fewer for longer sequences.
    const double length_boost = std::max(
        0.55, 1.0 + 0.12 * std::log2(std::max(s, 64) / 2048.0));
    double amp = (6.0 + 5.4 * spec.concentration) * length_boost;
    double tau = 2.0 + 1.6 * spec.concentration;
    if (spec.qat_uniform) {
        // QAT flattens the value distribution (paper Fig. 26(a)).
        amp *= 0.6;
        tau *= 0.6;
    }
    const double recency_window = std::max(4.0, 0.02 * s);

    for (int j = 0; j < s; j++) {
        double c_k = amp * std::pow(rng.uniform(), tau);
        if (j == 0)
            c_k += 0.8 * amp * spec.locality; // attention sink
        const double age = static_cast<double>(s - 1 - j);
        c_k += 0.6 * amp * spec.locality *
            std::exp(-age / recency_window);
        for (int d = 0; d < h; d++) {
            head.k.at(j, d) = static_cast<float>(
                c_k * u[d] + rng.gaussian());
        }
    }

    for (int j = 0; j < s; j++)
        for (int d = 0; d < h; d++)
            head.v.at(j, d) = static_cast<float>(rng.gaussian());

    return head;
}

QuantizedHead
quantizeHead(const AttentionHead &head, int bits)
{
    return QuantizedHead(quantizeSymmetric(head.q, bits),
                         quantizeSymmetric(head.k, bits),
                         quantizeSymmetric(head.v, bits), bits,
                         head.scale);
}

LayerSpec
LayerSpec::withModel(const ModelConfig &m) const
{
    LayerSpec spec = *this;
    spec.heads = m.heads;
    spec.kv_heads = m.kv_heads;
    spec.head_dim = m.head_dim;
    spec.concentration = m.concentration;
    return spec;
}

void
LayerWorkload::stageKv(int pos, MatrixI8 &k, MatrixI8 &v) const
{
    assert(k.rows() == spec.kv_heads && v.rows() == spec.kv_heads);
    for (int kv = 0; kv < spec.kv_heads; kv++) {
        const QuantizedHead &g = groups[static_cast<std::size_t>(kv)];
        std::ranges::copy(g.k.values.row(pos), k.row(kv).begin());
        std::ranges::copy(g.v.values.row(pos), v.row(kv).begin());
    }
}

void
LayerWorkload::stageQueries(int pos, MatrixI8 &q) const
{
    assert(q.rows() == spec.heads);
    for (int h = 0; h < spec.heads; h++)
        std::ranges::copy(groupOf(h).q.values.row(queryRow(h, pos)),
                          q.row(h).begin());
}

LayerWorkload
generateLayerWorkload(const LayerSpec &spec)
{
    assert(spec.heads >= 1 && spec.kv_heads >= 1);
    assert(spec.heads % spec.kv_heads == 0);
    assert(spec.positions() >= 1);

    LayerWorkload layer;
    layer.spec = spec;
    layer.groups.reserve(static_cast<std::size_t>(spec.kv_heads));
    for (int kv = 0; kv < spec.kv_heads; kv++) {
        WorkloadSpec ws;
        ws.seq_len = spec.positions();
        ws.query_len = spec.groupSize() * spec.positions();
        ws.head_dim = spec.head_dim;
        ws.concentration = spec.concentration;
        ws.locality = spec.locality;
        // Derived from (layer seed, KV head index) only, so layers
        // regenerate identically and KV heads stay independent.
        uint64_t state = spec.seed +
            static_cast<uint64_t>(kv + 1) * 0x9e3779b97f4a7c15ULL;
        ws.seed = splitMix64(state);
        layer.groups.push_back(
            quantizeHead(generateHead(ws), spec.bits));
    }
    return layer;
}

namespace {

/** Mix an ordered tuple into one 64-bit seed (order-sensitive). */
uint64_t
mixSeed(std::initializer_list<uint64_t> words)
{
    uint64_t state = 0x5eedc0defacade5fULL;
    uint64_t h = 0;
    for (uint64_t w : words) {
        state = h ^ (w + 0x9e3779b97f4a7c15ULL);
        h = splitMix64(state);
    }
    return h;
}

/** Clamp-quantize one float to a signed @p qmax grid. */
std::int8_t
quantTo(double value, float scale, int qmax)
{
    const double q = std::nearbyint(value / static_cast<double>(scale));
    return static_cast<std::int8_t>(
        std::clamp(q, static_cast<double>(-qmax),
                   static_cast<double>(qmax)));
}

// Row-kind tags keeping the K / V / Q streams of one (layer, lane,
// pos) independent.
constexpr uint64_t kTagKey = 0x4b;
constexpr uint64_t kTagValue = 0x56;
constexpr uint64_t kTagQuery = 0x51;

} // namespace

ModelWorkload::ModelWorkload(const ModelSpec &spec) : spec_(spec)
{
    // Boundary contract, armed in Release too: a malformed spec here
    // (e.g. a positional ServingRequest initializer gone stale) would
    // otherwise silently generate a nonsense workload.
    PADE_CHECK(spec_.layers >= 1);
    PADE_CHECK(spec_.heads >= 1 && spec_.kv_heads >= 1);
    PADE_CHECK(spec_.heads % spec_.kv_heads == 0);
    PADE_CHECK(spec_.prefix_len >= 0 &&
               spec_.prefix_len <= spec_.prompt_len);

    // Static per-model scales: pure functions of geometry, shared by
    // every session of the model (see class comment — dynamic scales
    // would break prefix page identity).
    const int qmax = (1 << (spec_.bits - 1)) - 1;
    k_scale_ = 12.0f / static_cast<float>(qmax);
    q_scale_ = 12.0f / static_cast<float>(qmax);
    v_scale_ = 4.0f / 127.0f;
    logit_scale_ = q_scale_ * k_scale_ /
        std::sqrt(static_cast<float>(spec_.head_dim));

    // Same importance-tail shaping as generateHead(), minus the
    // length boost (a function of total sequence length would leak
    // the session's suffix into prefix rows).
    amp_ = 6.0 + 5.4 * spec_.concentration;
    tau_ = 2.0 + 1.6 * spec_.concentration;

    // Context directions are seeded by geometry alone so prefix and
    // suffix rows of every session align with the same direction —
    // queries stay predictive across the prefix/suffix boundary.
    dirs_.reserve(static_cast<std::size_t>(spec_.layers));
    for (int l = 0; l < spec_.layers; l++) {
        MatrixF u(spec_.kv_heads, spec_.head_dim);
        for (int kv = 0; kv < spec_.kv_heads; kv++) {
            Rng rng(mixSeed({0xd12ec710, static_cast<uint64_t>(l),
                             static_cast<uint64_t>(kv)}));
            double norm = 0.0;
            for (float &x : u.row(kv)) {
                x = static_cast<float>(rng.gaussian());
                norm += static_cast<double>(x) * x;
            }
            norm = std::sqrt(std::max(norm, 1e-12));
            for (float &x : u.row(kv))
                x = static_cast<float>(x / norm);
        }
        dirs_.push_back(std::move(u));
    }
}

uint64_t
ModelWorkload::streamOf(int pos) const
{
    return pos < spec_.prefix_len ? spec_.prefix_seed : spec_.seed;
}

void
ModelWorkload::keyRow(int layer, int kv, int pos,
                      std::span<std::int8_t> out) const
{
    Rng rng(mixSeed({streamOf(pos), kTagKey,
                     static_cast<uint64_t>(layer),
                     static_cast<uint64_t>(kv),
                     static_cast<uint64_t>(pos)}));
    double c = amp_ * std::pow(rng.uniform(), tau_);
    if (pos == 0)
        c += 0.8 * amp_ * spec_.locality; // attention sink
    const int qmax = (1 << (spec_.bits - 1)) - 1;
    const auto u = dirs_[static_cast<std::size_t>(layer)].row(kv);
    for (int d = 0; d < spec_.head_dim; d++)
        out[static_cast<std::size_t>(d)] = quantTo(
            c * u[static_cast<std::size_t>(d)] + rng.gaussian(),
            k_scale_, qmax);
}

void
ModelWorkload::valueRow(int layer, int kv, int pos,
                        std::span<std::int8_t> out) const
{
    Rng rng(mixSeed({streamOf(pos), kTagValue,
                     static_cast<uint64_t>(layer),
                     static_cast<uint64_t>(kv),
                     static_cast<uint64_t>(pos)}));
    for (int d = 0; d < spec_.head_dim; d++)
        out[static_cast<std::size_t>(d)] =
            quantTo(rng.gaussian(), v_scale_, 127);
}

void
ModelWorkload::queryRow(int layer, int head, int pos,
                        std::span<std::int8_t> out) const
{
    Rng rng(mixSeed({streamOf(pos), kTagQuery,
                     static_cast<uint64_t>(layer),
                     static_cast<uint64_t>(head),
                     static_cast<uint64_t>(pos)}));
    const double align = std::sqrt(static_cast<double>(spec_.head_dim));
    const double c = rng.gaussian(align, 0.15 * align);
    const int qmax = (1 << (spec_.bits - 1)) - 1;
    const auto u = dirs_[static_cast<std::size_t>(layer)].row(
        head / spec_.groupSize());
    for (int d = 0; d < spec_.head_dim; d++)
        out[static_cast<std::size_t>(d)] = quantTo(
            c * u[static_cast<std::size_t>(d)] + rng.gaussian(),
            q_scale_, qmax);
}

void
ModelWorkload::stageKv(int layer, int pos, MatrixI8 &k,
                       MatrixI8 &v) const
{
    assert(k.rows() == spec_.kv_heads && v.rows() == spec_.kv_heads);
    for (int kv = 0; kv < spec_.kv_heads; kv++) {
        keyRow(layer, kv, pos, k.row(kv));
        valueRow(layer, kv, pos, v.row(kv));
    }
}

void
ModelWorkload::stageQueries(int layer, int pos, MatrixI8 &q) const
{
    assert(q.rows() == spec_.heads);
    for (int h = 0; h < spec_.heads; h++)
        queryRow(layer, h, pos, q.row(h));
}

std::vector<uint64_t>
ModelWorkload::prefixPageChain(int page_tokens) const
{
    PADE_CHECK_GE(page_tokens, 1);
    const int pages = spec_.prefix_len / page_tokens;
    std::vector<uint64_t> chain;
    chain.reserve(static_cast<std::size_t>(pages));

    // Root: every input a prefix K/V row is a pure function of (see
    // keyRow/valueRow and the constructor) — the model geometry, the
    // page size that cuts rows into pages, the importance and sink
    // knobs, and the prefix stream. Equal roots therefore mean equal
    // rows at every prefix position, so one page index per depth
    // completes the key without generating a row.
    uint64_t h = mixSeed({static_cast<uint64_t>(spec_.layers),
                          static_cast<uint64_t>(spec_.kv_heads),
                          static_cast<uint64_t>(spec_.head_dim),
                          static_cast<uint64_t>(spec_.bits),
                          static_cast<uint64_t>(page_tokens),
                          std::bit_cast<uint64_t>(spec_.concentration),
                          std::bit_cast<uint64_t>(spec_.locality),
                          spec_.prefix_seed});
    for (int p = 0; p < pages; p++) {
        h = mixSeed({h, static_cast<uint64_t>(p)});
        chain.push_back(h);
    }
    return chain;
}

std::vector<ServingRequest>
poissonArrivalTrace(const TraceSpec &spec)
{
    assert(spec.num_requests >= 0 && spec.rate_per_s > 0.0);
    assert(spec.prompt_min >= 1 && spec.prompt_max >= spec.prompt_min);
    assert(spec.decode_min >= 1 && spec.decode_max >= spec.decode_min);
    assert(spec.priority_levels >= 1);
    assert(spec.prefix_groups >= 0);
    assert(spec.prefix_groups == 0 || spec.prefix_tokens >= 1);

    Rng rng(spec.seed);
    std::vector<ServingRequest> trace;
    trace.reserve(static_cast<std::size_t>(spec.num_requests));

    const double log_lo = std::log(static_cast<double>(spec.prompt_min));
    const double log_hi = std::log(static_cast<double>(spec.prompt_max));
    double now_ms = 0.0;
    for (int i = 0; i < spec.num_requests; i++) {
        // Poisson process: exponential gaps at the given rate
        // (rate_per_s requests/s = rate_per_s/1000 per ms).
        now_ms += rng.exponential(spec.rate_per_s / 1000.0);

        ServingRequest req;
        req.arrival_ms = now_ms;
        req.prompt_len = std::min(
            spec.prompt_max,
            static_cast<int>(std::exp(rng.uniform(log_lo, log_hi))));
        req.prompt_len = std::max(spec.prompt_min, req.prompt_len);
        req.decode_steps = static_cast<int>(
            rng.range(spec.decode_min, spec.decode_max));
        // Drawn only for multi-class traces: single-class specs must
        // keep the historical RNG stream (and thus regenerate
        // byte-identical traces).
        if (spec.priority_levels > 1)
            req.priority = static_cast<int>(
                rng.range(0, spec.priority_levels - 1));
        // Shared prefix: prepend prefix_tokens tokens of one of
        // prefix_groups shared identities to the private suffix drawn
        // above. Guarded so prefix-free specs draw nothing and keep
        // the historical RNG stream.
        if (spec.prefix_groups > 0) {
            const auto group = static_cast<uint64_t>(
                rng.range(0, spec.prefix_groups - 1));
            req.prefix_len = spec.prefix_tokens;
            req.prompt_len += spec.prefix_tokens;
            // Group identity from (trace seed, group) only, so two
            // requests of one group — or of two traces with equal
            // seeds — share the exact prefix stream.
            uint64_t gstate = spec.seed ^
                (0x70726566697865ULL + group * 0x9e3779b97f4a7c15ULL);
            req.prefix_seed = splitMix64(gstate);
        }
        // Per-request workload seed: derived from (trace seed, index)
        // only, so traces re-generate identically.
        uint64_t state = spec.seed +
            static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
        req.seed = splitMix64(state);
        trace.push_back(req);
    }
    return trace;
}

double
oracleSparsity(const AttentionHead &head, double mass_epsilon)
{
    const MatrixF logits = attentionLogits(head.q, head.k, head.scale);
    uint64_t prunable = 0;
    for (int i = 0; i < logits.rows(); i++) {
        float mx = logits.at(i, 0);
        for (float v : logits.row(i))
            mx = std::max(mx, v);
        const float cut = mx + static_cast<float>(
            std::log(mass_epsilon));
        for (float v : logits.row(i))
            if (v < cut)
                prunable++;
    }
    return logits.size() ?
        static_cast<double>(prunable) / logits.size() : 0.0;
}

} // namespace pade
