/**
 * @file
 * Synthetic attention workload generator.
 *
 * The paper evaluates on pretrained LLM/ViT checkpoints we cannot run
 * offline, but every PADE mechanism operates on the *attention score
 * distribution*, not on token semantics. This generator synthesizes
 * Q/K/V with the structure those models are documented to exhibit:
 *
 *  - a shared context direction so scores have a low-rank component,
 *  - heavy-tailed per-key importance ("vital tokens"; concentration
 *    controls the tail weight => exploitable sparsity),
 *  - an attention-sink boost on the first token and a recency boost on
 *    the latest tokens (StreamingLLM/locality observations the paper's
 *    head-tail interleaving exploits),
 *  - Gaussian residual noise giving per-query variation.
 *
 * Knobs map one-to-one onto the paper's benchmark axes: sequence length,
 * model concentration, dataset locality, QAT-flattened distributions.
 */

#ifndef PADE_WORKLOAD_GENERATOR_H
#define PADE_WORKLOAD_GENERATOR_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "quant/bitplane.h"
#include "quant/quantizer.h"
#include "tensor/matrix.h"
#include "workload/model_config.h"

namespace pade {

/** Full specification of one synthetic attention head workload. */
struct WorkloadSpec
{
    int seq_len = 2048;     //!< number of keys/values
    int query_len = 8;      //!< number of query rows (1 for decode)
    int head_dim = 128;
    double concentration = 1.0; //!< heavy-tail strength (model knob)
    double locality = 0.5;      //!< sink + recency strength (data knob)
    bool qat_uniform = false;   //!< QAT-like flattened distribution
    uint64_t seed = 1;

    /** Convenience: build from model + dataset presets. */
    static WorkloadSpec fromPresets(const ModelConfig &m,
                                    const DatasetConfig &d,
                                    int query_len = 8, uint64_t seed = 1);
};

/** Float-precision operands of one attention head. */
struct AttentionHead
{
    MatrixF q; //!< (query_len x head_dim)
    MatrixF k; //!< (seq_len x head_dim)
    MatrixF v; //!< (seq_len x head_dim)
    float scale = 1.0f; //!< logit scale 1/sqrt(head_dim)
};

/** INT8-quantized operands plus key bit planes, ready for PADE. */
struct QuantizedHead
{
    Quantized q;
    Quantized k;
    Quantized v;
    BitPlaneSet k_planes;
    float logit_scale = 1.0f; //!< sQ*sK/sqrt(H): int score -> logit

    QuantizedHead(Quantized qq, Quantized kq, Quantized vq,
                  int bits, float scale)
        : q(std::move(qq)), k(std::move(kq)), v(std::move(vq)),
          k_planes(k.values, bits),
          logit_scale(q.params.scale * k.params.scale * scale)
    {}
};

/** Generate one head's float operands per the spec. */
AttentionHead generateHead(const WorkloadSpec &spec);

/** Quantize a float head to INT8 (or INT4) with bit planes. */
QuantizedHead quantizeHead(const AttentionHead &head, int bits = 8);

/**
 * Specification of one transformer layer's attention workload with
 * GQA structure: `heads` query heads grouped onto `kv_heads` shared
 * K/V streams (kv_heads must divide heads). Every query head carries
 * one query row per *position* — prompt positions feed the scored
 * chunked-prefill path, decode positions feed autoregressive decode —
 * so a layer workload drives both serving stages.
 */
struct LayerSpec
{
    int heads = 1;
    int kv_heads = 1;
    int head_dim = 64;
    int prompt_len = 0;   //!< prompt positions (prefilled + scored)
    int decode_steps = 0; //!< decode positions
    int bits = 8;         //!< quantization bit-width
    double concentration = 1.0;
    double locality = 0.5;
    uint64_t seed = 1;

    int groupSize() const { return heads / kv_heads; }
    int positions() const { return prompt_len + decode_steps; }

    /** Adopt a model preset's GQA geometry (heads/kv_heads/head_dim,
     *  concentration), keeping the serving knobs of *this. */
    LayerSpec withModel(const ModelConfig &m) const;
};

/**
 * One layer's quantized operands: a QuantizedHead per KV head whose
 * K/V rows are the shared stream and whose query matrix stacks the
 * group's query heads head-major — query head h (global), position
 * pos lives at row `queryRow(h, pos)` of `groups[h / groupSize()]`.
 * Quantization is per KV-head group (one scale for the group's
 * stacked queries), so every query head of a group shares its group's
 * logit_scale — the property that lets a grouped scan score against
 * one plane set with one integer->logit factor.
 */
struct LayerWorkload
{
    LayerSpec spec;
    std::vector<QuantizedHead> groups; //!< one per KV head

    const QuantizedHead &
    groupOf(int head) const
    {
        return groups[static_cast<std::size_t>(head /
                                               spec.groupSize())];
    }
    /** Row of query head @p head, position @p pos inside its group's
     *  q matrix (head-major: a head's positions are contiguous). */
    int
    queryRow(int head, int pos) const
    {
        return (head % spec.groupSize()) * spec.positions() + pos;
    }

    /**
     * Stage position @p pos into the head-major matrices LayerEngine
     * consumes: row kv of @p k / @p v is KV head kv's key/value row
     * (kv_heads x head_dim). The single owner of the row-layout
     * convention — batcher, examples, benches, and tests all stage
     * through here.
     */
    void stageKv(int pos, MatrixI8 &k, MatrixI8 &v) const;

    /** Stage every query head's row for position @p pos
     *  (heads x head_dim; row h = query head h). */
    void stageQueries(int pos, MatrixI8 &q) const;
};

/**
 * Generate a layer workload per @p spec: KV head kv is a synthetic
 * attention head (generateHead) with seq_len = positions() and
 * groupSize() * positions() query rows, seeded from (spec.seed, kv)
 * only — fully deterministic, KV heads independent.
 */
LayerWorkload generateLayerWorkload(const LayerSpec &spec);

/**
 * Measured sparsity oracle: the fraction of (query, key) pairs whose
 * softmax probability is below @p mass_epsilon of the row max. Gives a
 * workload-intrinsic upper bound on exploitable sparsity.
 */
double oracleSparsity(const AttentionHead &head, double mass_epsilon);

/**
 * Specification of one whole-model serving workload: `layers`
 * transformer layers, each with LayerSpec-style GQA geometry, plus an
 * optional *shared prompt prefix*. Positions [0, prefix_len) draw
 * every K/V/Q row from `prefix_seed`; positions beyond draw from
 * `seed` — so two sessions with equal (geometry, bits,
 * concentration, locality, prefix_seed) produce byte-identical rows
 * at every position both prefixes cover, no matter what their
 * suffixes or decode tails are. That per-position stream split is
 * what makes cross-session prefix caching *bit-exact*: a KV page of
 * prefix tokens built by one session is the page every other session
 * would have built — and what lets ModelWorkload::prefixPageChain
 * key the page by those inputs instead of by its bytes.
 */
struct ModelSpec
{
    int layers = 1;
    int heads = 1;
    int kv_heads = 1; //!< must divide heads
    int head_dim = 64;
    int prompt_len = 0;   //!< prompt positions (prefilled + scored)
    int decode_steps = 0; //!< decode positions
    int bits = 8;         //!< K/Q quantization bit-width
    /** Leading prompt tokens drawn from the prefix stream; must be
     *  <= prompt_len. 0 = no shared prefix. */
    int prefix_len = 0;
    uint64_t prefix_seed = 0; //!< identity of the shared prefix
    double concentration = 1.0;
    double locality = 0.5; //!< attention-sink strength (token 0)
    uint64_t seed = 1;

    int groupSize() const { return heads / kv_heads; }
    int positions() const { return prompt_len + decode_steps; }
};

/**
 * Deterministic row source for a ModelSpec. Unlike LayerWorkload this
 * holds no materialized matrices: every row is a pure function of
 * (stream seed, layer, head/KV index, position) re-derived on demand,
 * which is precisely the property prefix sharing needs — a position's
 * rows cannot depend on the session's total length or suffix content.
 *
 * Quantization is *static* (per-model, not per-request): the int8
 * scales are fixed functions of the spec geometry, mirroring real
 * deployments where weights/activations ship with calibrated scales.
 * Dynamic per-request scales would make two sessions' encodings of
 * the same prefix float content differ in the low bits, destroying
 * page identity; static scales make the int8 prefix rows — and hence
 * whole KV pages — byte-equal across sessions.
 *
 * Score structure: each (layer, KV head) has a geometry-seeded unit
 * context direction shared by ALL sessions; keys carry heavy-tailed
 * importance along it (amp * u^tau, concentration-controlled) plus an
 * attention-sink boost at position 0, queries align with it at
 * ~sqrt(head_dim) — the same vital-token/logit-range regime
 * generateHead() synthesizes, minus the suffix-length-dependent
 * recency boost (which would break prefix purity).
 */
class ModelWorkload
{
  public:
    explicit ModelWorkload(const ModelSpec &spec);

    const ModelSpec &spec() const { return spec_; }

    /** Static V dequantization scale (same for every stream). */
    float vScale() const { return v_scale_; }
    /** Static int-score -> logit factor (same for every stream). */
    float logitScale() const { return logit_scale_; }

    /**
     * Stage position @p pos of layer @p layer into the head-major
     * matrices LayerEngine consumes: row kv of @p k / @p v is KV head
     * kv's row (kv_heads x head_dim).
     */
    void stageKv(int layer, int pos, MatrixI8 &k, MatrixI8 &v) const;

    /** Stage every query head's row for (@p layer, @p pos)
     *  (heads x head_dim; row h = query head h). */
    void stageQueries(int layer, int pos, MatrixI8 &q) const;

    /**
     * Prefix identity chain for page size @p page_tokens — the
     * PrefixIndex key. The root hashes every input prefix K/V rows
     * are a pure function of: layers, kv_heads, head_dim, bits,
     * page_tokens, the bit patterns of concentration and locality,
     * and prefix_seed; entry d mixes entry d-1 (the root at d = 0)
     * with the page index d. Equal entries at depth d thus mean equal
     * K/V bytes in pages 0..d, at O(pages) cost and without
     * generating a row (tests/test_prefix_index.cc,
     * PrefixChain.IdentityAgreesWithContent, checks the chain against
     * a hash of the bytes themselves). Length prefix_len /
     * page_tokens; a non-aligned prefix tail is simply not shareable.
     */
    std::vector<uint64_t> prefixPageChain(int page_tokens) const;

  private:
    /** Seed stream of position @p pos (prefix vs session). */
    uint64_t streamOf(int pos) const;
    void keyRow(int layer, int kv, int pos,
                std::span<std::int8_t> out) const;
    void valueRow(int layer, int kv, int pos,
                  std::span<std::int8_t> out) const;
    void queryRow(int layer, int head, int pos,
                  std::span<std::int8_t> out) const;

    ModelSpec spec_;
    std::vector<MatrixF> dirs_; //!< per layer: kv_heads x head_dim
    double amp_ = 0.0;
    double tau_ = 0.0;
    float k_scale_ = 0.0f;
    float q_scale_ = 0.0f;
    float v_scale_ = 0.0f;
    float logit_scale_ = 0.0f;
};

/**
 * Specification of a synthetic serving trace: request arrivals follow
 * a Poisson process (exponential inter-arrival gaps at @p rate_per_s),
 * prompt lengths are log-uniform over [prompt_min, prompt_max] — the
 * heavy-tailed mix production serving traces exhibit — and decode
 * lengths are uniform over [decode_min, decode_max]. Fully determined
 * by @p seed; the continuous batcher and examples/batch_serving
 * consume the result.
 */
struct TraceSpec
{
    int num_requests = 32;
    double rate_per_s = 200.0; //!< mean arrival rate
    int prompt_min = 32;       //!< log-uniform prompt length bounds
    int prompt_max = 256;
    int decode_min = 8;        //!< uniform decode-step bounds
    int decode_max = 32;
    /**
     * Scheduling priority classes: requests draw a uniform priority
     * in [0, priority_levels) (higher = more urgent). 1 leaves every
     * request at priority 0 AND draws nothing from the RNG, so
     * existing single-class traces regenerate byte-identically.
     */
    int priority_levels = 1;
    /**
     * Shared-prefix mix: when > 0, every request draws one of
     * prefix_groups prefix identities and prepends prefix_tokens
     * shared tokens to its (still log-uniform) private suffix —
     * modelling fleets where many conversations share a system
     * prompt. 0 draws nothing from the RNG, so prefix-free traces
     * regenerate byte-identically.
     */
    int prefix_groups = 0;
    int prefix_tokens = 0; //!< shared tokens per prefixed request
    uint64_t seed = 1;
};

/** One serving request of a trace. */
struct ServingRequest
{
    double arrival_ms = 0.0; //!< arrival offset from trace start
    int prompt_len = 0;      //!< prompt tokens to prefill (incl. prefix)
    int decode_steps = 0;    //!< tokens to generate
    int priority = 0;        //!< scheduling class (higher first)
    int prefix_len = 0;      //!< leading shared-prefix tokens
    uint64_t prefix_seed = 0; //!< shared-prefix identity stream
    uint64_t seed = 0;       //!< per-request workload seed
};

/**
 * Generate a seeded Poisson arrival trace per @p spec. Arrival times
 * are non-decreasing; every field is a pure function of spec.seed.
 */
std::vector<ServingRequest> poissonArrivalTrace(const TraceSpec &spec);

} // namespace pade

#endif // PADE_WORKLOAD_GENERATOR_H
