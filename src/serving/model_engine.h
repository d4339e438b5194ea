/**
 * @file
 * Whole-model serving engine: `layers` LayerEngines composed into one
 * session, with the layer loop software-pipelined across a ThreadPool.
 *
 * A transformer forward pass visits every layer per token. Run
 * serially, layer l+1 idles while layer l scores — on a pool that
 * leaves most workers starved whenever kv_heads < threads. This
 * engine instead runs the layer loop as a systolic pipeline over
 * *tokens*: each advance() round processes up to `layers` in-flight
 * tokens concurrently, token t at layer l while token t+1 is at layer
 * l-1 (layer l's decode for one token overlaps layer l+1's append for
 * the previous one). A token enters the pipeline per round and
 * retires `layers` rounds later.
 *
 * Why the pipelined schedule is bit-identical to the serial
 * layer-by-layer reference, for any thread count:
 *
 *  - In-flight tokens always sit at *distinct* layers (ages are
 *    strictly decreasing from the oldest flight to the newest, one
 *    round apart), so the round's concurrent units touch disjoint
 *    LayerEngines, disjoint staging buffers, and disjoint output
 *    rows — there is nothing to race on, which the TSan CI leg and
 *    tests/test_concurrency_stress.cc watch at runtime.
 *  - Each layer still sees tokens in exact feed order (token t's unit
 *    at layer l runs in round t + l, t's successor in round t+1+l),
 *    so every KvCache append sequence — and therefore every plane
 *    table, guard threshold, and PruneStats counter — is the sequence
 *    the serial schedule produces.
 *  - Within a unit, the KV-head fan-out reduces via
 *    parallelReduceOrdered (ascending KV-head order on the caller),
 *    the established barrier discipline of LayerEngine.
 *  - Token results are emitted on the advance() caller *after* the
 *    round barrier, oldest flight first — completed tokens surface in
 *    feed order in both schedules, so the sink sees one canonical
 *    emission sequence.
 *
 * Workload note: K/V/Q rows come from the caller's Stager (a pure
 * function of (layer, position) in the synthetic workloads), not from
 * the previous layer's activations — attention state (KV caches,
 * pruning decisions) is what the library models, not the MLP data
 * path. The pipeline's correctness argument only relies on staging
 * being callable for distinct layers concurrently.
 *
 * Prefix sharing: adoptPrefixPages() splices published, immutable KV
 * pages (one per layer x KV head) at the append frontier, so a
 * session whose prompt starts with an already-served prefix skips
 * packing AND scoring those pages; sharePrefixPages() exports this
 * session's pages for publication (see serving/prefix_index.h).
 * Shared pages carry their key planes and cached WorkPrefix rows, so
 * every adopter scores them and books their work from the same rows.
 *
 * Rounds run as waves (WaveRunner, below): one wave opens a round on
 * every engine of a span, runs all of their units in one parallelFor,
 * then completes the rounds in span order. advance()/drain() are a
 * one-engine wave; ContinuousBatcher passes every resident session's
 * engine, so one scheduler runs every pipeline round in the library.
 *
 * Thread safety: none at the class surface — one caller thread
 * advances an engine. Within a wave, units of distinct engines touch
 * distinct sessions and units of one engine touch distinct layers,
 * so the wave's units share no mutable state.
 */

#ifndef PADE_SERVING_MODEL_ENGINE_H
#define PADE_SERVING_MODEL_ENGINE_H

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "serving/layer_engine.h"
#include "tensor/matrix.h"

namespace pade {

class ThreadPool;

/** Geometry and scheduling configuration of one model engine. */
struct ModelEngineConfig
{
    int layers = 1;          //!< transformer layers
    LayerEngineConfig layer; //!< per-layer geometry/algorithm config
    /** false = serial layer-by-layer reference schedule (the oracle
     *  the differential fuzz harness compares against). */
    bool pipeline = true;
};

/** One retired token, emitted to the sink in feed order. */
struct TokenResult
{
    int pos = 0;        //!< absolute position of the token
    int prompt_len = 0; //!< prompt length it was fed with
    /** Per-layer attention outputs (layers entries, heads x
     *  head_dim). Valid only during the sink call. */
    std::span<const MatrixF> outs;
    /** Per-layer scan accounting, same indexing. */
    std::span<const LayerStep> steps;
};

class ModelEngine;

/**
 * The one pipeline-round scheduler. wave() opens a round on every
 * engine of the span with pending work, runs the union of their
 * units through a single parallelFor on @p pool (inline when null or
 * when the pool cannot use more than one hardware lane), then
 * completes the rounds on the calling thread in span order. Every
 * engine therefore sees exactly the round sequence it would see
 * alone, and units of one wave touch disjoint state, so outputs do
 * not depend on the span, the pool, or the thread count.
 *
 * Owns the `model.round` span and the `model.rounds` and
 * `model.units` counters: one wave = one round. The
 * scratch vector is reused across waves, so a runner allocates only
 * while its widest wave grows.
 */
class WaveRunner
{
  public:
    /** Run one wave; returns its unit count (0 = every engine has
     *  drained and no round was opened). */
    int wave(std::span<ModelEngine *const> engines, ThreadPool *pool);
    /** wave() until every engine of the span has drained. */
    void drain(std::span<ModelEngine *const> engines, ThreadPool *pool);

  private:
    struct UnitRef
    {
        ModelEngine *engine;
        int unit;
    };
    std::vector<UnitRef> units_;
};

/**
 * `layers` LayerEngines pipelined over tokens. See file comment for
 * the schedule and its determinism argument.
 */
class ModelEngine
{
  public:
    /**
     * Row source: fill k/v (kv_heads x head_dim) and q (heads x
     * head_dim) for (layer, pos). Must be safe to call for distinct
     * layers concurrently.
     */
    using Stager = std::function<void(int layer, int pos, MatrixI8 &k,
                                      MatrixI8 &v, MatrixI8 &q)>;
    /** Retired-token consumer; runs on the advance() caller. */
    using Sink = std::function<void(const TokenResult &)>;

    /**
     * @param v_scales     per-stream V dequant scales, layers *
     *                     kv_heads entries row-major by layer.
     * @param logit_scales per-stream int-score -> logit factors, same
     *                     indexing.
     */
    ModelEngine(const ModelEngineConfig &cfg,
                std::span<const float> v_scales,
                std::span<const float> logit_scales, Stager stager,
                Sink sink);

    const ModelEngineConfig &config() const { return cfg_; }
    int layerCount() const { return cfg_.layers; }

    LayerEngine &
    layer(int l)
    {
        return layers_[static_cast<std::size_t>(l)];
    }
    const LayerEngine &
    layer(int l) const
    {
        return layers_[static_cast<std::size_t>(l)];
    }

    /**
     * Enqueue position @p pos (prompt position when pos < prompt_len,
     * decode step otherwise). Positions must be fed contiguously from
     * the adopted-prefix frontier (PADE_CHECKed).
     */
    void feed(int pos, int prompt_len);

    /**
     * Run one pipeline round as a one-engine wave: admit at most one
     * queued token into flight, process every in-flight token at its
     * layer (fanned across @p pool when given), then retire tokens
     * whose last layer completed. Serial mode (pipeline = false) runs
     * one whole token through all layers instead. Returns false when
     * nothing was left to do.
     */
    bool advance(ThreadPool *pool = nullptr);

    /** advance() until queue and pipeline are empty. */
    void drain(ThreadPool *pool = nullptr);

    /** Tokens fed (or adopted) so far == the next feedable position. */
    int fed() const { return fed_; }
    /** Tokens retired through the sink. */
    int completed() const { return completed_; }
    /** Tokens queued or in flight. */
    int
    pending() const
    {
        return static_cast<int>(queue_.size() + flight_.size());
    }

    /**
     * Adopt one page depth of published prefix: layers * kv_heads
     * full pages row-major by layer (the layout sharePrefixPages and
     * PrefixMatch use), spliced into every layer's caches. Legal only
     * before any token is fed past the frontier and only at page
     * boundaries; advances fed() by page_tokens.
     */
    void adoptPrefixPages(
        std::span<const std::shared_ptr<const KvPage>> pages);

    /**
     * Export page @p page of every (layer, kv_head) cache for
     * publication, appending layers * kv_heads refs row-major by
     * layer to @p out. Pages must be full (PADE_CHECKed in KvCache).
     */
    void sharePrefixPages(
        int page,
        std::vector<std::shared_ptr<const KvPage>> &out) const;

    /** Pruning statistics folded over layers in ascending order. */
    PruneStats stats() const;

    /** Resident KV bytes over all layers (shared pages included). */
    std::size_t bytesUsed() const;

  private:
    friend class WaveRunner;

    struct Job
    {
        int pos = 0;
        int prompt_len = 0;
    };
    /** One in-flight token: its job, current layer (age), and
     *  per-layer results. Buffers recycle through spares_. */
    struct Flight
    {
        Job job;
        int age = 0;
        std::vector<MatrixF> outs;
        std::vector<LayerStep> steps;
    };

    /**
     * WaveRunner's round protocol. collectUnits() opens a round —
     * admitting at most one queued token into flight — and returns
     * its unit count (0 = drained, no round opened; serial mode
     * yields one whole-token unit). runCollectedUnit() may run units
     * 0..n-1 in any order or concurrently: in-flight ages are
     * pairwise distinct, so they touch disjoint layers and buffers.
     * completeRound() ages the pipeline and retires completed tokens
     * on the calling thread, in feed order.
     */
    int collectUnits();
    /** @p pool fans the unit's internal KV-head reduction only. */
    void runCollectedUnit(int u, ThreadPool *pool);
    void completeRound();

    Flight takeFlight(const Job &job);
    /** Process flight @p f at layer @p l: stage, append, score. */
    void runUnit(Flight &f, int l, ThreadPool *pool);
    void retire(Flight &&f);

    ModelEngineConfig cfg_;
    std::vector<float> v_scales_;
    std::vector<float> logit_scales_;
    Stager stager_;
    Sink sink_;

    std::vector<LayerEngine> layers_;
    // Per-layer staging buffers: safe because each round assigns at
    // most one flight to any layer.
    std::vector<MatrixI8> stage_k_;
    std::vector<MatrixI8> stage_v_;
    std::vector<MatrixI8> stage_q_;

    std::deque<Job> queue_;
    /** Ages strictly decrease front to back (front = oldest). */
    std::deque<Flight> flight_;
    std::vector<Flight> spares_;
    int fed_ = 0;
    int completed_ = 0;
    /** True between collectUnits() and completeRound(). */
    bool round_open_ = false;
    /** Scratch of advance()/drain()'s one-engine waves. */
    WaveRunner waves_;
};

} // namespace pade

#endif // PADE_SERVING_MODEL_ENGINE_H
