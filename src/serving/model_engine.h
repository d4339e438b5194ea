/**
 * @file
 * Whole-model serving engine: `layers` LayerEngines composed into one
 * session, each layer of a flight run as one wave of units on a
 * ThreadPool.
 *
 * Schedule. Fed positions queue until the engine has no flight; then
 * the whole run of queued prompt positions (a chunk), or one decode
 * token, becomes the flight and crosses the layers in order, one
 * layer per wave or two:
 *
 *  - a flight of at most kBlockPositions positions (every decode
 *    token, and short chunks) crosses a layer in ONE unit: stage its
 *    K, V and Q rows, append K/V to the layer's caches, then score
 *    its positions in order (decode tokens also apply retention
 *    eviction);
 *  - a longer chunk crosses a layer in TWO waves: one unit stages and
 *    appends every position's rows, then one unit per block of
 *    kBlockPositions consecutive positions scores that block. Once a
 *    chunk's K/V rows are in the caches, the causal scans of its
 *    positions are independent: each masks cached tokens past its own
 *    position and anchors its retention window there, so it sees
 *    exactly what the serial schedule shows it.
 *
 * A chunk of n > kBlockPositions positions thus takes 2 * layers
 * waves and a shorter flight `layers` waves, at any thread count
 * (kBlockPositions is a constant, never derived from the pool), and
 * tokens retire through the sink in feed order once their last
 * layer ran.
 *
 * Why blocks of one stream cannot race: a block unit reads the
 * layer's caches, the flight's staged Q rows and the layer's configs,
 * and writes only its own positions' output rows and LayerSteps, its
 * own slice of PruneStats, and a DecodeScratch owned by the thread
 * running it (LayerEngine::prefillPosition's const form). Nothing
 * mutates those caches while the blocks run: the append unit ran in
 * the previous wave, behind the wave barrier, and no other unit of
 * the engine shares the wave. The stats go back to the layer's
 * engines on the calling thread in completeRound(), in block order,
 * and are integer sums. Units of distinct engines touch distinct
 * sessions. The TSan CI leg runs tests/test_concurrency_stress.cc and
 * tests/test_model_engine_fuzz.cc to watch this at runtime.
 *
 * Why the schedule is bit-identical to the serial layer-by-layer
 * reference (pipeline = false: one token through every layer per
 * round), for any thread count:
 *
 *  - every layer's caches see the same append sequence (feed order),
 *    so every plane table and WorkPrefix row is the same;
 *  - every position's scan sees the same keys (the causal skip, the
 *    retention anchor at qpos + 1, and eviction only after decode
 *    tokens, which never share a flight);
 *  - within a unit, the KV-head fan-out reduces via
 *    parallelReduceOrdered (ascending KV-head order on the caller);
 *  - PruneStats are integer sums, so folding a chunk's block stats
 *    after its blocks ran changes no total.
 *
 * Workload note: K/V/Q rows come from the caller's Stager (a pure
 * function of (layer, position) in the synthetic workloads), not from
 * the previous layer's activations — attention state (KV caches,
 * pruning decisions) is what the library models, not the MLP data
 * path.
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
 * engine, so one scheduler runs every round in the library.
 *
 * Thread safety: none at the class surface — one caller thread
 * advances an engine.
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
    /** false = serial layer-by-layer reference schedule, one token
     *  through every layer per round (the oracle the differential
     *  fuzz harness compares against). */
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
 * The one round scheduler. wave() opens a round on every engine of
 * the span with pending work, runs the union of their units through
 * a single parallelFor on @p pool (inline when null or when the pool
 * cannot use more than one hardware lane), then completes the rounds
 * on the calling thread in span order. Every engine therefore sees
 * exactly the round sequence it would see alone, and units of one
 * wave share no mutable state (see the file comment), so outputs do
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
 * `layers` LayerEngines run one flight at a time, a layer per wave or
 * two. See the file comment for the schedule and its determinism
 * argument.
 */
class ModelEngine
{
  public:
    /** Positions a block unit scores; a flight of at most this many
     *  crosses each layer in one unit. */
    static constexpr int kBlockPositions = 16;

    /**
     * Row source: fill k/v (kv_heads x head_dim) and q (heads x
     * head_dim) for (layer, pos). Engines of distinct sessions may
     * call their stagers concurrently.
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
     * Run one round as a one-engine wave: start a flight from the
     * queue when none is in the air, run its units at its current
     * layer (fanned across @p pool when given), then move it on and
     * retire its tokens once their last layer ran. Serial mode
     * (pipeline = false) runs one whole token through all layers
     * instead. Returns false when nothing was left to do.
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
        return static_cast<int>(queue_.size()) + flight_.count;
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
    /** The positions [first, first + count) crossing the layers
     *  together (count 0: none). */
    struct Flight
    {
        int first = 0;
        int count = 0;
        int prompt_len = 0;
        int layer = 0; //!< the layer its next unit(s) run
        /** Its rows are appended at `layer`; its blocks run next. */
        bool appended = false;

        bool wide() const { return count > kBlockPositions; }
        int
        blocks() const
        {
            return (count + kBlockPositions - 1) / kBlockPositions;
        }
    };

    /**
     * WaveRunner's round protocol. collectUnits() opens a round —
     * starting a flight from the queue if none is in the air — and
     * returns its unit count (0 = drained, no round opened).
     * runCollectedUnit() may run units 0..n-1 in any order or
     * concurrently. completeRound() moves the flight on and retires
     * its tokens after their last layer, on the calling thread, in
     * feed order.
     */
    int collectUnits();
    /** @p pool fans the unit's internal KV-head reduction only. */
    void runCollectedUnit(int u, ThreadPool *pool);
    void completeRound();

    void startFlight();
    /** Stage every flight position's rows at layer @p l and append
     *  their K/V (a wide flight's first wave at the layer). */
    void appendLayer(int l);
    /** The flight crosses layer @p l in one unit: appendLayer(), then
     *  score each position in order. */
    void runLayer(int l, ThreadPool *pool);
    /** A wide flight's block @p b at layer @p l, scored on this
     *  thread's scratch. */
    void scanBlock(int l, int b);
    void retireFlight();

    /** Layer @p l's logit scales, one per KV head. */
    std::span<const float> logitScales(int l) const;
    /** Flight position @p i's output / accounting slot at layer l. */
    std::size_t
    slot(int i, int l) const
    {
        return static_cast<std::size_t>(i) *
            static_cast<std::size_t>(cfg_.layers) +
            static_cast<std::size_t>(l);
    }

    ModelEngineConfig cfg_;
    std::vector<float> v_scales_;
    std::vector<float> logit_scales_;
    Stager stager_;
    Sink sink_;

    std::vector<LayerEngine> layers_;

    std::deque<Job> queue_;
    Flight flight_;
    // Per-position buffers of the flight: staged rows at the current
    // layer, and outputs and accounting at slot(i, l).
    std::vector<MatrixI8> stage_k_;
    std::vector<MatrixI8> stage_v_;
    std::vector<MatrixI8> stage_q_;
    std::vector<MatrixF> outs_;
    std::vector<LayerStep> steps_;
    /** A wide flight's block PruneStats at the current layer: block
     *  b's KV head kv at b * kv_heads + kv. */
    std::vector<PruneStats> block_stats_;
    int fed_ = 0;
    int completed_ = 0;
    /** True between collectUnits() and completeRound(). */
    bool round_open_ = false;
    /** Scratch of advance()/drain()'s one-engine waves. */
    WaveRunner waves_;
};

} // namespace pade

#endif // PADE_SERVING_MODEL_ENGINE_H
