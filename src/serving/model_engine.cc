#include "serving/model_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace pade {

namespace {

// Wave telemetry, recorded by WaveRunner::wave() (waves and their
// units) and runCollectedUnit() (the time each unit computed; the
// serial oracle's whole-token units are not timed).
struct ModelMetrics
{
    obs::Counter &rounds;
    obs::Counter &units;
    obs::Counter &unit_busy_us;

    static ModelMetrics &
    get()
    {
        static ModelMetrics m{
            obs::Registry::instance().counter("model.rounds"),
            obs::Registry::instance().counter("model.units"),
            obs::Registry::instance().counter("model.unit_busy_us"),
        };
        return m;
    }
};

int64_t
microsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

ModelEngine::ModelEngine(const ModelEngineConfig &cfg,
                         std::span<const float> v_scales,
                         std::span<const float> logit_scales,
                         Stager stager, Sink sink)
    : cfg_(cfg), v_scales_(v_scales.begin(), v_scales.end()),
      logit_scales_(logit_scales.begin(), logit_scales.end()),
      stager_(std::move(stager)), sink_(std::move(sink))
{
    PADE_CHECK_GE(cfg_.layers, 1);
    const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
    PADE_CHECK_EQ(v_scales_.size(),
                  static_cast<std::size_t>(cfg_.layers) * kv);
    PADE_CHECK_EQ(logit_scales_.size(),
                  static_cast<std::size_t>(cfg_.layers) * kv);
    PADE_CHECK(stager_ != nullptr);
    PADE_CHECK(sink_ != nullptr);

    layers_.reserve(static_cast<std::size_t>(cfg_.layers));
    for (int l = 0; l < cfg_.layers; l++)
        layers_.emplace_back(
            cfg_.layer,
            std::span<const float>(v_scales_)
                .subspan(static_cast<std::size_t>(l) * kv, kv));
}

void
ModelEngine::feed(int pos, int prompt_len)
{
    // Contiguous feed from the frontier keeps every layer's append
    // sequence gapless — the property the whole cache layer assumes.
    PADE_CHECK_EQ(pos, fed_);
    PADE_CHECK_GE(prompt_len, 0);
    fed_++;
    queue_.push_back(Job{pos, prompt_len});
}

std::span<const float>
ModelEngine::logitScales(int l) const
{
    const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
    return std::span<const float>(logit_scales_)
        .subspan(static_cast<std::size_t>(l) * kv, kv);
}

void
ModelEngine::startFlight()
{
    // The whole run of queued prompt positions flies together; a
    // decode token flies alone (its scan needs its predecessor at
    // every layer). The serial oracle flies one token at a time.
    const Job first = queue_.front();
    std::size_t n = 1;
    if (cfg_.pipeline && first.pos < first.prompt_len)
        while (n < queue_.size() &&
               queue_[n].prompt_len == first.prompt_len &&
               queue_[n].pos < queue_[n].prompt_len)
            n++;
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(n));
    flight_ = Flight{first.pos, static_cast<int>(n), first.prompt_len};

    // The buffers follow the flight's size, so a session decoding
    // after its prompt holds one position's rows, not a chunk's.
    const LayerEngineConfig &lc = cfg_.layer;
    const auto fit = [&lc](auto &buf, std::size_t size, int rows) {
        buf.resize(std::min(buf.size(), size));
        while (buf.size() < size)
            buf.emplace_back(rows, lc.head_dim);
    };
    const std::size_t slots = n * static_cast<std::size_t>(cfg_.layers);
    fit(stage_k_, n, lc.kv_heads);
    fit(stage_v_, n, lc.kv_heads);
    fit(stage_q_, n, lc.heads);
    fit(outs_, slots, lc.heads);
    steps_.resize(slots);
    block_stats_.resize(flight_.wide()
                            ? static_cast<std::size_t>(flight_.blocks()) *
                                  static_cast<std::size_t>(lc.kv_heads)
                            : 0);
}

void
ModelEngine::appendLayer(int l)
{
    LayerEngine &layer = layers_[static_cast<std::size_t>(l)];
    for (int i = 0; i < flight_.count; i++) {
        const auto si = static_cast<std::size_t>(i);
        stager_(l, flight_.first + i, stage_k_[si], stage_v_[si],
                stage_q_[si]);
        layer.appendToken(stage_k_[si], stage_v_[si]);
    }
}

void
ModelEngine::runLayer(int l, ThreadPool *pool)
{
    appendLayer(l);
    LayerEngine &layer = layers_[static_cast<std::size_t>(l)];
    const std::span<const float> scales = logitScales(l);
    for (int i = 0; i < flight_.count; i++) {
        const int pos = flight_.first + i;
        const MatrixI8 &q = stage_q_[static_cast<std::size_t>(i)];
        MatrixF &out = outs_[slot(i, l)];
        if (pos < flight_.prompt_len) {
            steps_[slot(i, l)] = layer.prefillPosition(
                q, pos, flight_.prompt_len, scales, out, pool);
        } else {
            steps_[slot(i, l)] = layer.decode(q, scales, out, pool);
            layer.evict();
        }
    }
}

void
ModelEngine::scanBlock(int l, int b)
{
    // One scratch per thread: a block unit never waits on the pool,
    // so no other unit can run on this thread while it holds it.
    thread_local DecodeScratch scratch;
    const LayerEngine &layer = layers_[static_cast<std::size_t>(l)];
    const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
    const std::span<PruneStats> stats =
        std::span(block_stats_).subspan(static_cast<std::size_t>(b) * kv,
                                        kv);
    std::fill(stats.begin(), stats.end(), PruneStats{});
    const std::span<const float> scales = logitScales(l);
    const int lo = b * kBlockPositions;
    const int hi = std::min(flight_.count, lo + kBlockPositions);
    for (int i = lo; i < hi; i++)
        steps_[slot(i, l)] = layer.prefillPosition(
            stage_q_[static_cast<std::size_t>(i)], flight_.first + i,
            flight_.prompt_len, scales, outs_[slot(i, l)], scratch,
            stats);
}

void
ModelEngine::retireFlight()
{
    const auto layers = static_cast<std::size_t>(cfg_.layers);
    for (int i = 0; i < flight_.count; i++) {
        TokenResult result;
        result.pos = flight_.first + i;
        result.prompt_len = flight_.prompt_len;
        result.outs = std::span<const MatrixF>(outs_).subspan(
            slot(i, 0), layers);
        result.steps = std::span<const LayerStep>(steps_).subspan(
            slot(i, 0), layers);
        sink_(result);
        completed_++;
    }
    flight_ = Flight{};
}

int
ModelEngine::collectUnits()
{
    PADE_CHECK(!round_open_);
    if (flight_.count == 0) {
        if (queue_.empty())
            return 0;
        startFlight();
    }
    round_open_ = true;
    return cfg_.pipeline && flight_.appended ? flight_.blocks() : 1;
}

void
ModelEngine::runCollectedUnit(int u, ThreadPool *pool)
{
    PADE_DCHECK(round_open_);
    if (!cfg_.pipeline) {
        for (int l = 0; l < cfg_.layers; l++)
            runLayer(l, pool);
        return;
    }
    const int l = flight_.layer;
    const int phase = !flight_.wide() ? 0 : flight_.appended ? 2 : 1;
    const int first = phase == 2 ? u * kBlockPositions : 0;
    const int count =
        phase == 2 ? std::min(kBlockPositions, flight_.count - first)
                   : flight_.count;
    const obs::ScopedSpan span("model.unit",
                               {{"layer", l},
                                {"pos", flight_.first + first},
                                {"positions", count},
                                {"phase", phase}});
    const auto t0 = std::chrono::steady_clock::now();
    if (phase == 0)
        runLayer(l, pool);
    else if (phase == 1)
        appendLayer(l);
    else
        scanBlock(l, u);
    ModelMetrics::get().unit_busy_us.add(
        static_cast<uint64_t>(microsSince(t0)));
}

void
ModelEngine::completeRound()
{
    PADE_CHECK(round_open_);
    round_open_ = false;
    if (!cfg_.pipeline) {
        retireFlight();
        return;
    }
    if (flight_.wide()) {
        if (!flight_.appended) {
            flight_.appended = true;
            return;
        }
        // Post-barrier, on the caller: the blocks' stats, in block
        // order.
        LayerEngine &layer =
            layers_[static_cast<std::size_t>(flight_.layer)];
        const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
        for (int b = 0; b < flight_.blocks(); b++)
            layer.addStats(std::span<const PruneStats>(block_stats_)
                               .subspan(static_cast<std::size_t>(b) * kv,
                                        kv));
        flight_.appended = false;
    }
    if (++flight_.layer == cfg_.layers)
        retireFlight();
}

bool
ModelEngine::advance(ThreadPool *pool)
{
    ModelEngine *const self = this;
    return waves_.wave({&self, 1}, pool) > 0;
}

void
ModelEngine::drain(ThreadPool *pool)
{
    while (advance(pool)) {
    }
}

int
WaveRunner::wave(std::span<ModelEngine *const> engines, ThreadPool *pool)
{
    units_.clear();
    int sessions = 0;
    for (ModelEngine *e : engines) {
        const int n = e->collectUnits();
        if (n > 0)
            sessions++;
        for (int u = 0; u < n; u++)
            units_.push_back(UnitRef{e, u});
    }
    const int total = static_cast<int>(units_.size());
    if (total == 0)
        return 0;
    {
        const obs::ScopedSpan span(
            "model.round", {{"units", static_cast<int64_t>(total)},
                            {"sessions", sessions}});
        // Units are fine-grained (one layer of one flight, or one
        // block of it), so fan out only as wide as the HARDWARE can
        // execute: an oversubscribed pool would wake sleeping workers
        // for microsecond units and pay a context switch each, and on
        // a 1-core host the wave runs inline on this thread. The
        // nested KV-head fan-out only helps while the wave
        // undersubscribes those lanes. Both are functions of the wave
        // shape, and units of one wave are order-independent
        // (parallelReduceOrdered inside), so neither can perturb
        // outputs.
        const int lanes =
            pool ? std::min(pool->threadCount(),
                            ThreadPool::hardwareThreads())
                 : 1;
        ThreadPool *nested = total < lanes ? pool : nullptr;
        const auto unit = [&](int i) {
            const UnitRef &u = units_[static_cast<std::size_t>(i)];
            u.engine->runCollectedUnit(u.unit, nested);
        };
        if (lanes > 1 && total > 1)
            parallelFor(*pool, total, unit);
        else
            for (int i = 0; i < total; i++)
                unit(i);
        ModelMetrics &m = ModelMetrics::get();
        m.rounds.add(1);
        m.units.add(static_cast<uint64_t>(total));
    }
    for (ModelEngine *e : engines)
        if (e->round_open_)
            e->completeRound();
    return total;
}

void
WaveRunner::drain(std::span<ModelEngine *const> engines, ThreadPool *pool)
{
    while (wave(engines, pool) > 0) {
    }
}

void
ModelEngine::adoptPrefixPages(
    std::span<const std::shared_ptr<const KvPage>> pages)
{
    // Adoption splices pages at the frontier; with tokens in flight
    // the frontier would move under them.
    PADE_CHECK(pending() == 0);
    const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
    PADE_CHECK_EQ(pages.size(),
                  static_cast<std::size_t>(cfg_.layers) * kv);
    for (int l = 0; l < cfg_.layers; l++)
        layers_[static_cast<std::size_t>(l)].adoptSharedPages(
            pages.subspan(static_cast<std::size_t>(l) * kv, kv));
    fed_ += cfg_.layer.page_tokens;
}

void
ModelEngine::sharePrefixPages(
    int page, std::vector<std::shared_ptr<const KvPage>> &out) const
{
    for (const LayerEngine &layer : layers_)
        layer.sharePages(page, out);
}

PruneStats
ModelEngine::stats() const
{
    PruneStats sum;
    for (const LayerEngine &layer : layers_)
        sum += layer.stats();
    return sum;
}

std::size_t
ModelEngine::bytesUsed() const
{
    std::size_t bytes = 0;
    for (const LayerEngine &layer : layers_)
        bytes += layer.bytesUsed();
    return bytes;
}

} // namespace pade
