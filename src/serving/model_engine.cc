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

// Pipeline telemetry, recorded by WaveRunner::wave() (waves and
// their units) and runCollectedUnit() (the time each pipelined unit
// computed).
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
    stage_k_.reserve(static_cast<std::size_t>(cfg_.layers));
    stage_v_.reserve(static_cast<std::size_t>(cfg_.layers));
    stage_q_.reserve(static_cast<std::size_t>(cfg_.layers));
    for (int l = 0; l < cfg_.layers; l++) {
        layers_.emplace_back(
            cfg_.layer,
            std::span<const float>(v_scales_)
                .subspan(static_cast<std::size_t>(l) * kv, kv));
        stage_k_.emplace_back(cfg_.layer.kv_heads, cfg_.layer.head_dim);
        stage_v_.emplace_back(cfg_.layer.kv_heads, cfg_.layer.head_dim);
        stage_q_.emplace_back(cfg_.layer.heads, cfg_.layer.head_dim);
    }
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

ModelEngine::Flight
ModelEngine::takeFlight(const Job &job)
{
    Flight f;
    if (!spares_.empty()) {
        f = std::move(spares_.back());
        spares_.pop_back();
    } else {
        f.outs.reserve(static_cast<std::size_t>(cfg_.layers));
        for (int l = 0; l < cfg_.layers; l++)
            f.outs.emplace_back(cfg_.layer.heads, cfg_.layer.head_dim);
        f.steps.resize(static_cast<std::size_t>(cfg_.layers));
    }
    f.job = job;
    f.age = 0;
    return f;
}

void
ModelEngine::runUnit(Flight &f, int l, ThreadPool *pool)
{
    const auto li = static_cast<std::size_t>(l);
    MatrixI8 &k = stage_k_[li];
    MatrixI8 &v = stage_v_[li];
    MatrixI8 &q = stage_q_[li];
    stager_(l, f.job.pos, k, v, q);

    LayerEngine &layer = layers_[li];
    layer.appendToken(k, v);
    const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
    const std::span<const float> scales =
        std::span<const float>(logit_scales_).subspan(li * kv, kv);
    if (f.job.pos < f.job.prompt_len) {
        f.steps[li] = layer.prefillPosition(q, f.job.pos,
                                            f.job.prompt_len, scales,
                                            f.outs[li], pool);
    } else {
        f.steps[li] = layer.decode(q, scales, f.outs[li], pool);
        layer.evict();
    }
}

void
ModelEngine::retire(Flight &&f)
{
    TokenResult result;
    result.pos = f.job.pos;
    result.prompt_len = f.job.prompt_len;
    result.outs = f.outs;
    result.steps = f.steps;
    sink_(result);
    completed_++;
    spares_.push_back(std::move(f));
}

int
ModelEngine::collectUnits()
{
    PADE_CHECK(!round_open_);
    if (!cfg_.pipeline) {
        // Serial reference schedule: one whole-token unit per round.
        // (flight_ holds at most this one entry in serial mode.)
        if (queue_.empty())
            return 0;
        flight_.push_back(takeFlight(queue_.front()));
        queue_.pop_front();
        round_open_ = true;
        return 1;
    }
    if (queue_.empty() && flight_.empty())
        return 0;
    if (!queue_.empty()) {
        flight_.push_back(takeFlight(queue_.front()));
        queue_.pop_front();
    }
    round_open_ = true;
    return static_cast<int>(flight_.size());
}

void
ModelEngine::runCollectedUnit(int u, ThreadPool *pool)
{
    PADE_DCHECK(round_open_);
    Flight &f = flight_[static_cast<std::size_t>(u)];
    if (!cfg_.pipeline) {
        for (int l = 0; l < cfg_.layers; l++)
            runUnit(f, l, pool);
        return;
    }
    const obs::ScopedSpan span("model.unit",
                               {{"layer", f.age}, {"pos", f.job.pos}});
    const auto t0 = std::chrono::steady_clock::now();
    runUnit(f, f.age, pool);
    ModelMetrics::get().unit_busy_us.add(
        static_cast<uint64_t>(microsSince(t0)));
}

void
ModelEngine::completeRound()
{
    PADE_CHECK(round_open_);
    round_open_ = false;
    if (!cfg_.pipeline) {
        Flight f = std::move(flight_.front());
        flight_.pop_front();
        retire(std::move(f));
        return;
    }
    // Post-barrier, on the caller: age everyone, retire the front
    // when its last layer just ran. At most one token can retire per
    // round (ages are distinct), and it is always the oldest — tokens
    // leave in feed order.
    for (Flight &f : flight_)
        f.age++;
    while (!flight_.empty() && flight_.front().age == cfg_.layers) {
        Flight f = std::move(flight_.front());
        flight_.pop_front();
        retire(std::move(f));
    }
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
            "model.round", {{"flights", static_cast<int64_t>(total)},
                            {"sessions", sessions}});
        // Units are fine-grained (one layer of one token), so fan out
        // only as wide as the HARDWARE can execute: an oversubscribed
        // pool would wake sleeping workers for microsecond units and
        // pay a context switch each, and on a 1-core host the wave
        // runs inline on this thread. The nested KV-head fan-out only
        // helps while the wave undersubscribes those lanes. Both are
        // functions of the wave shape, and units of one wave are
        // order-independent (parallelReduceOrdered inside), so
        // neither can perturb outputs.
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
    PADE_CHECK(queue_.empty() && flight_.empty());
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
