#include "serving/continuous_batcher.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <optional>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "serving/model_engine.h"

namespace pade {

namespace {

/** Mix one 32-bit word into a running checksum. */
uint64_t
mixChecksum(uint64_t acc, uint32_t word)
{
    uint64_t state = acc + word;
    return splitMix64(state);
}

/** Mix a whole output matrix (all heads of one position). */
uint64_t
mixMatrix(uint64_t acc, const MatrixF &m)
{
    for (int r = 0; r < m.rows(); r++)
        for (float v : m.row(r))
            acc = mixChecksum(acc, std::bit_cast<uint32_t>(v));
    return acc;
}

/** Appends a JSON-legal number (non-finite would break json.tool). */
void
appendJsonNumber(std::string &out, double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

/**
 * The ServingReport::telemetry blob: the run's registry delta plus
 * derived KV and prefix-cache figures, one JSON document.
 */
std::string
telemetryReportJson(const obs::MetricsSnapshot &delta,
                    const ServingReport &report)
{
    std::string out;
    out.reserve(2048);
    out += "{\"schema\":\"pade-serving-telemetry-v1\",\"derived\":{"
           "\"kv_bytes_per_token\":";
    appendJsonNumber(out, report.kv_bytes_per_token);
    char buf[64];
    std::snprintf(buf, sizeof buf,
                  ",\"prefix_lookups\":%" PRIu64,
                  delta.counter("prefix.lookups"));
    out += buf;
    std::snprintf(buf, sizeof buf,
                  ",\"prefix_hit_pages\":%" PRIu64,
                  delta.counter("prefix.hit_pages"));
    out += buf;
    std::snprintf(buf, sizeof buf,
                  ",\"prefix_evictions\":%" PRIu64,
                  delta.counter("prefix.evictions"));
    out += buf;
    std::snprintf(buf, sizeof buf, ",\"pool_steals\":%" PRIu64,
                  delta.counter("pool.steals"));
    out += buf;
    out += "},\"metrics\":";
    out += delta.toJson();
    out += '}';
    return out;
}

/** One in-flight request: its workload, KV state, and timeline. */
struct Session
{
    Session(const ServingRequest &r, std::size_t idx, double admit,
            int seq)
        : req(&r), index(idx), admit_ms(admit), admit_seq(seq)
    {
    }

    const ServingRequest *req;
    std::size_t index;
    double admit_ms;
    int admit_seq;
    double first_token_ms = -1.0;
    int prefilled = 0; //!< prompt tokens done (adopted + scored)
    int decoded = 0;
    uint64_t checksum = 0;
    uint64_t prefill_checksum = 0;

    std::optional<ModelWorkload> work;
    std::optional<ModelEngine> engine;

    // Prefix-cache state: the prompt's page chain, how many of its
    // nodes this session holds reader refs on (to release at
    // eviction), and what adoption saved.
    std::vector<uint64_t> chain;
    int chain_acquired = 0;
    bool published = false;
    int prefix_hit_tokens = 0;
    std::size_t prefix_bytes_saved = 0;
    /** Set while waiting: the trace index of the builder, an
     *  earlier-admitted session that will publish this session's
     *  next unmatched chain entry. A waiting session holds its slot
     *  and feeds nothing. */
    std::optional<std::size_t> builder;

    /**
     * Finished = materialized, whole prompt prefilled+scored, every
     * token decoded. The prefill clause matters for decode_steps == 0
     * (prefill-only) requests, which must still do their prompt work
     * before eviction.
     */
    bool
    done() const
    {
        return engine.has_value() && prefilled >= req->prompt_len &&
            decoded >= req->decode_steps;
    }
};

/**
 * Adopt the depths of @p match past the ones @p s already holds, and
 * take match.pages as its acquired depth. The chain that found the
 * pages is an identity key, not a hash of their bytes
 * (ModelWorkload::prefixPageChain), so each adopted depth is checked
 * against the session's own rows: the first V row of stream 0 (layer
 * 0, KV head 0) must equal the row the session stages at the page's
 * first position. The check costs one staged position per depth.
 */
void
adoptMatchedPages(Session &s, const PrefixMatch &match,
                  const BatcherOptions &opt)
{
    const std::size_t streams = static_cast<std::size_t>(opt.layers) *
        static_cast<std::size_t>(opt.kv_heads);
    const std::span<const std::shared_ptr<const KvPage>> shared(
        match.shared);
    MatrixI8 k(opt.kv_heads, opt.head_dim);
    MatrixI8 v(opt.kv_heads, opt.head_dim);
    for (int d = s.chain_acquired; d < match.pages; d++) {
        const auto pages =
            shared.subspan(static_cast<std::size_t>(d) * streams, streams);
        s.work->stageKv(0, d * opt.page_tokens, k, v);
        PADE_CHECK(std::ranges::equal(pages[0]->values.row(0), v.row(0)));
        s.engine->adoptPrefixPages(pages);
        for (const auto &page : pages)
            s.prefix_bytes_saved += kvPageBytes(*page);
    }
    s.chain_acquired = match.pages;
    s.prefilled = match.pages * opt.page_tokens;
    s.prefix_hit_tokens = s.prefilled;
}

/**
 * Unit 1 of every session: materialize its whole-model workload
 * (static quantization scales, prefix-pure rows; see ModelWorkload)
 * and model engine, then adopt any prefix pages an earlier
 * session already published. Runs on the scheduler thread: no row is
 * generated here, so set-up costs a few microseconds.
 */
void
materializeSession(Session &s, const BatcherOptions &opt,
                   PrefixIndex *index)
{
    const ServingRequest &req = *s.req;
    {
        const obs::ScopedSpan span(
            "batcher.materialize",
            {{"request", static_cast<int64_t>(s.index)}});
        ModelSpec spec;
        spec.layers = opt.layers;
        spec.heads = opt.heads;
        spec.kv_heads = opt.kv_heads;
        spec.head_dim = opt.head_dim;
        spec.prompt_len = req.prompt_len;
        spec.decode_steps = req.decode_steps;
        spec.bits = opt.bits;
        spec.prefix_len = req.prefix_len;
        spec.prefix_seed = req.prefix_seed;
        spec.concentration = opt.concentration;
        spec.locality = opt.locality;
        spec.seed = req.seed;
        s.work.emplace(spec);

        ModelEngineConfig mc;
        mc.layers = opt.layers;
        mc.pipeline = opt.pipeline;
        mc.layer.heads = opt.heads;
        mc.layer.kv_heads = opt.kv_heads;
        mc.layer.head_dim = opt.head_dim;
        mc.layer.bits = opt.bits;
        mc.layer.page_tokens = opt.page_tokens;
        mc.layer.pade = opt.pade;
        mc.layer.retention = opt.retention;
        const std::size_t streams =
            static_cast<std::size_t>(opt.layers) *
            static_cast<std::size_t>(opt.kv_heads);
        const std::vector<float> v_scales(streams, s.work->vScale());
        const std::vector<float> logit_scales(streams,
                                              s.work->logitScale());
        Session *self = &s;
        s.engine.emplace(
            mc, v_scales, logit_scales,
            [self](int layer, int pos, MatrixI8 &k, MatrixI8 &v,
                   MatrixI8 &q) {
                self->work->stageKv(layer, pos, k, v);
                self->work->stageQueries(layer, pos, q);
            },
            [self](const TokenResult &tr) {
                // Canonical emission order (feed order; layers
                // ascending within a token) in both schedules, so
                // sequential mixing is schedule-invariant. Prefix
                // positions are skipped entirely on a cache hit, so
                // they must not feed the checksum on a miss either.
                const ServingRequest &r = *self->req;
                if (tr.pos >= r.prompt_len) {
                    for (const MatrixF &out : tr.outs)
                        self->checksum =
                            mixMatrix(self->checksum, out);
                } else if (tr.pos >= r.prefix_len) {
                    for (const MatrixF &out : tr.outs)
                        self->prefill_checksum =
                            mixMatrix(self->prefill_checksum, out);
                }
            });

        if (index && req.prefix_len >= opt.page_tokens) {
            s.chain = s.work->prefixPageChain(opt.page_tokens);
            adoptMatchedPages(s, index->acquire(s.chain), opt);
        }
    }
}

/**
 * Once a session's own prefix pages are complete, publish them for
 * later arrivals — unless the whole chain was adopted, in which case
 * the index already has them. Called on the scheduler thread right
 * after the session's prefilled count advances.
 */
void
maybePublishPrefix(Session &s, const BatcherOptions &opt,
                   PrefixIndex *index)
{
    if (!index || s.published || s.chain.empty() ||
        s.prefilled < s.req->prefix_len)
        return;
    s.published = true;
    if (s.chain_acquired < static_cast<int>(s.chain.size())) {
        std::vector<std::shared_ptr<const KvPage>> pages;
        pages.reserve(s.chain.size() *
                      static_cast<std::size_t>(opt.layers) *
                      static_cast<std::size_t>(opt.kv_heads));
        for (std::size_t d = 0; d < s.chain.size(); d++)
            s.engine->sharePrefixPages(static_cast<int>(d), pages);
        index->publish(s.chain, pages);
    }
}

/**
 * One builder per cold prefix: @p s waits when a session admitted
 * before it in @p active (admission order) is neither published nor
 * waiting and will publish s's next unmatched chain entry; the
 * earliest such session is its builder. Returns whether s waits.
 * Every wait ends: the builder is fed every round and publishes
 * before it can finish.
 */
bool
waitForBuilder(Session &s, std::span<const std::unique_ptr<Session>> active)
{
    s.builder.reset();
    const auto d = static_cast<std::size_t>(s.chain_acquired);
    if (d >= s.chain.size())
        return false;
    for (const auto &bp : active) {
        const Session &b = *bp;
        if (&b == &s)
            break;
        if (b.published || b.builder ||
            b.chain_acquired >= static_cast<int>(b.chain.size()) ||
            d >= b.chain.size() || b.chain[d] != s.chain[d])
            continue;
        s.builder = b.index;
        static obs::Counter &waits =
            obs::Registry::instance().counter("prefix.waits");
        waits.add(1);
        obs::traceInstant("batcher.prefix_wait",
                          {{"request", static_cast<int64_t>(s.index)},
                           {"builder", static_cast<int64_t>(b.index)}});
        return true;
    }
    return false;
}

/**
 * @p s's builder published: take the chain's longest match again,
 * adopt the depths it adds and drop the earlier acquisition. A byte
 * budget may have evicted the new pages already; then s adopts
 * nothing new and builds, or waits on the next builder.
 */
void
reacquirePrefix(Session &s, const BatcherOptions &opt, PrefixIndex &index)
{
    const obs::ScopedSpan span(
        "batcher.materialize",
        {{"request", static_cast<int64_t>(s.index)}});
    const int held = s.chain_acquired;
    adoptMatchedPages(s, index.acquire(s.chain), opt);
    index.release(s.chain, held);
}

/**
 * Positions a resident session feeds its engine this round: one
 * prefill chunk while the prompt is unfinished, one decode token
 * after. Returns the number of *prompt* tokens fed (0 = decode); the
 * caller advances prefilled/decoded once the engine has drained.
 */
int
feedRoundPositions(Session &s, const BatcherOptions &opt)
{
    const ServingRequest &req = *s.req;
    if (s.prefilled < req.prompt_len) {
        const int n = std::min(opt.prefill_chunk,
                               req.prompt_len - s.prefilled);
        for (int t = 0; t < n; t++)
            s.engine->feed(s.prefilled + t, req.prompt_len);
        return n;
    }
    s.engine->feed(req.prompt_len + s.decoded, req.prompt_len);
    return 0;
}

/** Scratch reused across rounds: a trace runs thousands of them, and
 *  re-allocating these small vectors every round is measurable
 *  against microsecond units. */
struct RoundScratch
{
    /** Resident sessions with the prompt tokens each fed this round
     *  (0 = a decode token). */
    std::vector<std::pair<Session *, int>> fed;
    std::vector<ModelEngine *> engines;
    WaveRunner waves;
};

/**
 * One batcher round: every active session advances by exactly one
 * unit — materialize, prefill chunk, or decode token — or waits for
 * its prefix's builder. Fresh sessions materialize inline, in
 * admission order; a session whose builder published re-acquires its
 * chain and feeds in the same round; resident sessions feed this
 * round's positions, and their engines drain together through
 * WaveRunner waves (one round per engine per wave, all units in one
 * parallelFor). All bookkeeping runs on this, the scheduler, thread.
 * Returns the resident KV bytes summed over the active sessions;
 * adopted prefix pages count once per adopter (the saving is
 * reported separately).
 */
std::size_t
runRound(std::vector<std::unique_ptr<Session>> &active,
         const BatcherOptions &opt, ThreadPool &pool, PrefixIndex *index,
         RoundScratch &scratch)
{
    scratch.fed.clear();
    scratch.engines.clear();
    for (const auto &sp : active) {
        Session &s = *sp;
        if (!s.engine) {
            materializeSession(s, opt, index);
            waitForBuilder(s, active);
            continue;
        }
        if (s.builder) {
            const bool building = std::ranges::any_of(
                active, [&](const std::unique_ptr<Session> &b) {
                    return b->index == *s.builder && !b->published;
                });
            if (building)
                continue;
            reacquirePrefix(s, opt, *index);
            // A prefill-only prompt that is all prefix is done now.
            if (waitForBuilder(s, active) || s.done())
                continue;
        }
        scratch.fed.emplace_back(&s, feedRoundPositions(s, opt));
        scratch.engines.push_back(&*s.engine);
    }

    scratch.waves.drain(scratch.engines, &pool);

    for (const auto &[s, prompt_fed] : scratch.fed) {
        if (prompt_fed > 0) {
            s->prefilled += prompt_fed;
            maybePublishPrefix(*s, opt, index);
        } else {
            s->decoded++;
        }
    }
    std::size_t bytes = 0;
    for (const auto &sp : active)
        if (sp->engine)
            bytes += sp->engine->bytesUsed();
    return bytes;
}

} // namespace

ContinuousBatcher::ContinuousBatcher(BatcherOptions opt) : opt_(opt)
{
    // Admission invariants: a misconfigured batcher must die at
    // construction in every build type, not serve garbage — these
    // are PADE_CHECKs, not asserts, so Release servers fail loudly.
    PADE_CHECK_GT(opt_.max_active, 0);
    PADE_CHECK_GT(opt_.prefill_chunk, 0);
    PADE_CHECK_GE(opt_.layers, 1);
    PADE_CHECK_GE(opt_.heads, 1);
    PADE_CHECK_GE(opt_.kv_heads, 1);
    PADE_CHECK_EQ(opt_.heads % opt_.kv_heads, 0);
}

ServingReport
ContinuousBatcher::run(std::span<const ServingRequest> trace) const
{
    const auto run_t0 = std::chrono::steady_clock::now();

    // Bracket the run in metric snapshots: the delta isolates this
    // run's activity from process-lifetime totals (earlier runs,
    // tests in the same binary). Tracing turns on only when a trace
    // file was requested — recording is otherwise one relaxed load
    // per span site.
    const obs::MetricsSnapshot metrics_before =
        obs::Registry::instance().snapshot();
    if (!opt_.trace_file.empty())
        obs::setTraceEnabled(true);

    ServingReport report;
    report.sessions.resize(trace.size());
    // The admission loop's virtual-clock jumps assume a time-sorted
    // trace; an unsorted one would starve arrivals forever.
    for (std::size_t i = 0; i + 1 < trace.size(); i++)
        PADE_CHECK_LE(trace[i].arrival_ms, trace[i + 1].arrival_ms);

    ThreadPool pool(opt_.threads);
    // One prefix index per run, shared by every slot (internally
    // mutex'd; see serving/prefix_index.h). Streams = layers x
    // kv_heads pages per trie node, row-major by layer — the layout
    // ModelEngine::sharePrefixPages emits.
    std::optional<PrefixIndex> prefix_index;
    if (opt_.prefix_cache) {
        PrefixIndexOptions pio;
        pio.streams = opt_.layers * opt_.kv_heads;
        pio.max_bytes = opt_.prefix_cache_bytes;
        prefix_index.emplace(pio);
    }
    std::vector<std::unique_ptr<Session>> active;
    active.reserve(static_cast<std::size_t>(opt_.max_active));
    std::size_t next = 0;
    // Arrived-but-unadmitted trace indices, drained by priority.
    std::vector<std::size_t> pending;
    int admit_seq = 0;
    double now_ms = 0.0;

    RoundScratch scratch;
    std::vector<double> latency;
    std::vector<double> ttft;
    std::vector<double> tpot;
    latency.reserve(trace.size());
    ttft.reserve(trace.size());
    tpot.reserve(trace.size());

    while (next < trace.size() || !pending.empty() ||
           !active.empty()) {
        // Stage every arrived request, then admit by priority (higher
        // first), trace order breaking ties — a deterministic policy
        // independent of thread count or round timing jitter in the
        // sense that equal virtual clocks admit equal sets.
        while (next < trace.size() &&
               trace[next].arrival_ms <= now_ms)
            pending.push_back(next++);
        while (!pending.empty() &&
               static_cast<int>(active.size()) < opt_.max_active) {
            const auto best = std::min_element(
                pending.begin(), pending.end(),
                [&](std::size_t a, std::size_t b) {
                    if (trace[a].priority != trace[b].priority)
                        return trace[a].priority > trace[b].priority;
                    return a < b;
                });
            const std::size_t idx = *best;
            pending.erase(best);
            obs::traceInstant(
                "batcher.admit",
                {{"request", static_cast<int64_t>(idx)},
                 {"priority", trace[idx].priority}});
            active.push_back(std::make_unique<Session>(
                trace[idx], idx, now_ms, admit_seq++));
        }
        report.peak_active = std::max(
            report.peak_active, static_cast<int>(active.size()));

        if (active.empty()) {
            // Idle: free slots exist, so pending must be drained —
            // jump the virtual clock to the next arrival. A violation
            // here means the admission loop wedged; fail loudly
            // rather than spin forever.
            PADE_CHECK(pending.empty() && next < trace.size());
            now_ms = std::max(now_ms, trace[next].arrival_ms);
            continue;
        }

        // One scheduling round: every active session advances by one
        // unit, concurrently. The round's host wall time advances the
        // virtual clock, so latency reflects actual machine speed and
        // parallelism.
        const auto t0 = std::chrono::steady_clock::now();
        const obs::ScopedSpan round_span(
            "batcher.round",
            {{"active", static_cast<int64_t>(active.size())},
             {"round", report.rounds}});
        const std::size_t cache_bytes = runRound(
            active, opt_, pool,
            prefix_index ? &*prefix_index : nullptr, scratch);
        now_ms += opt_.fixed_round_ms >= 0.0
                      ? opt_.fixed_round_ms
                      : std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        report.rounds++;

        // First-token times need the round-end virtual clock.
        for (auto &s : active) {
            if (s->decoded >= 1 && s->first_token_ms < 0.0)
                s->first_token_ms = now_ms;
        }
        report.peak_cache_bytes =
            std::max(report.peak_cache_bytes, cache_bytes);

        // Evict finished sessions: record the timeline, free the KV
        // pages, release the slot.
        for (std::size_t i = 0; i < active.size();) {
            Session &s = *active[i];
            if (!s.done()) {
                i++;
                continue;
            }
            SessionStats &st = report.sessions[s.index];
            st.arrival_ms = s.req->arrival_ms;
            st.admit_ms = s.admit_ms;
            st.admit_seq = s.admit_seq;
            st.priority = s.req->priority;
            st.first_token_ms = s.first_token_ms;
            st.finish_ms = now_ms;
            st.prompt_len = s.req->prompt_len;
            st.decode_steps = s.req->decode_steps;
            st.prefix_len = s.req->prefix_len;
            st.prefix_hit_tokens = s.prefix_hit_tokens;
            st.checksum = s.checksum;
            st.prefill_checksum = s.prefill_checksum;

            // Drop the session's reader refs so its prefix nodes
            // become evictable again (the pages themselves die with
            // the last referencing cache).
            if (prefix_index && s.chain_acquired > 0)
                prefix_index->release(s.chain, s.chain_acquired);

            report.tokens_prefilled +=
                static_cast<uint64_t>(s.prefilled);
            report.tokens_decoded += static_cast<uint64_t>(s.decoded);
            report.tokens_prefix_hit +=
                static_cast<uint64_t>(s.prefix_hit_tokens);
            report.prefix_bytes_saved += s.prefix_bytes_saved;
            report.checksum ^= s.checksum;
            report.prefill_checksum ^= s.prefill_checksum;
            latency.push_back(st.finish_ms - st.arrival_ms);
            // Prefill-only sessions never decode a token; they count
            // toward latency but not TTFT (nor TPOT, which further
            // needs a second token to measure a gap).
            if (s.first_token_ms >= 0.0)
                ttft.push_back(st.first_token_ms - st.arrival_ms);
            if (s.first_token_ms >= 0.0 && s.decoded >= 2)
                tpot.push_back((st.finish_ms - st.first_token_ms) /
                               static_cast<double>(s.decoded - 1));
            // Per-session latency series as histograms (µs): snapshot
            // deltas carry the distribution shape even where the
            // report object itself is unavailable.
            obs::Registry::instance()
                .histogram("serving.latency_us")
                .record(latency.back() * 1000.0);
            if (s.first_token_ms >= 0.0)
                obs::Registry::instance()
                    .histogram("serving.ttft_us")
                    .record(ttft.back() * 1000.0);
            if (!tpot.empty() && s.first_token_ms >= 0.0 &&
                s.decoded >= 2)
                obs::Registry::instance()
                    .histogram("serving.tpot_us")
                    .record(tpot.back() * 1000.0);
            obs::traceInstant(
                "batcher.finish",
                {{"request", static_cast<int64_t>(s.index)},
                 {"decoded", s.decoded}});

            active.erase(active.begin() +
                         static_cast<std::ptrdiff_t>(i));
        }
    }

    if (prefix_index)
        report.prefix = prefix_index->stats();
    report.latency_ms = Percentiles::of(latency);
    report.ttft_ms = Percentiles::of(ttft);
    report.tpot_ms = Percentiles::of(tpot);
    report.makespan_ms = now_ms;
    report.wall_ms = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - run_t0).count();
    report.decode_tok_per_s = report.wall_ms > 0.0
        ? static_cast<double>(report.tokens_decoded) /
            (report.wall_ms / 1000.0)
        : 0.0;

    // Close the telemetry bracket: derive the run-level ratio from
    // the metric delta, serialize the blob, flush the trace.
    const obs::MetricsSnapshot metrics_delta =
        obs::MetricsSnapshot::delta(
            metrics_before, obs::Registry::instance().snapshot());
    // Tokens the run appended *privately* (prefix-adopted pages are
    // aliased, not appended), at model granularity: one position =
    // layers x kv_heads cache appends, all counted in bytes_appended.
    const double appended_tokens = static_cast<double>(
        report.tokens_prefilled - report.tokens_prefix_hit +
        report.tokens_decoded);
    if (appended_tokens > 0.0)
        report.kv_bytes_per_token =
            static_cast<double>(
                metrics_delta.counter("kv.bytes_appended")) /
            appended_tokens;
    report.telemetry = telemetryReportJson(metrics_delta, report);
    if (!opt_.trace_file.empty()) {
        obs::setTraceEnabled(false);
        obs::writeChromeTrace(opt_.trace_file);
    }
    return report;
}

} // namespace pade
