/**
 * @file
 * Closed-loop serving benchmark over ContinuousBatcher::run.
 *
 *   serve_bench --workload chat|long_decode|long_prefill --seed N
 *               --seconds S --trace 0|1 [--trace-out PATH]
 *
 * Every workload is a closed loop of `slots` clients: request shapes
 * come from poissonArrivalTrace, then every arrival is set to 0, so
 * each finished session admits the next request and the round
 * schedule is a pure function of the trace. The timed phase serves a
 * fixed number of passes, each with its own contents drawn from
 * (seed, pass): at least 100 requests, and as many passes as fill S
 * seconds on the reference host. The pass count does not depend on
 * how fast the code under test runs, so neither does the traffic.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 reports the
 * per-layer metrics: it serves each pass's trace untraced and then
 * traced, reads the batcher's own spans back from the traced pass,
 * checks that both passes produced the same deterministic counts and
 * checksums, and replays a request serially through the public layer
 * calls under bench-side spans. Both modes run the correctness gate
 * (a serial reference with another QK kernel).
 *
 * stdout: a host-fingerprint line, a deterministic-counts line, and
 * last the result object {"correct","attempted","failed","metrics"}.
 * Exit status 1 when a check fails, 2 on a usage error. README.md in
 * this directory documents the workloads and every metric.
 */

#include <sched.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "core/simd/qk_dispatch.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serving/continuous_batcher.h"
#include "serving/layer_engine.h"
#include "tensor/matrix.h"
#include "trace_summary.h"
#include "workload/generator.h"

namespace {

using namespace pade;
using servbench::SpanTotal;
using servbench::TraceSummary;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One workload: a trace shape and the batcher that serves it. */
struct Workload
{
    std::string_view name;
    TraceSpec trace;     //!< lengths and prefix mix; arrivals are zeroed
    BatcherOptions opt;  //!< slots, pages and prefill chunks
    int warmup_requests; //!< sample every set-up serves
    int sample_requests; //!< serial-oracle sample
    double pass_s;       //!< seconds per pass on the reference host
};

/** The one model every workload serves: 2 layers, 4 query heads on
 *  1 KV head, head_dim 64, 8-bit keys, prefix cache on. */
BatcherOptions
modelOptions(int slots, int page_tokens, int prefill_chunk)
{
    BatcherOptions o;
    o.layers = 2;
    o.heads = 4;
    o.kv_heads = 1;
    o.head_dim = 64;
    o.bits = 8;
    o.max_active = slots;
    o.page_tokens = page_tokens;
    o.prefill_chunk = prefill_chunk;
    o.prefix_cache = true;
    return o;
}

/** Lengths are private prompt tokens; shared prefixes come on top. */
TraceSpec
traceShape(int requests, int prompt_min, int prompt_max, int decode_min,
           int decode_max, int prefix_groups, int prefix_tokens)
{
    TraceSpec t;
    t.num_requests = requests;
    t.prompt_min = prompt_min;
    t.prompt_max = prompt_max;
    t.decode_min = decode_min;
    t.decode_max = decode_max;
    t.prefix_groups = prefix_groups;
    t.prefix_tokens = prefix_tokens;
    return t;
}

std::optional<Workload>
findWorkload(std::string_view name)
{
    // Many short sessions on 4 shared system prompts: batcher, pool
    // and materialize overhead, KV page churn, mixed waves.
    if (name == "chat")
        return Workload{"chat", traceShape(100, 64, 512, 16, 64, 4, 256),
                        modelOptions(8, 64, 64), 16, 4, 3.4};
    // One shared 2048-token document, long guarded decode scans.
    if (name == "long_decode")
        return Workload{"long_decode",
                        traceShape(50, 16, 64, 128, 256, 1, 2048),
                        modelOptions(4, 256, 256), 2, 2, 5.6};
    // Long private prompts: causal prefill scoring, KV writes, no
    // prefix reuse.
    if (name == "long_prefill")
        return Workload{"long_prefill",
                        traceShape(50, 512, 2048, 4, 8, 0, 0),
                        modelOptions(4, 64, 128), 2, 2, 7.8};
    return std::nullopt;
}

/** Trace indices ordered by @p key (ties by index). */
template <typename Key>
std::vector<std::size_t>
rankOrder(std::span<const ServingRequest> trace, Key key)
{
    std::vector<std::size_t> order(trace.size());
    for (std::size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return key(trace[a]) < key(trace[b]);
                     });
    return order;
}

/** Seed of the one trace every pass of a workload takes its shape
 *  (lengths, prefix groups, order) from. */
constexpr uint64_t kLayoutSeed = 1;

/**
 * Requests of timed pass @p pass for @p seed, all arriving at time 0.
 * The shape is the same for every seed and pass: poissonArrivalTrace
 * draws it from kLayoutSeed, then the private prompt and decode
 * lengths are replaced, rank for rank, by the exact N-quantiles of
 * their distributions. (seed, pass) draws the contents: every
 * request's row stream and every prefix group's document. Seeds thus
 * differ in the data the guarded scan prunes, not in the round
 * schedule. On a quiet host a per-seed draw of lengths moved chat's
 * TTFT p50 by about 9% between seeds, and with a per-seed order of
 * quantile lengths long_prefill's TPOT p50 still had a 13%
 * interquartile range over ten seeds.
 */
std::vector<ServingRequest>
closedLoopTrace(const Workload &w, uint64_t seed, uint64_t pass)
{
    TraceSpec spec = w.trace;
    spec.seed = kLayoutSeed;
    std::vector<ServingRequest> trace = poissonArrivalTrace(spec);
    const double n = static_cast<double>(trace.size());
    const double log_lo = std::log(static_cast<double>(spec.prompt_min));
    const double log_hi = std::log(static_cast<double>(spec.prompt_max));
    const std::vector<std::size_t> by_prompt =
        rankOrder(trace, [](const ServingRequest &r) {
            return r.prompt_len - r.prefix_len;
        });
    const std::vector<std::size_t> by_decode = rankOrder(
        trace, [](const ServingRequest &r) { return r.decode_steps; });
    const double decode_span =
        static_cast<double>(spec.decode_max - spec.decode_min + 1);
    for (std::size_t k = 0; k < trace.size(); k++) {
        const double u = (static_cast<double>(k) + 0.5) / n;
        ServingRequest &p = trace[by_prompt[k]];
        p.prompt_len = p.prefix_len +
            static_cast<int>(std::exp(log_lo + u * (log_hi - log_lo)));
        trace[by_decode[k]].decode_steps =
            spec.decode_min + static_cast<int>(u * decode_span);
    }
    // splitMix64 is a bijection of its state, so distinct layout seeds
    // stay distinct and a prefix group keeps one document.
    const uint64_t key = seed ^ (pass * 0xd1b54a32d192ed03ULL);
    for (ServingRequest &r : trace) {
        uint64_t state = key ^ r.seed;
        r.seed = splitMix64(state);
        if (r.prefix_len > 0) {
            state = key ^ r.prefix_seed;
            r.prefix_seed = splitMix64(state);
        }
        r.arrival_ms = 0.0;
    }
    return trace;
}

/**
 * @p m requests at evenly spaced prompt-length ranks: with quantile
 * lengths, the sample's shapes are the same for every seed.
 */
std::vector<std::size_t>
sampleIndices(std::span<const ServingRequest> trace, int m)
{
    const std::vector<std::size_t> order = rankOrder(
        trace, [](const ServingRequest &r) { return r.prompt_len; });
    std::vector<std::size_t> idx;
    const auto mm = static_cast<std::size_t>(std::max(1, m));
    for (std::size_t k = 0; k < mm && k < order.size(); k++)
        idx.push_back(order[(2 * k + 1) * order.size() / (2 * mm)]);
    std::sort(idx.begin(), idx.end());
    return idx;
}

/** The requests at @p idx, in that order. */
std::vector<ServingRequest>
pick(std::span<const ServingRequest> trace,
     std::span<const std::size_t> idx)
{
    std::vector<ServingRequest> out;
    for (const std::size_t i : idx)
        out.push_back(trace[i]);
    return out;
}

// ---------------------------------------------------------------------
// Process probes and statistics
// ---------------------------------------------------------------------

/** User + system CPU seconds of the whole process. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Restarts the kernel's resident-set high-water mark (VmHWM) at the
 *  current resident set; false where that is not possible. */
bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr)
        return false;
    const bool wrote = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && wrote;
}

/** Resident-set high-water mark in MiB: VmHWM, so since the last
 *  resetPeakRss(), or the whole process's where that is unreadable. */
double
peakRssMb()
{
    double kib = 0.0;
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f) != nullptr)
            if (std::strncmp(line, "VmHWM:", 6) == 0)
                kib = std::strtod(line + 6, nullptr);
        std::fclose(f);
    }
    if (kib == 0.0) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        kib = static_cast<double>(ru.ru_maxrss); // KiB on Linux
    }
    return kib / 1024.0;
}

/** Cores this process may run on (what `nproc` prints). */
int
availableCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

/** Nearest-rank percentile, q in (0, 1]; 0 for an empty sample. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** Median (mean of the middle two for an even count). */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** (max - min) / median, in percent. */
double
spreadPct(const std::vector<double> &v)
{
    const double mid = median(v);
    if (v.empty() || mid == 0.0)
        return 0.0;
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return 100.0 * (*hi - *lo) / mid;
}

// ---------------------------------------------------------------------
// Serving passes and their deterministic counts
// ---------------------------------------------------------------------

/** One ContinuousBatcher::run over one closed-loop trace. */
struct Pass
{
    std::vector<ServingRequest> trace;
    double wall_s = 0.0; //!< host wall of the run() call
    double cpu_s = 0.0;  //!< process user+sys CPU over the same call
    ServingReport report;
    obs::MetricsSnapshot delta; //!< registry activity of this pass

    uint64_t
    tokens() const
    {
        return report.tokens_prefilled + report.tokens_decoded;
    }
    /** Tokens per second of the batcher's own run loop. */
    double
    loopTokensPerS() const
    {
        return static_cast<double>(tokens()) /
            (report.wall_ms / 1000.0);
    }
};

Pass
servePass(const BatcherOptions &opt, std::vector<ServingRequest> trace)
{
    const ContinuousBatcher batcher(opt);
    Pass p;
    p.trace = std::move(trace);
    const obs::MetricsSnapshot before =
        obs::Registry::instance().snapshot();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    p.report = batcher.run(p.trace);
    p.wall_s = secondsSince(t0);
    p.cpu_s = cpuSeconds() - cpu0;
    p.delta = obs::MetricsSnapshot::delta(
        before, obs::Registry::instance().snapshot());
    return p;
}

/** Counts the closed loop fixes: equal in every pass of one trace, at
 *  any worker count, traced or not. pool.* vary with timing and are
 *  not among them. */
using Counts = std::vector<std::pair<std::string_view, uint64_t>>;

Counts
deterministicCounts(const Pass &p)
{
    const obs::MetricsSnapshot &d = p.delta;
    return {
        {"batcher.rounds", static_cast<uint64_t>(p.report.rounds)},
        {"wave.count", d.counter("model.rounds")},
        {"model.units", d.counter("model.units")},
        {"decode.keys_scanned", d.counter("decode.keys_scanned")},
        {"decode.keys_retained", d.counter("decode.keys_retained")},
        {"decode.planes_consumed", d.counter("decode.planes_consumed")},
        {"decode.planes_total", d.counter("decode.planes_total")},
        {"kv.tokens_appended", d.counter("kv.tokens_appended")},
        {"kv.pages_opened", d.counter("kv.pages_opened")},
        {"kv.pages_adopted", d.counter("kv.pages_adopted")},
        {"prefix.lookups", d.counter("prefix.lookups")},
        {"prefix.hit_pages", d.counter("prefix.hit_pages")},
        {"serving.peak_cache_bytes", p.report.peak_cache_bytes},
    };
}

// ---------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------

/** Checksums a request must reproduce, by trace index (nullopt: none). */
using Expected = std::vector<std::optional<std::pair<uint64_t, uint64_t>>>;

/** The checksums every request of @p p produced. */
Expected
checksumsOf(const Pass &p)
{
    Expected out;
    for (const SessionStats &s : p.report.sessions)
        out.emplace_back(std::pair(s.checksum, s.prefill_checksum));
    return out;
}

/** First kernel that resolves differently from @p timed, if any. */
QkKernel
otherKernel(QkKernel timed)
{
    for (const QkKernel k :
         {QkKernel::kPopcount, QkKernel::kScalar, QkKernel::kSimd})
        if (resolveQkKernel(k) != timed)
            return k;
    return timed;
}

/**
 * The sample of @p trace served on the serial oracle schedule: one
 * thread, one session at a time, pipeline off, another QK kernel, and
 * a prefix cache that starts cold for the sample, so requests that
 * hit in the timed pass may miss here. Per-session checksums depend
 * on none of these (continuous_batcher.h).
 */
Expected
serialReference(const Workload &w, std::span<const ServingRequest> trace,
                QkKernel kernel)
{
    const std::vector<std::size_t> idx =
        sampleIndices(trace, w.sample_requests);
    BatcherOptions opt = w.opt;
    opt.threads = 1;
    opt.max_active = 1;
    opt.pipeline = false;
    opt.pade.qk_kernel = kernel;
    const ServingReport ref =
        ContinuousBatcher(opt).run(pick(trace, idx));
    Expected out(trace.size());
    for (std::size_t k = 0; k < idx.size(); k++)
        out[idx[k]] = std::pair(ref.sessions[k].checksum,
                                ref.sessions[k].prefill_checksum);
    return out;
}

/** Requests served, and those that failed a check. */
struct Gate
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /**
     * Every request of @p p must complete with the token totals its
     * trace asks for and reproduce the checksums @p expect holds for
     * it (from @p source).
     */
    void
    check(const Pass &p, const Expected &expect, const char *source)
    {
        uint64_t want_prefill = 0;
        uint64_t want_decode = 0;
        for (const ServingRequest &r : p.trace) {
            want_prefill += static_cast<uint64_t>(r.prompt_len);
            want_decode += static_cast<uint64_t>(r.decode_steps);
        }
        const bool totals = p.report.tokens_prefilled == want_prefill &&
            p.report.tokens_decoded == want_decode;
        for (std::size_t i = 0; i < p.trace.size(); i++) {
            attempted++;
            const SessionStats &s = p.report.sessions[i];
            const char *why = nullptr;
            if (!totals || s.admit_seq < 0)
                why = "incomplete";
            else if (i < expect.size() && expect[i] &&
                     *expect[i] !=
                         std::pair(s.checksum, s.prefill_checksum))
                why = source;
            if (why != nullptr) {
                failed++;
                std::fprintf(stderr, "gate: request %zu: %s\n", i, why);
            }
        }
    }
};

// ---------------------------------------------------------------------
// Serial layer replay: per-call costs and retained softmax mass
// ---------------------------------------------------------------------

/** What a replay measures: per-call costs of every layer under
 *  spans, or retained softmax mass at layer 0. */
enum class ReplayMode
{
    kCosts,
    kMass,
};

/** Work done by a replay; times come from its replay.* spans. */
struct Replay
{
    uint64_t prefill_pairs = 0; //!< (key, query head) pairs scored
    uint64_t decode_pairs = 0;
    double mass_sum = 0.0; //!< retained mass summed over queries x heads
    uint64_t mass_terms = 0;
};

/**
 * Softmax mass of the keys BUI-GF kept, summed over every query head
 * of the layer whose last call scored position @p qpos. Dense logits
 * are the exact int8 dot products over keys 0..qpos, scaled like the
 * engine's own (integer score x logit scale).
 */
double
keptMass(const LayerEngine &layer, const MatrixI8 &q,
         std::span<const int8_t> keys, int qpos, float logit_scale,
         std::vector<double> &logits)
{
    const LayerEngineConfig &cfg = layer.config();
    const auto hd = static_cast<std::size_t>(cfg.head_dim);
    const auto kv_heads = static_cast<std::size_t>(cfg.kv_heads);
    const auto n = static_cast<std::size_t>(qpos) + 1;
    logits.resize(n);
    double sum = 0.0;
    for (int h = 0; h < cfg.heads; h++) {
        const int kv = h / cfg.groupSize();
        const std::span<const uint8_t> keep =
            layer.engine(kv).lastKeep(h % cfg.groupSize());
        const std::span<const int8_t> qh = q.row(h);
        double top = -INFINITY;
        for (std::size_t j = 0; j < n; j++) {
            const std::span<const int8_t> kj = keys.subspan(
                (j * kv_heads + static_cast<std::size_t>(kv)) * hd, hd);
            int32_t dot = 0; // |dot| <= 128 * 128 * head_dim
            for (std::size_t d = 0; d < hd; d++)
                dot += static_cast<int32_t>(qh[d]) * kj[d];
            logits[j] = static_cast<double>(logit_scale) *
                static_cast<double>(dot);
            top = std::max(top, logits[j]);
        }
        double total = 0.0;
        double kept = 0.0;
        for (std::size_t j = 0; j < n; j++) {
            const double e = std::exp(logits[j] - top);
            total += e;
            if (keep[j] != 0)
                kept += e;
        }
        sum += kept / total;
    }
    return sum;
}

/**
 * Replay @p req serially through fresh LayerEngines, each public call
 * under a bench-side span (recorded only while tracing is on). kCosts
 * runs every layer and scores every position. kMass runs layer 0,
 * appends every position but scores only every 16th, and adds each
 * scored query's retained mass: a position's scan reads only the
 * cache and its own query, so skipping the others changes nothing it
 * sees.
 */
void
replayRequest(const BatcherOptions &opt, const ServingRequest &req,
              ReplayMode mode, Replay &acc)
{
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
    const ModelWorkload work(spec);

    LayerEngineConfig lc;
    lc.heads = opt.heads;
    lc.kv_heads = opt.kv_heads;
    lc.head_dim = opt.head_dim;
    lc.bits = opt.bits;
    lc.page_tokens = opt.page_tokens;
    lc.pade = opt.pade;
    lc.retention = opt.retention;
    const auto kv_heads = static_cast<std::size_t>(opt.kv_heads);
    const std::vector<float> v_scales(kv_heads, work.vScale());
    const std::vector<float> logit_scales(kv_heads, work.logitScale());
    const bool mass = mode == ReplayMode::kMass;
    std::vector<LayerEngine> engines;
    for (int l = 0; l < (mass ? 1 : opt.layers); l++)
        engines.emplace_back(lc, v_scales);

    MatrixI8 k(opt.kv_heads, opt.head_dim);
    MatrixI8 v(opt.kv_heads, opt.head_dim);
    MatrixI8 q(opt.heads, opt.head_dim);
    MatrixF out(opt.heads, opt.head_dim);
    std::vector<int8_t> keys; // layer-0 K rows, position-major
    std::vector<double> logits;
    const int positions = req.prompt_len + req.decode_steps;
    for (int pos = 0; pos < positions; pos++) {
        const bool prompt = pos < req.prompt_len;
        for (std::size_t l = 0; l < engines.size(); l++) {
            LayerEngine &layer = engines[l];
            const int li = static_cast<int>(l);
            {
                const obs::ScopedSpan span("replay.stage");
                work.stageKv(li, pos, k, v);
                work.stageQueries(li, pos, q);
            }
            {
                const obs::ScopedSpan span("replay.append");
                layer.appendToken(k, v);
            }
            if (mass) {
                for (int kv = 0; kv < opt.kv_heads; kv++) {
                    const std::span<const int8_t> row = k.row(kv);
                    keys.insert(keys.end(), row.begin(), row.end());
                }
                if (pos % 16 != 15)
                    continue;
            }
            LayerStep st;
            if (prompt) {
                const obs::ScopedSpan span("replay.prefill");
                st = layer.prefillPosition(q, pos, req.prompt_len,
                                           logit_scales, out);
            } else {
                const obs::ScopedSpan span("replay.decode");
                st = layer.decode(q, logit_scales, out);
                layer.evict();
            }
            const auto pairs = static_cast<uint64_t>(st.keys) *
                static_cast<uint64_t>(opt.heads);
            (prompt ? acc.prefill_pairs : acc.decode_pairs) += pairs;
            if (mass) {
                acc.mass_sum += keptMass(layer, q, keys, pos,
                                         work.logitScale(), logits);
                acc.mass_terms += static_cast<uint64_t>(opt.heads);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/** Appends `"name":{"value":v,"unit":"u"}` members. */
class MetricsJson
{
  public:
    void
    add(std::string_view name, double value, std::string_view unit)
    {
        if (!body_.empty())
            body_ += ',';
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        body_ += '"';
        body_ += name;
        body_ += "\":{\"value\":";
        body_ += buf;
        body_ += ",\"unit\":\"";
        body_ += unit;
        body_ += "\"}";
    }

    std::string
    object() const
    {
        return "{" + body_ + "}";
    }

  private:
    std::string body_;
};

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + '"';
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        unsigned int regs[12] = {};
        for (unsigned int i = 0; i < 3; i++)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[sizeof regs + 1] = {};
        std::memcpy(brand, regs, sizeof regs);
        std::string s(brand);
        const std::size_t b = s.find_first_not_of(' ');
        const std::size_t e = s.find_last_not_of(' ');
        if (b != std::string::npos)
            return s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

/** AVX flags of the executing CPU (all false off x86). */
struct IsaFlags
{
    bool avx2 = false;
    bool avx512f = false;
    bool avx512vpopcntdq = false;
};

IsaFlags
isaFlags()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    return {__builtin_cpu_supports("avx2") != 0,
            __builtin_cpu_supports("avx512f") != 0,
            __builtin_cpu_supports("avx512vpopcntdq") != 0};
#else
    return {};
#endif
}

std::string
hostJson(int threads, QkKernel timed, QkKernel oracle,
         const obs::MetricsSnapshot &pass_delta)
{
    const IsaFlags isa = isaFlags();
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"nproc\":%d,\"avx2\":%s,\"avx512f\":%s,"
        "\"avx512vpopcntdq\":%s,\"qk_kernel\":\"%s\","
        "\"oracle_qk_kernel\":\"%s\",\"qk_dispatch\":{\"scalar\":%llu,"
        "\"popcount\":%llu,\"simd\":%llu},\"telemetry\":%s,"
        "\"pool_threads\":%d,",
        availableCores(), isa.avx2 ? "true" : "false",
        isa.avx512f ? "true" : "false",
        isa.avx512vpopcntdq ? "true" : "false",
        qkKernelName(timed), qkKernelName(resolveQkKernel(oracle)),
        static_cast<unsigned long long>(
            pass_delta.counter("qk.dispatch_scalar")),
        static_cast<unsigned long long>(
            pass_delta.counter("qk.dispatch_popcount")),
        static_cast<unsigned long long>(
            pass_delta.counter("qk.dispatch_simd")),
        obs::kTelemetryEnabled ? "true" : "false", threads);
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return std::string("{\"host\":") + buf +
        "\"cpu\":" + jsonString(cpuModel()) +
        ",\"compiler\":" + jsonString(compiler) +
        ",\"build_type\":" + jsonString(SERVBENCH_BUILD_TYPE) +
        ",\"cxx_flags\":" + jsonString(SERVBENCH_CXX_FLAGS) + "}}";
}

std::string
countsJson(const Counts &counts, std::size_t passes)
{
    std::string out = "{\"counts\":{";
    for (std::size_t i = 0; i < counts.size(); i++) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s\"%.*s\":%llu",
                      i > 0 ? "," : "",
                      static_cast<int>(counts[i].first.size()),
                      counts[i].first.data(),
                      static_cast<unsigned long long>(counts[i].second));
        out += buf;
    }
    return out + "},\"passes\":" + std::to_string(passes) + "}";
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

void
addEndToEnd(MetricsJson &m, std::span<const Pass> passes,
            double setup_s, double peak_rss_mb, const Replay &replay)
{
    double wall = 0.0;
    double cpu = 0.0;
    double tokens = 0.0;
    std::vector<double> ttft;
    std::vector<double> tpot;
    for (const Pass &p : passes) {
        wall += p.wall_s;
        cpu += p.cpu_s;
        tokens += static_cast<double>(p.tokens());
        for (const SessionStats &s : p.report.sessions) {
            if (s.decode_steps >= 1)
                ttft.push_back(s.first_token_ms - s.admit_ms);
            if (s.decode_steps >= 2)
                tpot.push_back((s.finish_ms - s.first_token_ms) /
                               static_cast<double>(s.decode_steps - 1));
        }
    }
    m.add("tokens_per_s", tokens / wall, "tok/s");
    m.add("cpu_ms_per_token", 1000.0 * cpu / tokens, "ms");
    m.add("ttft_p50_ms", percentile(ttft, 0.50), "ms");
    m.add("ttft_p90_ms", percentile(ttft, 0.90), "ms");
    m.add("tpot_p50_ms", percentile(tpot, 0.50), "ms");
    m.add("tpot_p90_ms", percentile(tpot, 0.90), "ms");
    m.add("peak_rss_mb", peak_rss_mb, "MB");
    m.add("setup_s", setup_s, "s");
    m.add("retained_mass",
          replay.mass_sum / static_cast<double>(replay.mass_terms),
          "fraction");
}

/** Guarded ratio: 0 when the base is 0 (e.g. no lookups at all). */
double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

void
addPerLayer(MetricsJson &m, const Workload &w,
            std::span<const Pass> untraced, std::span<const Pass> traced,
            std::span<const TraceSummary> batcher_spans,
            std::span<const obs::TraceStats> trace_stats,
            const TraceSummary &replay_spans, const Replay &replay)
{
    // Counts describe pass 0, whose trace is fixed by the seed.
    const Pass &p = untraced.front();
    const obs::MetricsSnapshot &d = p.delta;
    const auto c = [&d](std::string_view name) {
        return static_cast<double>(d.counter(name));
    };
    const double layers = static_cast<double>(w.opt.layers);

    // Replay per-call costs, weighted by the timed run's work: stage
    // and append run once per computed (layer, position), prefill and
    // decode scale with the (key, query head) pairs they score.
    const SpanTotal stage = replay_spans.span("replay.stage");
    const SpanTotal append = replay_spans.span("replay.append");
    const SpanTotal prefill = replay_spans.span("replay.prefill");
    const SpanTotal decode = replay_spans.span("replay.decode");
    const double prefill_ns_key =
        ratio(1000.0 * prefill.total_us,
              static_cast<double>(replay.prefill_pairs));
    const double decode_ns_key = ratio(
        1000.0 * decode.total_us, static_cast<double>(replay.decode_pairs));
    double decode_pairs = 0.0; // no retention: step t scans every key
    for (const ServingRequest &r : p.trace)
        for (int t = 0; t < r.decode_steps; t++)
            decode_pairs += static_cast<double>(r.prompt_len + t + 1);
    decode_pairs *= static_cast<double>(w.opt.heads) * layers;
    const double prefill_pairs = c("decode.keys_scanned") - decode_pairs;
    const double rows = layers *
        static_cast<double>(p.report.tokens_prefilled -
                            p.report.tokens_prefix_hit +
                            p.report.tokens_decoded);
    const double est_stage = stage.meanUs() * rows;
    const double est_append = append.meanUs() * rows;
    const double est_prefill = prefill_ns_key * prefill_pairs / 1000.0;
    const double est_decode = decode_ns_key * decode_pairs / 1000.0;
    const double est_total = est_stage + est_append + est_prefill +
        est_decode;

    m.add("decode.us_per_step", decode.meanUs(), "us");
    m.add("decode.ns_per_key", decode_ns_key, "ns");
    m.add("decode.keys_scanned", c("decode.keys_scanned"), "count");
    m.add("decode.keep_rate",
          ratio(c("decode.keys_retained"), c("decode.keys_scanned")),
          "fraction");
    m.add("decode.planes_frac",
          ratio(c("decode.planes_consumed"), c("decode.planes_total")),
          "fraction");
    m.add("decode.share", ratio(est_decode, est_total), "fraction");

    m.add("prefill.us_per_pos", prefill.meanUs(), "us");
    m.add("prefill.ns_per_key", prefill_ns_key, "ns");
    m.add("prefill.share", ratio(est_prefill, est_total), "fraction");

    m.add("kv.append_us", append.meanUs(), "us");
    m.add("kv.append_share", ratio(est_append, est_total), "fraction");
    m.add("kv.tokens_appended", c("kv.tokens_appended"), "count");
    m.add("kv.pages_opened", c("kv.pages_opened"), "count");
    m.add("kv.pages_adopted", c("kv.pages_adopted"), "count");
    m.add("kv.bytes_per_token", p.report.kv_bytes_per_token, "B/tok");
    m.add("kv.peak_mb",
          static_cast<double>(p.report.peak_cache_bytes) / (1024.0 * 1024.0),
          "MB");

    m.add("prefix.hit_rate",
          ratio(static_cast<double>(p.report.tokens_prefix_hit),
                static_cast<double>(p.report.tokens_prefilled)),
          "fraction");
    m.add("prefix.lookups", c("prefix.lookups"), "count");
    m.add("prefix.hit_pages", c("prefix.hit_pages"), "count");

    // Span-derived batcher decomposition, per round of each traced
    // pass: round = self + waves + materialize fan-out. Median over the
    // traced passes.
    const auto perTraced = [&](auto fn) {
        std::vector<double> v;
        for (const TraceSummary &s : batcher_spans)
            v.push_back(fn(s));
        return median(v);
    };
    const auto perRoundMs = [](const TraceSummary &s, double us) {
        return us / static_cast<double>(s.span("batcher.round").count) /
            1000.0;
    };
    const auto roundMs = [&](const TraceSummary &s) {
        return perRoundMs(s, s.span("batcher.round").total_us);
    };
    const auto waveMs = [&](const TraceSummary &s) {
        return perRoundMs(s, s.span("model.round").total_us);
    };
    const auto materializeMs = [&](const TraceSummary &s) {
        return perRoundMs(s, s.materialize_cover_us);
    };
    m.add("batcher.rounds", static_cast<double>(p.report.rounds),
          "count");
    m.add("batcher.round_ms", perTraced(roundMs), "ms");
    m.add("batcher.self_ms",
          perTraced([&](const TraceSummary &s) {
              return roundMs(s) - waveMs(s) - materializeMs(s);
          }),
          "ms");
    m.add("batcher.wave_ms", perTraced(waveMs), "ms");
    m.add("batcher.materialize_ms", perTraced(materializeMs), "ms");

    const double waves = c("model.rounds");
    m.add("wave.count", waves, "count");
    m.add("wave.units_mean", ratio(c("model.units"), waves), "count");
    m.add("wave.occupancy",
          perTraced([](const TraceSummary &s) {
              return ratio(s.span("model.unit").total_us,
                           s.span("model.round").total_us *
                               static_cast<double>(s.unit_threads));
          }),
          "fraction");
    const auto medianCounter = [&](std::string_view name) {
        std::vector<double> v;
        for (const Pass &x : untraced)
            v.push_back(static_cast<double>(x.delta.counter(name)));
        return median(v);
    };
    m.add("pool.tasks", medianCounter("pool.tasks"), "count");
    m.add("pool.steals", medianCounter("pool.steals"), "count");
    m.add("pool.idle_ms", medianCounter("pool.idle_us") / 1000.0, "ms");

    m.add("model.units", c("model.units"), "count");
    const double busy_ms = medianCounter("model.unit_busy_us") / 1000.0;
    m.add("model.unit_busy_ms", busy_ms, "ms");
    m.add("model.unit_us", ratio(1000.0 * busy_ms, c("model.units")), "us");

    m.add("stage.us_per_row", stage.meanUs(), "us");
    m.add("stage.share", ratio(est_stage, est_total), "fraction");

    std::vector<double> plain;
    std::vector<double> with_spans;
    for (const Pass &x : untraced)
        plain.push_back(x.loopTokensPerS());
    for (const Pass &x : traced)
        with_spans.push_back(x.loopTokensPerS());
    std::vector<double> events;
    uint64_t dropped = 0;
    for (const obs::TraceStats &t : trace_stats) {
        events.push_back(static_cast<double>(t.recorded));
        dropped = std::max(dropped, t.dropped);
    }
    m.add("trace.overhead_pct",
          100.0 * (1.0 - median(with_spans) / median(plain)), "%");
    m.add("trace.tokens_per_s_untraced", median(plain), "tok/s");
    m.add("trace.tokens_per_s_traced", median(with_spans), "tok/s");
    m.add("trace.spread_untraced_pct", spreadPct(plain), "%");
    m.add("trace.spread_traced_pct", spreadPct(with_spans), "%");
    m.add("trace.events", median(events), "count");
    m.add("trace.dropped", static_cast<double>(dropped), "count");
}

/** Parses a non-negative decimal integer; nullopt on anything else. */
std::optional<uint64_t>
parseUnsigned(const std::string &s)
{
    uint64_t v = 0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (s.empty() || ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

/** Pass traces whose median-length request the retained-mass sample
 *  takes: a long_decode trace shares one document, so one trace would
 *  measure one document. */
constexpr int kMassTraces = 16;

/** Requests a run completes at least, so p90 has 10 samples above. */
constexpr int kMinRequests = 100;

/**
 * Passes a run serves: enough for kMinRequests, and as many as fill
 * @p seconds at the workload's reference pass time. A pure function
 * of its arguments, so a slower or faster commit serves the same
 * requests.
 */
std::size_t
passCount(const Workload &w, uint64_t seconds)
{
    const int per_pass = w.trace.num_requests;
    const auto fill = static_cast<long>(
        std::lround(static_cast<double>(seconds) / w.pass_s));
    return static_cast<std::size_t>(
        std::max<long>((kMinRequests + per_pass - 1) / per_pass, fill));
}

/** Per-thread ring size for traced passes: a chat pass records about
 *  75k events, more than the library's 16384-event default holds. */
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;

} // namespace

int
main(int argc, char **argv)
{
    const auto process_start = Clock::now();
    const Cli cli(argc, argv);
    const std::optional<Workload> found =
        findWorkload(cli.get("workload"));
    const std::optional<uint64_t> seed = parseUnsigned(cli.get("seed"));
    const std::optional<uint64_t> seconds =
        parseUnsigned(cli.get("seconds"));
    const std::string trace_flag = cli.get("trace", "0");
    if (!found || !seed || !seconds || *seconds == 0 ||
        (trace_flag != "0" && trace_flag != "1")) {
        std::fprintf(stderr,
                     "usage: serve_bench --workload "
                     "chat|long_decode|long_prefill --seed N "
                     "--seconds S --trace 0|1 [--trace-out PATH]\n");
        return 2;
    }
    const Workload &w = *found;
    const bool traced_mode = trace_flag == "1";
    // The scheduling thread also runs units inside parallelFor, so
    // nproc - 1 workers fill the host.
    BatcherOptions opt = w.opt;
    opt.threads = std::max(1, availableCores() - 1);

    // Set-up: pass 0's trace plus a warm-up serve of a fixed sample of
    // it, repeated; the first repetition counts from process start.
    std::vector<double> setup_s;
    auto setup_t0 = process_start;
    for (int i = 0; i < (traced_mode ? 1 : 3); i++) {
        const std::vector<ServingRequest> trace =
            closedLoopTrace(w, *seed, 0);
        servePass(opt,
                  pick(trace, sampleIndices(trace, w.warmup_requests)));
        setup_s.push_back(secondsSince(setup_t0));
        setup_t0 = Clock::now();
    }

    // Timed phase: a fixed number of passes. The traced mode serves
    // each pass's trace twice, untraced then traced, over half as many
    // passes but at least two pairs, for the overhead spread.
    const std::size_t passes = traced_mode
        ? std::max<std::size_t>(2, (passCount(w, *seconds) + 1) / 2)
        : passCount(w, *seconds);
    std::vector<Pass> untraced;
    std::vector<Pass> traced;
    std::vector<TraceSummary> batcher_spans;
    std::vector<obs::TraceStats> trace_stats;
    BatcherOptions traced_opt = opt;
    traced_opt.trace_file = cli.get("trace-out", "serve_bench_trace.json");
    if (traced_mode)
        obs::setTraceCapacity(kTraceCapacity);
    if (!resetPeakRss())
        std::fprintf(stderr, "serve_bench: cannot reset the RSS high-water "
                             "mark; peak_rss_mb includes set-up\n");
    const auto timed_start = Clock::now();
    for (std::size_t i = 0; i < passes; i++) {
        std::vector<ServingRequest> trace = closedLoopTrace(w, *seed, i);
        if (traced_mode) {
            untraced.push_back(servePass(opt, trace));
            obs::clearTrace();
            traced.push_back(servePass(traced_opt, std::move(trace)));
            trace_stats.push_back(obs::traceStats());
            batcher_spans.push_back(
                servbench::summarizeChromeTrace(obs::chromeTraceJson()));
        } else {
            untraced.push_back(servePass(opt, std::move(trace)));
        }
    }
    const double peak_rss_mb = peakRssMb();
    const double timed_s = secondsSince(timed_start);
    const auto checks_start = Clock::now();

    // Checks, after the timed phase: completion everywhere, the serial
    // reference on pass 0's sample, and in the traced mode each traced
    // pass against its untraced twin (checksums, counts, no drops).
    const Pass &first = untraced.front();
    const QkKernel timed_kernel = resolveQkKernel(opt.pade.qk_kernel);
    const QkKernel oracle_kernel = otherKernel(timed_kernel);
    Gate gate;
    gate.check(first, serialReference(w, first.trace, oracle_kernel),
               "checksums differ from the serial reference");
    for (std::size_t i = 1; i < untraced.size(); i++)
        gate.check(untraced[i], {}, nullptr);
    bool consistent = true;
    for (std::size_t i = 0; i < traced.size(); i++) {
        gate.check(traced[i], checksumsOf(untraced[i]),
                   "traced checksums differ from untraced");
        if (deterministicCounts(traced[i]) !=
            deterministicCounts(untraced[i])) {
            consistent = false;
            std::fprintf(stderr, "self-check: pass %zu counts differ "
                                 "between traced and untraced\n",
                         i);
        }
        if (trace_stats[i].dropped != 0) {
            consistent = false;
            std::fprintf(stderr, "trace: pass %zu dropped %llu events\n",
                         i,
                         static_cast<unsigned long long>(
                             trace_stats[i].dropped));
        }
    }

    const double gate_s = secondsSince(checks_start);

    // Layer replay of median-length requests: in the traced mode,
    // per-call costs of pass 0's under spans; else retained mass over
    // those of the first kMassTraces pass traces.
    obs::clearTrace();
    obs::setTraceEnabled(traced_mode);
    Replay replay;
    const int replays = traced_mode ? 1 : kMassTraces;
    for (int i = 0; i < replays; i++) {
        const std::vector<ServingRequest> t =
            closedLoopTrace(w, *seed, static_cast<uint64_t>(i));
        replayRequest(w.opt, t[sampleIndices(t, 1).front()],
                      traced_mode ? ReplayMode::kCosts : ReplayMode::kMass,
                      replay);
    }
    obs::setTraceEnabled(false);
    const TraceSummary replay_spans =
        servbench::summarizeChromeTrace(obs::chromeTraceJson());
    if (obs::traceStats().dropped != 0) {
        consistent = false;
        std::fprintf(stderr, "trace: replay events dropped\n");
    }
    std::fprintf(stderr,
                 "serve_bench: %s seed %llu: setup %.2f s, %zu+%zu "
                 "passes of %zu requests in %.1f s, gate %.1f s, "
                 "replay %.1f s\n",
                 std::string(w.name).c_str(),
                 static_cast<unsigned long long>(*seed), median(setup_s),
                 untraced.size(), traced.size(), first.trace.size(),
                 timed_s, gate_s, secondsSince(checks_start) - gate_s);

    MetricsJson metrics;
    if (traced_mode)
        addPerLayer(metrics, w, untraced, traced, batcher_spans,
                    trace_stats, replay_spans, replay);
    else
        addEndToEnd(metrics, untraced, median(setup_s), peak_rss_mb,
                    replay);

    const bool correct = consistent && gate.failed == 0;
    std::printf("%s\n", hostJson(opt.threads, timed_kernel, oracle_kernel,
                                 first.delta)
                            .c_str());
    std::printf("%s\n",
                countsJson(deterministicCounts(first), untraced.size())
                    .c_str());
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(gate.attempted),
                static_cast<unsigned long long>(gate.failed),
                metrics.object().c_str());
    return correct ? 0 : 1;
}
