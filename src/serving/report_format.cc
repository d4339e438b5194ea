#include "serving/report_format.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace pade {

namespace {

void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out += buf;
}

} // namespace

std::string
formatPercentiles(const Percentiles &p)
{
    std::string out;
    appendf(out, "p50/p95/p99 = %.1f/%.1f/%.1f ms", p.p50, p.p95,
            p.p99);
    if (p.count >= 1000)
        appendf(out, ", p999 = %.1f ms", p.p999);
    appendf(out, " (mean %.1f, max %.1f, n=%" PRId64 ")", p.mean,
            p.max, p.count);
    return out;
}

std::string
formatServingReport(std::string_view label, const ServingReport &r)
{
    const auto lbl = static_cast<int>(label.size());
    const char *l = label.data();
    std::string out;
    appendf(out,
            "%.*s: %" PRIu64 " prefill + %" PRIu64
            " decode tokens, %d rounds, peak %d sessions / %.1f MB "
            "KV; decode %.0f tok/s\n",
            lbl, l, r.tokens_prefilled, r.tokens_decoded, r.rounds,
            r.peak_active,
            static_cast<double>(r.peak_cache_bytes) / 1e6,
            r.decode_tok_per_s);
    appendf(out, "%.*s: latency %s\n", lbl, l,
            formatPercentiles(r.latency_ms).c_str());
    appendf(out, "%.*s: ttft    %s\n", lbl, l,
            formatPercentiles(r.ttft_ms).c_str());
    if (r.tpot_ms.count > 0)
        appendf(out, "%.*s: tpot    %s\n", lbl, l,
                formatPercentiles(r.tpot_ms).c_str());
    if (r.tokens_prefix_hit > 0)
        appendf(out,
                "%.*s: prefix cache %" PRIu64
                " tokens adopted, %.1f MB not rebuilt\n",
                lbl, l, r.tokens_prefix_hit,
                static_cast<double>(r.prefix_bytes_saved) / 1e6);
    if (r.kv_bytes_per_token > 0.0)
        appendf(out, "%.*s: %.0f KV bytes/token\n", lbl, l,
                r.kv_bytes_per_token);
    return out;
}

std::string
formatChecksumLine(std::string_view label, uint64_t checksum,
                   std::string_view note)
{
    std::string out;
    appendf(out, "%-18.*s: %016" PRIx64 " (%.*s)",
            static_cast<int>(label.size()), label.data(), checksum,
            static_cast<int>(note.size()), note.data());
    return out;
}

} // namespace pade
