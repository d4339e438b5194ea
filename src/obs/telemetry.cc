#include "obs/telemetry.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace pade::obs {

namespace detail {

std::size_t
shardIndex()
{
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t idx =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return idx;
}

} // namespace detail

uint64_t
Counter::value() const
{
    uint64_t sum = 0;
    for (const auto &cell : cells_)
        sum += cell.v.load(std::memory_order_relaxed);
    return sum;
}

std::size_t
Histogram::bucketOf(double v)
{
    // Catches NaN and negatives too: !(v >= 1.0) is true for both.
    if (!(v >= 1.0))
        return 0;
    // Values at or above 2^63 saturate into the last bucket anyway.
    constexpr double kHuge = 9.2e18;
    const uint64_t u =
        v >= kHuge ? ~uint64_t{0} : static_cast<uint64_t>(v);
    const std::size_t b = 64 - static_cast<std::size_t>(
        std::countl_zero(u | 1));
    return std::min(b, kBuckets - 1);
}

double
Histogram::bucketUpperBound(std::size_t b)
{
    if (b == 0)
        return 1.0;
    return std::ldexp(1.0, static_cast<int>(b));
}

double
HistogramStat::percentile(double q) const
{
    if (count == 0)
        return 0.0;
    const auto rank = static_cast<uint64_t>(std::ceil(
        std::clamp(q, 0.0, 1.0) * static_cast<double>(count)));
    uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b)
    {
        seen += buckets[b];
        if (seen >= std::max<uint64_t>(rank, 1))
            return Histogram::bucketUpperBound(b);
    }
    return Histogram::bucketUpperBound(buckets.size() - 1);
}

uint64_t
MetricsSnapshot::counter(std::string_view name) const
{
    for (const auto &[n, v] : counters)
        if (n == name)
            return v;
    return 0;
}

const HistogramStat *
MetricsSnapshot::histogram(std::string_view name) const
{
    for (const auto &[n, h] : histograms)
        if (n == name)
            return &h;
    return nullptr;
}

MetricsSnapshot
MetricsSnapshot::delta(const MetricsSnapshot &before,
                       const MetricsSnapshot &after)
{
    MetricsSnapshot d;
    d.counters.reserve(after.counters.size());
    for (const auto &[name, v] : after.counters)
        d.counters.emplace_back(name, v - before.counter(name));
    d.gauges = after.gauges;
    d.histograms.reserve(after.histograms.size());
    for (const auto &[name, h] : after.histograms)
    {
        HistogramStat hd = h;
        if (const HistogramStat *hb = before.histogram(name))
        {
            hd.count -= hb->count;
            hd.sum -= hb->sum;
            // max is absolute (cannot be subtracted); keep `after`'s.
            for (std::size_t b = 0; b < hd.buckets.size(); ++b)
                hd.buckets[b] -= hb->buckets[b];
        }
        d.histograms.emplace_back(name, hd);
    }
    return d;
}

namespace {

/** Appends a double as a JSON-legal number (non-finite becomes 0). */
void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

void
appendQuoted(std::string &out, std::string_view s)
{
    out += '"';
    // Metric names are code-controlled [a-z0-9._]; escape defensively
    // anyway so a stray name can never break the document.
    for (const char c : s)
    {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    out += '"';
}

} // namespace

std::string
MetricsSnapshot::toJson() const
{
    std::string out;
    out.reserve(1024);
    out += "{\"schema\":\"pade-metrics-v1\",\"counters\":{";
    bool first = true;
    for (const auto &[name, v] : counters)
    {
        if (!first)
            out += ',';
        first = false;
        appendQuoted(out, name);
        char buf[24];
        std::snprintf(buf, sizeof buf, ":%" PRIu64, v);
        out += buf;
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto &[name, v] : gauges)
    {
        if (!first)
            out += ',';
        first = false;
        appendQuoted(out, name);
        out += ':';
        appendNumber(out, v);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms)
    {
        if (!first)
            out += ',';
        first = false;
        appendQuoted(out, name);
        char buf[32];
        std::snprintf(buf, sizeof buf, ":{\"count\":%" PRIu64,
                      h.count);
        out += buf;
        out += ",\"sum\":";
        appendNumber(out, h.sum);
        out += ",\"mean\":";
        appendNumber(out, h.mean());
        out += ",\"max\":";
        appendNumber(out, h.max);
        out += ",\"p50\":";
        appendNumber(out, h.percentile(0.50));
        out += ",\"p95\":";
        appendNumber(out, h.percentile(0.95));
        out += ",\"p99\":";
        appendNumber(out, h.percentile(0.99));
        out += ",\"p999\":";
        appendNumber(out, h.percentile(0.999));
        out += '}';
    }
    out += "}}";
    return out;
}

Registry &
Registry::instance()
{
    static Registry *r = new Registry; // leaked: outlives all threads
    return *r;
}

Counter &
Registry::counter(std::string_view name)
{
    MutexLock lock(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_
                 .emplace(std::string(name),
                          std::make_unique<Counter>())
                 .first;
    return *it->second;
}

Gauge &
Registry::gauge(std::string_view name)
{
    MutexLock lock(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_
                 .emplace(std::string(name), std::make_unique<Gauge>())
                 .first;
    return *it->second;
}

Histogram &
Registry::histogram(std::string_view name)
{
    MutexLock lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_
                 .emplace(std::string(name),
                          std::make_unique<Histogram>())
                 .first;
    return *it->second;
}

MetricsSnapshot
Registry::snapshot() const
{
    MetricsSnapshot snap;
    MutexLock lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto &[name, c] : counters_)
        snap.counters.emplace_back(name, c->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto &[name, g] : gauges_)
        snap.gauges.emplace_back(name, g->value());
    snap.histograms.reserve(histograms_.size());
    for (const auto &[name, h] : histograms_)
    {
        HistogramStat stat;
        for (const auto &shard : h->shards_)
        {
            stat.count +=
                shard.count.load(std::memory_order_relaxed);
            stat.sum += shard.sum.load(std::memory_order_relaxed);
            stat.max = std::max(
                stat.max,
                shard.max.load(std::memory_order_relaxed));
            for (std::size_t b = 0; b < Histogram::kBuckets; ++b)
                stat.buckets[b] += shard.buckets[b].load(
                    std::memory_order_relaxed);
        }
        snap.histograms.emplace_back(name, stat);
    }
    return snap;
}

std::string
statsSnapshotJson()
{
    return Registry::instance().snapshot().toJson();
}

} // namespace pade::obs
