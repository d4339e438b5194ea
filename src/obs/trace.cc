#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "runtime/mutex.h"

namespace pade::obs {

namespace {

/** Fixed-size record in a thread's ring buffer. */
struct TraceEvent
{
    const char *name = nullptr;
    char phase = 'X'; //!< 'X' complete, 'i' instant
    int64_t start_ns = 0;
    int64_t dur_ns = 0;
    int nargs = 0;
    TraceArg args[kMaxTraceArgs] = {};
};

/**
 * One thread's event ring. The mutex is per-buffer and essentially
 * uncontended: the owning thread appends, and only export/clear from
 * another thread ever takes it concurrently.
 */
struct ThreadBuffer
{
    explicit ThreadBuffer(uint32_t tid_, std::size_t cap_)
        : tid(tid_), cap(cap_)
    {
    }

    const uint32_t tid;
    Mutex mu;
    std::size_t cap PADE_GUARDED_BY(mu);
    std::vector<TraceEvent> ring PADE_GUARDED_BY(mu);
    uint64_t total PADE_GUARDED_BY(mu) = 0; //!< ever recorded

    void
    record(const TraceEvent &e)
    {
        MutexLock lock(mu);
        if (ring.size() < cap)
            ring.push_back(e);
        else if (cap > 0)
            ring[total % cap] = e;
        ++total;
    }
};

/** Buffers of all threads, living and exited (shared ownership). */
struct TraceGlobal
{
    Mutex mu;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers
        PADE_GUARDED_BY(mu);
    std::size_t capacity PADE_GUARDED_BY(mu) = 16384;
    std::atomic<uint32_t> next_tid{1};
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

TraceGlobal &
global()
{
    static TraceGlobal *g = new TraceGlobal; // leaked: see Registry
    return *g;
}

ThreadBuffer &
localBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buf = [] {
        TraceGlobal &g = global();
        const uint32_t tid =
            g.next_tid.fetch_add(1, std::memory_order_relaxed);
        MutexLock lock(g.mu);
        auto b = std::make_shared<ThreadBuffer>(tid, g.capacity);
        g.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

} // namespace

namespace detail {

int64_t
traceNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - global().epoch)
        .count();
}

void
recordComplete(const char *name, int64_t start_ns, int64_t dur_ns,
               const TraceArg *args, int nargs)
{
    TraceEvent e;
    e.name = name;
    e.phase = 'X';
    e.start_ns = start_ns;
    e.dur_ns = dur_ns;
    e.nargs = std::min(nargs, kMaxTraceArgs);
    for (int i = 0; i < e.nargs; ++i)
        e.args[i] = args[i];
    localBuffer().record(e);
}

void
recordInstant(const char *name, const TraceArg *args, int nargs)
{
    TraceEvent e;
    e.name = name;
    e.phase = 'i';
    e.start_ns = traceNowNs();
    e.nargs = std::min(nargs, kMaxTraceArgs);
    for (int i = 0; i < e.nargs; ++i)
        e.args[i] = args[i];
    localBuffer().record(e);
}

} // namespace detail

void
setTraceEnabled(bool on)
{
    detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void
clearTrace()
{
    TraceGlobal &g = global();
    MutexLock lock(g.mu);
    for (const auto &buf : g.buffers)
    {
        MutexLock bl(buf->mu);
        buf->ring.clear();
        buf->total = 0;
    }
}

void
setTraceCapacity(std::size_t events)
{
    TraceGlobal &g = global();
    MutexLock lock(g.mu);
    g.capacity = events;
    for (const auto &buf : g.buffers)
    {
        MutexLock bl(buf->mu);
        buf->cap = events;
        buf->ring.clear();
        buf->ring.shrink_to_fit();
        buf->total = 0;
    }
}

TraceStats
traceStats()
{
    TraceStats stats;
    TraceGlobal &g = global();
    MutexLock lock(g.mu);
    stats.threads = static_cast<int>(g.buffers.size());
    for (const auto &buf : g.buffers)
    {
        MutexLock bl(buf->mu);
        stats.recorded += buf->total;
        stats.dropped += buf->total - buf->ring.size();
    }
    return stats;
}

namespace {

void
appendEscaped(std::string &out, const char *s)
{
    for (; *s != '\0'; ++s)
    {
        if (*s == '"' || *s == '\\')
            out += '\\';
        if (static_cast<unsigned char>(*s) < 0x20)
            continue;
        out += *s;
    }
}

void
appendEvent(std::string &out, uint32_t tid, const TraceEvent &e)
{
    char buf[96];
    out += "{\"name\":\"";
    appendEscaped(out, e.name);
    out += "\",\"ph\":\"";
    out += e.phase;
    out += '"';
    if (e.phase == 'i')
        out += ",\"s\":\"t\""; // thread-scoped instant
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f",
                  static_cast<double>(e.start_ns) / 1000.0);
    out += buf;
    if (e.phase == 'X')
    {
        std::snprintf(buf, sizeof buf, ",\"dur\":%.3f",
                      static_cast<double>(e.dur_ns) / 1000.0);
        out += buf;
    }
    std::snprintf(buf, sizeof buf, ",\"pid\":1,\"tid\":%u", tid);
    out += buf;
    if (e.nargs > 0)
    {
        out += ",\"args\":{";
        for (int i = 0; i < e.nargs; ++i)
        {
            if (i > 0)
                out += ',';
            out += '"';
            appendEscaped(out, e.args[i].key);
            std::snprintf(buf, sizeof buf, "\":%" PRId64,
                          e.args[i].value);
            out += buf;
        }
        out += '}';
    }
    out += '}';
}

} // namespace

std::string
chromeTraceJson()
{
    struct Tagged
    {
        uint32_t tid;
        TraceEvent e;
    };
    std::vector<Tagged> events;
    {
        TraceGlobal &g = global();
        MutexLock lock(g.mu);
        for (const auto &buf : g.buffers)
        {
            MutexLock bl(buf->mu);
            for (const TraceEvent &e : buf->ring)
                events.push_back({buf->tid, e});
        }
    }
    std::sort(events.begin(), events.end(),
              [](const Tagged &a, const Tagged &b) {
                  if (a.e.start_ns != b.e.start_ns)
                      return a.e.start_ns < b.e.start_ns;
                  return a.tid < b.tid;
              });

    std::string out;
    out.reserve(events.size() * 96 + 64);
    out += "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events.size(); ++i)
    {
        if (i > 0)
            out += ',';
        out += '\n';
        appendEvent(out, events[i].tid, events[i].e);
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool
writeChromeTrace(const std::string &path)
{
    const std::string json = chromeTraceJson();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    const std::size_t n =
        std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = n == json.size() && std::fclose(f) == 0;
    if (n != json.size())
        std::fclose(f);
    return ok;
}

} // namespace pade::obs
