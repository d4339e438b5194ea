/**
 * @file
 * Span totals read back from the library's Chrome trace export
 * (obs::chromeTraceJson), so the benchmark can derive per-layer times
 * from the spans the serving stack already records.
 */

#ifndef SERVBENCH_TRACE_SUMMARY_H
#define SERVBENCH_TRACE_SUMMARY_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace servbench {

/** Count and summed duration of the complete ("X") spans of one name. */
struct SpanTotal
{
    uint64_t count = 0;
    double total_us = 0.0;

    double
    meanUs() const
    {
        return count > 0 ? total_us / static_cast<double>(count) : 0.0;
    }
};

/** What the benchmark needs from one recorded trace. */
struct TraceSummary
{
    std::map<std::string, SpanTotal, std::less<>> spans;
    /** Wall time covered by at least one batcher.materialize span
     *  (fresh sessions materialize concurrently, so the spans overlap). */
    double materialize_cover_us = 0.0;
    /** Distinct threads that recorded a model.unit span. */
    int unit_threads = 0;

    /** Totals of spans named @p name (zeros when absent). */
    SpanTotal span(std::string_view name) const;
};

/**
 * Summarize a document in the exact layout obs::chromeTraceJson()
 * writes: one event object per line with "name", "ph", "ts", "dur"
 * (microseconds) and "tid" fields.
 */
TraceSummary summarizeChromeTrace(const std::string &json);

} // namespace servbench

#endif // SERVBENCH_TRACE_SUMMARY_H
