#include "trace_summary.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

namespace servbench {

namespace {

/** Number following @p key inside @p event; 0 when the key is absent. */
double
numberAfter(std::string_view event, std::string_view key)
{
    const std::size_t at = event.find(key);
    if (at == std::string_view::npos)
        return 0.0;
    // The event is a view into a NUL-terminated std::string and every
    // number is followed by ',' or '}', so strtod stops in bounds.
    return std::strtod(event.data() + at + key.size(), nullptr);
}

/** Total length of the union of [start, end) intervals. */
double
coveredLength(std::vector<std::pair<double, double>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double open_end = 0.0;
    bool open = false;
    for (const auto &[start, end] : intervals) {
        if (open && start <= open_end) {
            if (end > open_end) {
                covered += end - open_end;
                open_end = end;
            }
            continue;
        }
        covered += end - start;
        open_end = end;
        open = true;
    }
    return covered;
}

} // namespace

SpanTotal
TraceSummary::span(std::string_view name) const
{
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotal{} : it->second;
}

TraceSummary
summarizeChromeTrace(const std::string &json)
{
    static constexpr std::string_view kEventStart = "{\"name\":\"";
    TraceSummary summary;
    std::vector<std::pair<double, double>> materialize;
    std::set<uint32_t> unit_tids;

    std::size_t pos = 0;
    while ((pos = json.find(kEventStart, pos)) != std::string::npos) {
        const std::size_t name_begin = pos + kEventStart.size();
        const std::size_t name_end = json.find('"', name_begin);
        if (name_end == std::string::npos)
            break;
        std::size_t line_end = json.find('\n', name_end);
        if (line_end == std::string::npos)
            line_end = json.size();
        pos = line_end;

        const std::string_view event(json.data() + name_end,
                                     line_end - name_end);
        if (event.find("\"ph\":\"X\"") == std::string_view::npos)
            continue; // instants carry no duration
        const std::string_view name(json.data() + name_begin,
                                    name_end - name_begin);
        const double ts = numberAfter(event, "\"ts\":");
        const double dur = numberAfter(event, "\"dur\":");

        auto it = summary.spans.find(name);
        if (it == summary.spans.end())
            it = summary.spans.emplace(std::string(name), SpanTotal{})
                     .first;
        it->second.count++;
        it->second.total_us += dur;

        if (name == "batcher.materialize")
            materialize.emplace_back(ts, ts + dur);
        else if (name == "model.unit")
            unit_tids.insert(static_cast<uint32_t>(
                numberAfter(event, "\"tid\":")));
    }
    summary.materialize_cover_us = coveredLength(std::move(materialize));
    summary.unit_threads = static_cast<int>(unit_tids.size());
    return summary;
}

} // namespace servbench
