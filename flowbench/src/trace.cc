#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

namespace flowbench
{

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

Tracer::Scope::Scope(Tracer &tracer, std::string name, std::string tag,
                     bool threadClock)
    : tracer_(&tracer), threadClock_(threadClock)
{
    if (!tracer.enabled_)
        return;
    Span span;
    span.name = std::move(name);
    span.tag = std::move(tag);
    span.run = tracer.run_;
    span.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
    index_ = static_cast<int>(tracer.spans_.size());
    tracer.spans_.push_back(std::move(span));
    tracer.open_.push_back(index_);
    cpuStart_ = threadClock ? threadCpuNow() : cpuNow();
    tracer.spans_[index_].start = wallNow();
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Span &span = tracer_->spans_[index_];
    span.end = wallNow();
    span.cpu = (threadClock_ ? threadCpuNow() : cpuNow()) - cpuStart_;
    tracer_->open_.pop_back();
}

void
Tracer::Scope::count(const std::string &key, double value)
{
    if (index_ < 0)
        return;
    tracer_->spans_[index_].counts.emplace_back(key, value);
}

void
Tracer::beginJob(std::size_t workers)
{
    if (!enabled_)
        return;
    jobParent_ = open_.empty() ? -1 : open_.back();
    workerSpans_.assign(workers, {});
}

void
Tracer::record(std::size_t worker, Span span)
{
    if (!enabled_)
        return;
    span.run = run_;
    span.track = worker;
    if (worker == 0) {
        span.parent = open_.empty() ? -1 : open_.back();
        spans_.push_back(std::move(span));
    } else {
        span.parent = jobParent_;
        workerSpans_[worker].push_back(std::move(span));
    }
}

void
Tracer::merge()
{
    for (std::vector<Span> &buffer : workerSpans_) {
        for (Span &span : buffer)
            spans_.push_back(std::move(span));
        buffer.clear();
    }
    jobParent_ = -1;
}

namespace
{

using Interval = std::pair<double, double>;

/** Length of the union of @p intervals clipped to [lo, hi]. */
double
coveredLength(std::vector<Interval> intervals, double lo, double hi)
{
    for (Interval &iv : intervals) {
        iv.first = std::max(iv.first, lo);
        iv.second = std::min(iv.second, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = lo;
    for (const Interval &iv : intervals) {
        const double from = std::max(iv.first, reach);
        if (iv.second > from) {
            covered += iv.second - from;
            reach = iv.second;
        }
    }
    return covered;
}

} // namespace

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<Interval>> children(spans.size());
    for (const Span &span : spans)
        if (span.parent >= 0 &&
            static_cast<std::size_t>(span.parent) < spans.size())
            children[span.parent].emplace_back(span.start, span.end);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].wall() -
                  coveredLength(std::move(children[i]), spans[i].start,
                                spans[i].end);
    return self;
}

std::map<std::string, LayerTotals>
layerTotals(const std::vector<Span> &spans, int run)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, LayerTotals> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        if (run >= 0 && span.run != run)
            continue;
        LayerTotals &t = totals[span.name];
        ++t.spans;
        t.wall += span.wall();
        t.self += self[i];
        t.cpu += span.cpu;
        for (const auto &[key, value] : span.counts)
            t.counts[key] += value;
    }
    return totals;
}

double
openSeconds(const std::vector<Span> &spans, int run,
            const std::string &name)
{
    std::vector<Interval> open;
    double lo = 0.0, hi = 0.0;
    for (const Span &span : spans) {
        if (span.run != run || span.name != name)
            continue;
        if (open.empty() || span.start < lo)
            lo = span.start;
        if (open.empty() || span.end > hi)
            hi = span.end;
        open.emplace_back(span.start, span.end);
    }
    return coveredLength(std::move(open), lo, hi);
}

double
uncoveredSeconds(const std::vector<Span> &spans, int run, double begin,
                 double end)
{
    std::vector<Interval> roots;
    for (const Span &span : spans)
        if (span.parent < 0 && span.run == run)
            roots.emplace_back(span.start, span.end);
    return (end - begin) - coveredLength(std::move(roots), begin, end);
}

namespace
{

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
}

} // namespace

std::string
chromeTraceJson(const std::vector<Span> &spans,
                const std::vector<std::string> &runNames)
{
    double origin = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (i == 0 || spans[i].start < origin)
            origin = spans[i].start;

    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[128];
    bool first = true;
    for (std::size_t r = 0; r < runNames.size(); ++r) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"process_name\",\"ph\":\"M\","
                      "\"pid\":%zu,\"args\":{\"name\":\"",
                      first ? "" : ",", r);
        out += buf;
        appendEscaped(out, runNames[r]);
        out += "\"}}";
        first = false;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        out += first ? "{" : ",{";
        first = false;
        out += "\"name\":\"";
        appendEscaped(out, span.name);
        std::snprintf(buf, sizeof(buf),
                      "\",\"ph\":\"X\",\"pid\":%d,\"tid\":%zu,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                      span.run, span.track,
                      (span.start - origin) * 1e6, span.wall() * 1e6);
        out += buf;
        std::snprintf(buf, sizeof(buf),
                      "\"span\":%zu,\"parent\":%d,\"cpu_s\":%.9g", i,
                      span.parent, span.cpu);
        out += buf;
        if (!span.tag.empty()) {
            out += ",\"tag\":\"";
            appendEscaped(out, span.tag);
            out += "\"";
        }
        for (const auto &[key, value] : span.counts) {
            out += ",\"";
            appendEscaped(out, key);
            std::snprintf(buf, sizeof(buf), "\":%.17g", value);
            out += buf;
        }
        out += "}}";
    }
    out += "]}\n";
    return out;
}

std::string
selfTimeTable(const std::map<std::string, LayerTotals> &totals)
{
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-20s %8s %12s %12s %12s\n",
                  "layer", "spans", "wall_s", "self_s", "cpu_s");
    out += buf;
    for (const auto &[name, t] : totals) {
        std::snprintf(buf, sizeof(buf),
                      "%-20s %8zu %12.6f %12.6f %12.6f\n", name.c_str(),
                      t.spans, t.wall, t.self, t.cpu);
        out += buf;
    }
    return out;
}

} // namespace flowbench
