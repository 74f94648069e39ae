#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

namespace anaheim::obs {

namespace detail {

namespace {

bool
envTraceDefault()
{
    const char *env = std::getenv("ANAHEIM_TRACE");
    if (env == nullptr)
        return false;
    return std::strcmp(env, "0") != 0 && std::strcmp(env, "") != 0 &&
           std::strcmp(env, "off") != 0 && std::strcmp(env, "false") != 0;
}

} // namespace

std::atomic<bool> gTracingEnabled{envTraceDefault()};

} // namespace detail

void
setTracingEnabled(bool enabled)
{
    detail::gTracingEnabled.store(enabled, std::memory_order_relaxed);
}

/** Per-thread span buffer. Only its owning thread appends; the mutex
 *  exists so snapshot readers can race-free copy while the owner keeps
 *  writing — for the owner it is always uncontended. */
struct TraceCollector::ThreadBuffer {
    mutable std::mutex mutex;
    std::vector<HostSpan> spans;
    uint32_t tid = 0;
    uint32_t depth = 0;
};

namespace {

using ThreadBuffer = TraceCollector::ThreadBuffer;

struct CollectorState {
    mutable std::mutex mutex;
    /** Buffers outlive their threads (worker pools tear down and
     *  respawn); the collector owns them for the process lifetime. */
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    std::vector<std::pair<uint32_t, GanttEntry>> simTimeline;
    std::vector<std::string> runNames;
};

CollectorState &
state()
{
    static CollectorState *s = new CollectorState(); // never destroyed:
    // worker threads may record spans during process teardown.
    return *s;
}

std::chrono::steady_clock::time_point
epoch()
{
    static const auto e = std::chrono::steady_clock::now();
    return e;
}

} // namespace

TraceCollector &
TraceCollector::global()
{
    static TraceCollector collector;
    (void)epoch(); // pin the epoch at first collector touch
    return collector;
}

double
TraceCollector::nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch())
        .count();
}

TraceCollector::ThreadBuffer &
TraceCollector::localBuffer()
{
    thread_local ThreadBuffer *buffer = [] {
        auto owned = std::make_unique<ThreadBuffer>();
        ThreadBuffer *raw = owned.get();
        CollectorState &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        raw->tid = static_cast<uint32_t>(s.buffers.size());
        s.buffers.push_back(std::move(owned));
        return raw;
    }();
    return *buffer;
}

uint32_t
TraceCollector::beginRun(const std::string &name)
{
    CollectorState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.runNames.push_back(name);
    return static_cast<uint32_t>(s.runNames.size() - 1);
}

void
TraceCollector::recordTimeline(uint32_t runId,
                               const std::vector<GanttEntry> &entries)
{
    CollectorState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    for (const GanttEntry &entry : entries)
        s.simTimeline.emplace_back(runId, entry);
}

std::vector<HostSpan>
TraceCollector::hostSpans() const
{
    CollectorState &s = state();
    std::vector<const ThreadBuffer *> buffers;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        for (const auto &buffer : s.buffers)
            buffers.push_back(buffer.get());
    }
    std::vector<HostSpan> all;
    for (const ThreadBuffer *buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const HostSpan &a, const HostSpan &b) {
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         return a.startUs < b.startUs;
                     });
    return all;
}

std::vector<std::pair<uint32_t, GanttEntry>>
TraceCollector::simTimeline() const
{
    CollectorState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.simTimeline;
}

std::vector<std::string>
TraceCollector::runNames() const
{
    CollectorState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.runNames;
}

void
TraceCollector::clear()
{
    CollectorState &s = state();
    std::vector<ThreadBuffer *> buffers;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.simTimeline.clear();
        s.runNames.clear();
        for (const auto &buffer : s.buffers)
            buffers.push_back(buffer.get());
    }
    for (ThreadBuffer *buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        buffer->spans.clear();
    }
}

void
ScopedSpan::open(const char *name)
{
    ThreadBuffer &buffer = TraceCollector::localBuffer();
    name_ = name;
    depth_ = buffer.depth++;
    startUs_ = TraceCollector::nowUs();
}

void
ScopedSpan::close()
{
    const double endUs = TraceCollector::nowUs();
    ThreadBuffer &buffer = TraceCollector::localBuffer();
    buffer.depth = depth_; // unwind nesting even if disabled mid-span
    HostSpan span;
    span.name = name_;
    span.tid = buffer.tid;
    span.depth = depth_;
    span.startUs = startUs_;
    span.durUs = endUs - startUs_;
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.spans.push_back(span);
}

} // namespace anaheim::obs
