#include "obs/trace.hh"

#include <cstdlib>
#include <cstring>

namespace msim::obs
{

const char *
traceCategoryName(TraceCategory cat)
{
    switch (cat) {
      case TraceCategory::Stage: return "stage";
      case TraceCategory::Queue: return "queue";
      case TraceCategory::Cache: return "cache";
      case TraceCategory::Dram: return "dram";
      case TraceCategory::Frame: return "frame";
      case TraceCategory::Phase: return "phase";
    }
    return "?";
}

ObsConfig
ObsConfig::fromEnv()
{
    ObsConfig config;
    if (const char *env = std::getenv("MEGSIM_TRACE"))
        config.traceEnabled = env[0] && std::strcmp(env, "0") != 0;
    if (const char *env = std::getenv("MEGSIM_TRACE_CAPACITY")) {
        const long long n = std::atoll(env);
        if (n > 0)
            config.traceCapacity = static_cast<std::size_t>(n);
    }
    if (const char *env = std::getenv("MEGSIM_STATS_DUMP")) {
        if (env[0] && std::strcmp(env, "0") != 0)
            config.statsDump = std::strcmp(env, "1") ? env : "*";
    }
    return config;
}

TraceBuffer::TraceBuffer(const ObsConfig &config)
    : capacity_(config.traceCapacity ? config.traceCapacity : 1)
{
    setEnabled(config.traceEnabled);
}

void
TraceBuffer::forEach(
    const std::function<void(const TraceEvent &)> &fn) const
{
    const std::size_t n = size();
    if (n == 0)
        return;
    const std::size_t first =
        emitted_ < ring_.size()
            ? 0
            : static_cast<std::size_t>(emitted_ % ring_.size());
    for (std::size_t i = 0; i < n; ++i)
        fn(ring_[(first + i) % ring_.size()]);
}

std::vector<TraceEvent>
TraceBuffer::snapshot() const
{
    std::vector<TraceEvent> events;
    events.reserve(size());
    forEach([&](const TraceEvent &e) { events.push_back(e); });
    return events;
}

} // namespace msim::obs
