/**
 * @file
 * Low-overhead pipeline trace-event layer.
 *
 * Units emit interval events (stage activations, queue stalls, cache
 * misses, DRAM transactions) into a fixed-capacity ring buffer; the
 * exporters in trace_export.hh turn the buffer into Chrome
 * `trace_event` JSON (chrome://tracing / Perfetto, Daisen-style) or
 * CSV.
 *
 * Tracing is off by default. It is enabled per run with the
 * MEGSIM_TRACE environment variable (or programmatically through
 * ObsConfig), and the emit fast path when disabled is a single
 * predictable branch. Defining MSIM_OBS_NO_TRACE at build time
 * compiles emission out entirely.
 *
 * Event names must be string literals (or otherwise outlive the
 * buffer): events store `const char *` to keep emission allocation-
 * free.
 */

#ifndef MSIM_OBS_TRACE_HH
#define MSIM_OBS_TRACE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace msim::obs
{

enum class TraceCategory : std::uint8_t {
    Stage,  // a pipeline stage working on a batch (draw, tile, ...)
    Queue,  // backpressure: producer stalled on a full queue
    Cache,  // cache miss being filled
    Dram,   // a DRAM transaction occupying bank + channel
    Frame,  // whole-frame marker
    Phase,  // coarse pipeline phase (geometry / tiling / raster)
};

const char *traceCategoryName(TraceCategory cat);

struct TraceEvent
{
    const char *name;        // static string; never owned
    TraceCategory category;
    std::uint32_t frame;     // frame index the event belongs to
    sim::Tick begin;         // cycles
    sim::Tick end;           // cycles (== begin for instants)
    std::uint64_t arg;       // payload: count / bytes / address
};

/** Observability knobs, normally read from the environment once. */
struct ObsConfig
{
    bool traceEnabled = false;
    std::size_t traceCapacity = 1 << 16;
    /** Glob for a post-frame registry dump to stderr; empty = off. */
    std::string statsDump;

    /**
     * MEGSIM_TRACE=1 enables tracing, MEGSIM_TRACE_CAPACITY sets the
     * ring size, MEGSIM_STATS_DUMP=<glob|1> enables the per-frame
     * stats dump ("1" means "*").
     */
    static ObsConfig fromEnv();
};

class TraceBuffer
{
  public:
    TraceBuffer() : TraceBuffer(ObsConfig()) {}
    explicit TraceBuffer(const ObsConfig &config);

    bool enabled() const { return enabled_; }

    /** The ring is allocated on first enable: a disabled buffer (every
     *  timing simulator's, by default) holds no events and no memory. */
    void
    setEnabled(bool on)
    {
        if (on && ring_.empty())
            ring_.resize(capacity_);
        enabled_ = on;
    }

    std::size_t capacity() const { return capacity_; }

    /** Record an interval event; keeps the most recent `capacity`. */
    void
    emit(const char *name, TraceCategory cat, std::uint32_t frame,
         sim::Tick begin, sim::Tick end, std::uint64_t arg = 0)
    {
#ifdef MSIM_OBS_NO_TRACE
        (void)name; (void)cat; (void)frame;
        (void)begin; (void)end; (void)arg;
#else
        if (!enabled_) [[likely]]
            return;
        ring_[emitted_ % ring_.size()] =
            TraceEvent{name, cat, frame, begin, end, arg};
        ++emitted_;
#endif
    }

    void
    instant(const char *name, TraceCategory cat, std::uint32_t frame,
            sim::Tick at, std::uint64_t arg = 0)
    {
        emit(name, cat, frame, at, at, arg);
    }

    /** Number of events currently retained. */
    std::size_t
    size() const
    {
        return emitted_ < ring_.size()
                   ? static_cast<std::size_t>(emitted_)
                   : ring_.size();
    }

    std::uint64_t emittedCount() const { return emitted_; }

    /** Events that fell off the ring. */
    std::uint64_t
    droppedCount() const
    {
        return emitted_ < ring_.size() ? 0 : emitted_ - ring_.size();
    }

    void clear() { emitted_ = 0; }

    /** Visit retained events oldest-first. */
    void forEach(const std::function<void(const TraceEvent &)> &fn)
        const;

    std::vector<TraceEvent> snapshot() const;

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> ring_; // capacity_ events once enabled
    std::uint64_t emitted_ = 0;
    bool enabled_ = false;
};

} // namespace msim::obs

#endif // MSIM_OBS_TRACE_HH
