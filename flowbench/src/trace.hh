/**
 * @file
 * In-memory span recorder of the flow benchmark. Spans are recorded
 * only from the benchmark's own code, around each call into a MEGsim
 * layer: name, start, end, parent span, round id, an optional tag (the
 * benchmark alias) and named counts taken at the same boundary. Spans
 * stay in memory until the run ends, when they are written as Chrome
 * trace_event JSON plus a per-layer self-time table.
 *
 * The caller thread records on track 0 with a stack of open spans;
 * exec::Pool workers record finished spans on their own track (worker
 * w writes only its own buffer) and merge() folds those buffers in
 * after the pool job. A disabled tracer records nothing, so the
 * untraced end-to-end runs pay one branch per layer call.
 */

#ifndef FLOWBENCH_TRACE_HH
#define FLOWBENCH_TRACE_HH

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace flowbench
{

/** Monotonic wall seconds (steady_clock). */
double wallNow();

/** Process CPU seconds, all threads (CLOCK_PROCESS_CPUTIME_ID). */
double cpuNow();

/** CPU seconds of the calling thread (CLOCK_THREAD_CPUTIME_ID). */
double threadCpuNow();

struct Span
{
    std::string name;
    std::string tag;
    double start = 0.0; // wall seconds
    double end = 0.0;
    // CPU seconds inside: the process's, or the caller thread's for a
    // thread-clock scope; 0 on worker tracks.
    double cpu = 0.0;
    int parent = -1;  // index of the parent span, -1 for a root
    int run = 0;
    std::size_t track = 0;
    std::vector<std::pair<std::string, double>> counts;

    double wall() const { return end - start; }
};

/** Per-layer totals over a set of spans. */
struct LayerTotals
{
    std::size_t spans = 0;
    double wall = 0.0;
    double self = 0.0;
    double cpu = 0.0;
    std::map<std::string, double> counts;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    void setRun(int run) { run_ = run; }

    /**
     * RAII span on the caller track; a no-op when disabled. A
     * @p threadClock scope charges only the caller thread's CPU, for
     * work done on the caller while pool workers keep running.
     */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name, std::string tag = {},
              bool threadClock = false);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Add @p value to the span's count @p key. */
        void count(const std::string &key, double value);

      private:
        Tracer *tracer_;
        int index_ = -1;
        bool threadClock_;
        double cpuStart_ = 0.0;
    };

    /**
     * Size the worker buffers for a pool job of @p workers threads
     * and remember the open caller span as the parent of every worker
     * span recorded until merge().
     */
    void beginJob(std::size_t workers);

    /**
     * Record a finished span from pool worker @p worker. Worker 0 is
     * the caller thread and records straight onto track 0; others
     * write only their own buffer.
     */
    void record(std::size_t worker, Span span);

    /** Fold the worker buffers in (caller thread, after the job). */
    void merge();

    const std::vector<Span> &spans() const { return spans_; }

  private:
    friend class Scope;

    bool enabled_;
    int run_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_; // caller-track stack of open spans
    int jobParent_ = -1;
    std::vector<std::vector<Span>> workerSpans_;
};

/**
 * Self time of every span: its duration minus the part of that
 * interval its child spans cover (children on any track; overlapping
 * children count once).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Totals per span name over the spans of round @p run (-1 = all). */
std::map<std::string, LayerTotals>
layerTotals(const std::vector<Span> &spans, int run = -1);

/**
 * Wall seconds during which at least one span named @p name of round
 * @p run was open, on any track.
 */
double openSeconds(const std::vector<Span> &spans, int run,
                   const std::string &name);

/**
 * Wall seconds of [begin, end] that no root span of round @p run
 * covers.
 */
double uncoveredSeconds(const std::vector<Span> &spans, int run,
                        double begin, double end);

/** Chrome trace_event JSON (one tid per track, µs timestamps). */
std::string chromeTraceJson(const std::vector<Span> &spans,
                            const std::vector<std::string> &runNames);

/** Fixed-width per-layer table: spans, wall, self, CPU seconds. */
std::string selfTimeTable(const std::map<std::string, LayerTotals> &t);

} // namespace flowbench

#endif // FLOWBENCH_TRACE_HH
