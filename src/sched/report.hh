/**
 * @file
 * The concurrent-load serving report — BENCH_serve.json. One row per
 * (workers × concurrent requests) point of the bench/serve matrix:
 * batch makespan, aggregate requests/s, and the p50/p95 of the
 * per-request latency (queue wait + service). The report also carries
 * the FIFO-vs-fair A/B at the contended point — the acceptance
 * criterion's fair_speedup — under the `megsim-serve-v1` schema, and
 * compares warn-only against a committed baseline exactly like the
 * perf trajectory (wall clocks are machine-dependent; wide band).
 */

#ifndef MSIM_SCHED_REPORT_HH
#define MSIM_SCHED_REPORT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "resilience/expected.hh"
#include "util/json.hh"

namespace msim::sched
{

/** One point of the load matrix. */
struct ServeLoadPoint
{
    std::size_t workers = 0;
    std::size_t requests = 0;
    std::string policy;
    double makespanSeconds = 0.0;
    double requestsPerSec = 0.0;
    double p50LatencySeconds = 0.0;
    double p95LatencySeconds = 0.0;
};

struct ServeReport
{
    static constexpr const char *kSchema = "megsim-serve-v1";

    // Run parameters (so two reports are known comparable).
    std::size_t frameLimit = 0;
    std::size_t shardFrames = 0;

    std::vector<ServeLoadPoint> points;

    // FIFO-vs-fair A/B at the contended 4-worker × 4-request point.
    double fifoRequestsPerSec = 0.0;
    double fairRequestsPerSec = 0.0;
    /** fair / fifo aggregate throughput; the ≥1.5× criterion. */
    double fairSpeedup = 0.0;

    util::Json toJson() const;
    static resilience::Expected<ServeReport>
    fromJson(const util::Json &json);

    resilience::Expected<void> save(const std::string &path) const;
    static resilience::Expected<ServeReport>
    load(const std::string &path);
};

/**
 * One out-of-band deviation between two serve reports — the
 * structured form both the warn-only and the strict (--strict,
 * exit 10) comparison paths consume. A point with missingBaseline set
 * carries no delta and is informational only: matrix points present
 * on one side never fail a gate.
 */
struct ServeDelta
{
    std::string what; // point label or "fair speedup"
    double current = 0.0;
    double baseline = 0.0;
    double deltaPercent = 0.0;
    bool missingBaseline = false;
};

/**
 * Every matrix point (matched by workers×requests×policy) whose
 * requests/s deviates from @p baseline by more than @p bandPercent,
 * plus the fair speedup. Empty = within the band.
 */
std::vector<ServeDelta> compareServeDeltas(const ServeReport &current,
                                           const ServeReport &baseline,
                                           double bandPercent);

/** compareServeDeltas() rendered as ready-to-print warning lines. */
std::vector<std::string> compareServeReports(
    const ServeReport &current, const ServeReport &baseline,
    double bandPercent);

} // namespace msim::sched

#endif // MSIM_SCHED_REPORT_HH
