/**
 * @file
 * flowbench: the repository benchmark of the MEGsim flow.
 *
 *   flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--workload-seed <n>]
 *
 * Run from the repository root (run.py builds this binary and does
 * so). --trace 0 sets up several times, then repeats the workload's
 * timed iteration for --seconds and prints the end-to-end metrics
 * (medians over iterations). --trace 1 runs two traced rounds, at 1
 * and 4 threads, between untraced reference iterations, and prints the
 * per-layer metrics derived from the spans; the spans are also written
 * to .bench_build/flowbench/trace/ as Chrome trace_event JSON with a
 * per-layer self-time table. Every output is checked; the last stdout
 * line is the JSON result, and the exit code is 1 when a check failed.
 * An untraced run also writes the digest it produced to
 * .bench_build/flowbench/<workload>.digest.txt; after an intended change
 * of results, copy that onto flowbench/digests/<workload>.txt.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <pthread.h>
#include <sched.h>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "flow.hh"
#include "report.hh"
#include "trace.hh"

extern char **environ;

namespace
{

using namespace flowbench;

constexpr const char *kThresholds = "ci/thresholds.json";
constexpr const char *kDigestDir = "flowbench/digests/";
constexpr const char *kWorkRoot = ".bench_build/flowbench/work/";
constexpr const char *kTraceDir = ".bench_build/flowbench/trace/";
constexpr const char *kOutDir = ".bench_build/flowbench/";
constexpr std::size_t kSetupThreads = 4;
constexpr const char *kErrorNames[4] = {
    "err_cycles_pct", "err_dram_pct", "err_l2_pct", "err_tile_pct"};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t workloadSeed = 0;
    double seconds = 10.0;
    int trace = -1;
};

int
usage(const char *why)
{
    std::fprintf(stderr, "flowbench: %s\n", why);
    std::fprintf(stderr,
                 "usage: flowbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workload-seed <n>]\n"
                 "workloads:");
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 0);
    return end != text && *end == '\0' && errno == 0 && text[0] != '-';
}

/** Every MEGSIM_* variable changes the program being measured. */
bool
environmentClean()
{
    bool clean = true;
    for (char **env = environ; *env; ++env)
        if (std::strncmp(*env, "MEGSIM_", 7) == 0) {
            const char *eq = std::strchr(*env, '=');
            std::fprintf(stderr,
                         "flowbench: refusing to run with %.*s set; it "
                         "changes the program being measured\n",
                         static_cast<int>(eq ? eq - *env
                                             : std::strlen(*env)),
                         *env);
            clean = false;
        }
    return clean;
}

/**
 * Restart the kernel's resident-set high-water mark at the current
 * resident set, after returning freed heap to the system, so that
 * peakRssMiB() covers only what follows. False if the kernel refused.
 */
bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

/** The resident-set high-water mark (VmHWM) in MiB. */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

/**
 * Moves the constructing thread round the CPUs it may run on, one CPU
 * every 200 ms, until destroyed. On a shared VM each vCPU's speed
 * drifts on its own, and a busy lone thread otherwise stays on one vCPU
 * for the whole run. On a shared 4-vCPU VM, five 30 s reselect-warm
 * runs differed by up to 31% in frames_per_s unrotated, and by 7%
 * rotated.
 */
class CpuRotation
{
  public:
    CpuRotation() : target_(pthread_self())
    {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed_))
                cpus_.push_back(c);
        if (cpus_.size() > 1)
            thread_ = std::thread([this] { rotate(); });
    }

    ~CpuRotation()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        if (!thread_.joinable())
            return;
        thread_.join();
        pthread_setaffinity_np(target_, sizeof(allowed_), &allowed_);
    }

  private:
    void
    rotate()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (std::size_t i = 0;; ++i) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus_[i % cpus_.size()], &one);
            pthread_setaffinity_np(target_, sizeof(one), &one);
            if (wake_.wait_for(lock, std::chrono::milliseconds(200),
                               [this] { return stop_; }))
                return;
        }
    }

    pthread_t target_;
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

/**
 * Size the pool. A pool of one thread runs on the calling thread, which
 * then rotates round the CPUs; a larger pool does not rotate, since
 * its threads would inherit the one CPU the caller is on at the time.
 */
void
setThreads(std::size_t threads, std::unique_ptr<CpuRotation> &rotation)
{
    rotation.reset();
    usePool(threads);
    if (threads == 1)
        rotation = std::make_unique<CpuRotation>();
}

/** Wall, CPU and steal at one instant, for the host record. */
struct HostMark
{
    double wall = wallNow();
    double cpu = cpuNow();
    double steal = stealSeconds();
};

/** Collects check failures; any failure makes the run incorrect. */
struct Checks
{
    std::vector<std::string> failures;

    void
    fail(const std::string &what)
    {
        std::fprintf(stderr, "flowbench: CHECK FAILED: %s\n",
                     what.c_str());
        failures.push_back(what);
    }

    void
    digestsEqual(const Digest &expected, const Digest &actual,
                 const std::string &what)
    {
        const std::vector<std::string> diffs =
            compareDigests(expected, actual);
        for (std::size_t i = 0; i < diffs.size() && i < 8; ++i)
            fail(what + ": " + diffs[i]);
        if (diffs.size() > 8)
            fail(what + ": " + std::to_string(diffs.size() - 8) +
                 " more differences");
    }

    void
    errorsWithin(const std::array<double, 4> &errors,
                 const std::string &what)
    {
        std::array<double, 4> limits{};
        std::string error;
        if (!readMaxErrorPercent(kThresholds, limits, error)) {
            fail(error);
            return;
        }
        char buf[160];
        for (std::size_t m = 0; m < 4; ++m)
            if (!(errors[m] <= limits[m])) {
                std::snprintf(buf, sizeof(buf),
                              "%s: %s %.6g > max_error_percent %.6g",
                              what.c_str(), kErrorNames[m], errors[m],
                              limits[m]);
                fail(buf);
            }
    }

    bool ok() const { return failures.empty(); }
};

std::string
digestPath(const std::string &workload)
{
    return kDigestDir + workload + ".txt";
}

bool
loadDigest(const std::string &workload, Digest &out, Checks &checks)
{
    std::string text;
    if (!readFile(digestPath(workload), text)) {
        checks.fail("no committed digest " + digestPath(workload));
        return false;
    }
    if (!Digest::parse(text, out)) {
        checks.fail("malformed digest " + digestPath(workload));
        return false;
    }
    return true;
}

/**
 * The checks every run makes on its first iteration: the committed
 * digest at the Table II seeds, the error thresholds, and for
 * reselect-warm every probe loaded plus the seed-0 selection equal to
 * groundtruth-cold's.
 */
void
checkOutputs(const Options &opt, const Iteration &it,
             const std::array<double, 4> &errors, Checks &checks)
{
    if (it.failed != 0)
        checks.fail(std::to_string(it.failed) + " of " +
                    std::to_string(it.attempted) +
                    " frames/probes failed");
    checks.errorsWithin(errors, opt.workload);
    if (opt.workloadSeed != 0)
        return;
    Digest reference;
    if (loadDigest(opt.workload, reference, checks))
        checks.digestsEqual(reference, it.digest,
                            opt.workload + " vs committed digest");
    if (opt.workload == "reselect-warm") {
        Digest cold;
        if (loadDigest("groundtruth-cold", cold, checks)) {
            Digest expected = cold.withSuffix(".frames");
            for (auto &line : cold.withSuffix(".weights").lines)
                expected.lines.push_back(line);
            checks.digestsEqual(expected, it.seed0,
                                "seed-0 selection vs groundtruth-cold");
        }
    }
}

/** Worst relative error of the estimate-long estimates, per metric. */
std::array<double, 4>
estimateErrors(const Iteration &it, const std::vector<FullTiming> &full,
               Checks &checks)
{
    std::array<double, 4> worst{};
    for (std::size_t b = 0; b < full.size(); ++b) {
        if (!full[b].ok) {
            checks.fail("full timing failed");
            continue;
        }
        for (std::size_t m = 0; m < 4; ++m) {
            const double truth = full[b].totals[m];
            const double err =
                truth == 0.0 ? 0.0
                             : std::fabs(it.estimates[b][m] - truth) /
                                   truth * 100.0;
            worst[m] = std::max(worst[m], err);
        }
    }
    return worst;
}

void
printHost(const Options &opt, std::size_t threads, const HostMark &from,
          std::size_t iterations)
{
    const HostMark to;
    const double wall = to.wall - from.wall;
    const double cpu = to.cpu - from.cpu;
    std::printf("flowbench host: {\"workload\": \"%s\", \"seed\": %llu, "
                "\"workload_seed\": %llu, \"nproc\": %u, \"threads\": "
                "%zu, \"iterations\": %zu, \"wall_s\": %.6f, \"cpu_s\": "
                "%.6f, \"cpu_per_wall\": %.4f, \"steal_s\": %.3f}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(opt.workloadSeed),
                std::thread::hardware_concurrency(), threads, iterations,
                wall, cpu, wall > 0.0 ? cpu / wall : 0.0,
                to.steal - from.steal);
}

std::string
workDir()
{
    return kWorkRoot + std::string("run-") + std::to_string(getpid());
}

int
finish(const Checks &checks, std::uint64_t attempted,
       std::uint64_t failed, const std::vector<MetricValue> &metrics)
{
    for (const MetricValue &m : metrics)
        if (!validMetricName(m.name) || !validUnit(m.unit)) {
            std::fprintf(stderr, "flowbench: bad metric %s [%s]\n",
                         m.name.c_str(), m.unit.c_str());
            return 2;
        }
    std::printf("%s\n", resultLine(checks.ok(), std::max<std::uint64_t>(
                                                    attempted, 1),
                                   failed, metrics)
                            .c_str());
    std::fflush(stdout);
    return checks.ok() ? 0 : 1;
}

int
runUntraced(const Options &opt, const WorkloadSpec &spec)
{
    Checks checks;
    std::unique_ptr<CpuRotation> rotation;
    Tracer off(false);
    Flow flow(spec, opt.workloadSeed, opt.seed, workDir(), off);
    const HostMark start;

    // Set-up is repeated and reported as a median; the last set-up's
    // scenes and caches feed the timed iterations.
    const std::size_t setups = spec.name == "reselect-warm" ? 3 : 5;
    std::vector<double> setupTimes;
    setThreads(kSetupThreads, rotation);
    for (std::size_t i = 0; i < setups; ++i)
        setupTimes.push_back(flow.setup());
    if (flow.setupFailed() != 0)
        checks.fail("set-up ground truth failed");

    setThreads(spec.threads, rotation);
    if (!resetPeakRss())
        std::fprintf(stderr, "flowbench: cannot reset the peak resident "
                             "set; peak_rss_mb includes set-up\n");
    std::vector<Iteration> its;
    const double t0 = wallNow();
    do {
        its.push_back(flow.iterate());
        std::fprintf(stderr,
                     "flowbench: iteration %zu: %.3f s wall, %.3f s CPU, "
                     "%.1f frames/s\n",
                     its.size(), its.back().wall, its.back().cpu,
                     static_cast<double>(its.back().frames) /
                         its.back().wall);
        if (its.size() > 1)
            checks.digestsEqual(its.front().digest, its.back().digest,
                                "iteration " +
                                    std::to_string(its.size()) +
                                    " vs iteration 1");
    } while (wallNow() - t0 < opt.seconds);
    const double peakRss = peakRssMiB();

    const Iteration &first = its.front();
    std::array<double, 4> errors = first.worstError;
    if (spec.name == "estimate-long") {
        setThreads(kSetupThreads, rotation);
        errors = estimateErrors(first, flow.fullTiming(), checks);
    }
    checkOutputs(opt, first, errors, checks);
    std::error_code ec;
    std::filesystem::create_directories(kOutDir, ec);
    std::ofstream(kOutDir + spec.name + ".digest.txt") << first.digest.str();

    std::vector<double> fps, cpu;
    std::uint64_t attempted = 0, failed = 0;
    for (const Iteration &it : its) {
        fps.push_back(static_cast<double>(it.frames) / it.wall);
        cpu.push_back(it.cpu);
        attempted += it.attempted;
        failed += it.failed;
    }
    std::vector<MetricValue> metrics = {
        {"frames_per_s", median(fps), "frames/s"},
        {"cpu_s", median(cpu), "s"},
        {"setup_s", median(setupTimes), "s"},
        {"peak_rss_mb", peakRss, "MiB"},
        {"reduction_x",
         first.reps ? static_cast<double>(first.selected) /
                          static_cast<double>(first.reps)
                    : 0.0,
         "x"},
    };
    for (std::size_t m = 0; m < 4; ++m)
        metrics.push_back({kErrorNames[m], errors[m], "%"});
    metrics.push_back(
        {"ok_ratio",
         attempted ? static_cast<double>(attempted - failed) /
                         static_cast<double>(attempted)
                   : 0.0,
         "ratio"});

    std::fprintf(stderr,
                 "flowbench: %s order %s; %zu iterations, frames/s "
                 "min %.1f median %.1f max %.1f\n",
                 spec.name.c_str(), [&] {
                     std::string s;
                     for (const std::string &b : flow.order())
                         s += (s.empty() ? "" : ",") + b;
                     return s;
                 }().c_str(),
                 its.size(), *std::min_element(fps.begin(), fps.end()),
                 median(fps), *std::max_element(fps.begin(), fps.end()));
    printHost(opt, spec.threads, start, its.size());
    return finish(checks, attempted, failed, metrics);
}

/** The per-layer metrics of one traced round at @p threads. */
void
layerMetrics(const std::vector<Span> &spans, int run,
             std::size_t threads, double uncovered, const Iteration &it,
             std::vector<MetricValue> &out)
{
    const auto totals = layerTotals(spans, run);
    const LayerTotals none;
    auto layer = [&](const char *name) -> const LayerTotals & {
        auto found = totals.find(name);
        return found == totals.end() ? none : found->second;
    };
    auto count = [&](const char *name, const char *key) {
        const LayerTotals &t = layer(name);
        auto found = t.counts.find(key);
        return found == t.counts.end() ? 0.0 : found->second;
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double t = static_cast<double>(threads);
    const std::string p = "t" + std::to_string(threads) + ".";
    auto add = [&](const std::string &name, double value,
                   const char *unit) {
        out.push_back({p + name, value, unit});
    };

    add("workloads.compose_s", layer("workloads.compose").wall, "s");

    const LayerTotals &func = layer("functional.pass");
    add("functional.wall_s", func.wall, "s");
    add("functional.cpu_s", func.cpu, "s");
    add("functional.us_per_frame",
        ratio(func.wall, count("functional.pass", "frames")) * 1e6, "us");
    add("functional.par_eff", ratio(func.cpu, func.wall * t), "ratio");

    add("features.wall_s", layer("features").wall, "s");

    const LayerTotals &sweep = layer("sweep");
    const double explored = count("sweep", "k_explored");
    const double chosen = count("sweep", "k_chosen");
    add("sweep.wall_s", sweep.wall, "s");
    add("sweep.cpu_s", sweep.cpu, "s");
    add("sweep.par_eff", ratio(sweep.cpu, sweep.wall * t), "ratio");
    add("sweep.k_explored", explored, "count");
    add("sweep.k_chosen", chosen, "count");
    add("sweep.useful_ratio", ratio(chosen, explored), "ratio");
    add("reps.count", count("sweep", "reps"), "count");

    // The timing layer: its wall time is when any thread was timing a
    // frame; its CPU is the process CPU of the representative timing
    // and of the ground-truth pool jobs, minus the caller thread's CPU
    // in the ordered commits.
    const LayerTotals &frames = layer("timing.frame");
    const double timingWall = openSeconds(spans, run, "timing.frame");
    const double timingCpu = layer("timing.reps").cpu +
                             layer("gt.pass").cpu - layer("gt.commit").cpu;
    const double cycles = count("timing.frame", "sim_cycles");
    add("timing.wall_s", timingWall, "s");
    add("timing.cpu_s", timingCpu, "s");
    add("timing.frames", static_cast<double>(frames.spans), "count");
    add("timing.us_per_frame",
        ratio(frames.wall, static_cast<double>(frames.spans)) * 1e6, "us");
    add("timing.sim_mcycles_per_s", ratio(cycles, timingWall) / 1e6,
        "Mcycles/s");
    add("timing.sim_cycles", cycles, "count");
    add("timing.dram_accesses", count("timing.frame", "dram_accesses"),
        "count");
    add("timing.l2_accesses", count("timing.frame", "l2_accesses"),
        "count");
    add("timing.tile_accesses", count("timing.frame", "tile_accesses"),
        "count");

    add("gt.commit_s", layer("gt.commit").wall, "s");
    add("gt.finish_s", layer("gt.finish").wall, "s");
    const LayerTotals &probe = layer("cache.probe");
    add("cache.load_s", probe.wall, "s");
    add("cache.hit_ratio",
        ratio(count("cache.probe", "loaded"),
              static_cast<double>(probe.spans)),
        "ratio");
    add("foldback.wall_s", layer("foldback").wall, "s");

    // Flow vs full timing of the same frames, per estimate-long bench.
    for (const char *bench : {"pvz", "hwh"}) {
        double flowWall = 0.0, fullWall = 0.0;
        for (const Span &span : spans) {
            if (span.run != run || span.tag != bench)
                continue;
            if (span.name == "full.timing")
                fullWall += span.wall();
            else if (span.parent < 0 && span.name != "workloads.compose")
                flowWall += span.wall();
        }
        add(std::string("flow.speedup_vs_full_x.") + bench,
            fullWall > 0.0 ? ratio(fullWall, flowWall) : 0.0, "x");
    }

    add("trace.uncovered_s", uncovered, "s");
    add("frames_per_s", ratio(static_cast<double>(it.frames), it.wall),
        "frames/s");
}

int
runTraced(const Options &opt, const WorkloadSpec &spec)
{
    Checks checks;
    std::unique_ptr<CpuRotation> rotation;
    const HostMark start;
    std::uint64_t attempted = 0, failed = 0;

    // Untraced reference iterations at the workload's own thread
    // count, one after a warm-up and one after the traced rounds, so
    // the tracing overhead is not confused with warm-up or drift.
    Tracer tracer(false);
    Flow flow(spec, opt.workloadSeed, opt.seed, workDir(), tracer);
    std::vector<Iteration> reference;
    auto untraced = [&] {
        tracer.setEnabled(false);
        setThreads(spec.threads, rotation);
        reference.push_back(flow.iterate());
        attempted += reference.back().attempted;
        failed += reference.back().failed;
    };
    setThreads(spec.threads, rotation);
    flow.setup();
    (void)flow.iterate(); // warm-up
    untraced();

    std::vector<MetricValue> metrics;
    std::vector<std::string> runNames;
    std::string tables;
    double tracedFps = 0.0;
    const std::size_t rounds[2] = {1, 4};
    for (int r = 0; r < 2; ++r) {
        const std::size_t threads = rounds[r];
        tracer.setEnabled(true);
        tracer.setRun(r);
        setThreads(threads, rotation);
        const double begin = wallNow();
        flow.setup();
        if (flow.setupFailed() != 0)
            checks.fail("set-up ground truth failed");
        const Iteration it = flow.iterate();
        std::array<double, 4> errors = it.worstError;
        if (spec.name == "estimate-long")
            errors = estimateErrors(it, flow.fullTiming(), checks);
        const double end = wallNow();
        attempted += it.attempted;
        failed += it.failed;

        const std::string label = std::to_string(threads) + " thread" +
                                  (threads == 1 ? "" : "s");
        checkOutputs(opt, it, errors, checks);
        checks.digestsEqual(reference.front().digest, it.digest,
                            "traced at " + label + " vs untraced");
        if (threads == spec.threads)
            tracedFps = static_cast<double>(it.frames) / it.wall;

        const double uncovered =
            uncoveredSeconds(tracer.spans(), r, begin, end);
        layerMetrics(tracer.spans(), r, threads, uncovered, it, metrics);
        runNames.push_back(spec.name + " @ " + label);
        char line[96];
        std::snprintf(line, sizeof(line),
                      "uncovered by any span: %.6f s of %.6f s\n",
                      uncovered, end - begin);
        tables += "# " + runNames.back() + "\n" +
                  selfTimeTable(layerTotals(tracer.spans(), r)) + line +
                  "\n";
    }

    untraced();
    double untracedFps = 0.0;
    for (const Iteration &it : reference) {
        untracedFps += static_cast<double>(it.frames) / it.wall /
                       static_cast<double>(reference.size());
        checks.digestsEqual(reference.front().digest, it.digest,
                            "untraced reference iterations");
    }
    const HostMark stop;
    metrics.push_back({"trace.overhead_pct",
                       (untracedFps - tracedFps) / untracedFps * 100.0,
                       "%"});
    metrics.push_back({"fail_ratio",
                       attempted ? static_cast<double>(failed) /
                                       static_cast<double>(attempted)
                                 : 0.0,
                       "ratio"});
    metrics.push_back(
        {"host.nproc",
         static_cast<double>(std::thread::hardware_concurrency()),
         "count"});
    metrics.push_back({"host.steal_s", stop.steal - start.steal, "s"});
    metrics.push_back({"host.cpu_per_wall",
                       (stop.cpu - start.cpu) / (stop.wall - start.wall),
                       "ratio"});

    std::error_code ec;
    std::filesystem::create_directories(kTraceDir, ec);
    const std::string stem = kTraceDir + spec.name + "-seed" +
                             std::to_string(opt.seed);
    std::ofstream(stem + ".trace.json")
        << chromeTraceJson(tracer.spans(), runNames);
    std::ofstream(stem + ".selftime.txt") << tables;
    std::fprintf(stderr, "%sflowbench: trace written to %s.trace.json\n",
                 tables.c_str(), stem.c_str());

    printHost(opt, spec.threads, start, 5);
    return finish(checks, attempted, failed, metrics);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = value();
        if (!v)
            return usage(("missing value for " + arg).c_str());
        std::uint64_t n = 0;
        if (arg == "--workload") {
            opt.workload = v;
        } else if (arg == "--seed" && parseUnsigned(v, n)) {
            opt.seed = n;
        } else if (arg == "--workload-seed" && parseUnsigned(v, n)) {
            opt.workloadSeed = n;
        } else if (arg == "--seconds") {
            opt.seconds = std::atof(v);
        } else if (arg == "--trace" && (std::strcmp(v, "0") == 0 ||
                                        std::strcmp(v, "1") == 0)) {
            opt.trace = v[0] - '0';
        } else {
            return usage(("bad argument " + arg + " " + v).c_str());
        }
    }
    const WorkloadSpec *spec = findWorkload(opt.workload);
    if (!spec)
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    if (opt.trace < 0 || !(opt.seconds > 0.0))
        return usage("--trace and a positive --seconds are required");
    if (!environmentClean())
        return 2;
    return opt.trace ? runTraced(opt, *spec) : runUntraced(opt, *spec);
}
