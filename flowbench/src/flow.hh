/**
 * @file
 * The three flow workloads, driven from outside through the public
 * functions of each MEGsim layer. Every layer call sits inside a
 * Tracer span (a no-op when tracing is off) and every output lands in
 * a Digest the caller checks.
 *
 *  - estimate-long: pvz and hwh at full length, 4 threads.
 *    BenchmarkData::activities() without a cache directory (the
 *    functional pass), MegsimPipeline::projectedFeatures() and run()
 *    (selectClustering, representativeSet), TimingSimulator on the
 *    representatives only, weighted estimate. No ground truth in the
 *    timed region.
 *  - groundtruth-cold: the 8 Table II benchmarks at a 500-frame
 *    prefix, 1 thread, fresh cache directory per iteration.
 *    GroundTruthPass produce/commit/finish as
 *    BenchmarkData::frameStats() runs it, then MegsimPipeline::run and
 *    errorPercent for all 4 metrics.
 *  - reselect-warm: the same 8 x 500 frames, 1 thread. Set-up builds
 *    the caches; the timed region probes them and reselects under 4
 *    k-means seeds.
 */

#ifndef FLOWBENCH_FLOW_HH
#define FLOWBENCH_FLOW_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/megsim.hh"
#include "gfx/trace.hh"
#include "report.hh"
#include "trace.hh"

namespace flowbench
{

/**
 * Compose benchmark @p alias: its first @p frames frames (0 keeps the
 * full length). A non-zero @p workloadSeed replaces GameSpec::seed by
 * a mix of it and the Table II seed; 0 keeps the Table II seed.
 */
msim::gfx::SceneTrace composeBenchmark(const std::string &alias,
                                       std::size_t frames,
                                       std::uint64_t workloadSeed);

/** The shape of one workload. */
struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> benches; // Table II order
    std::size_t frames = 0;           // prefix length, 0 = full
    std::size_t threads = 1;          // timed-region pool size
};

/** The known workloads, by name; nullptr when unknown. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Names of all workloads, for usage messages. */
std::vector<std::string> workloadNames();

/** What one timed iteration produced. */
struct Iteration
{
    double wall = 0.0; // seconds
    double cpu = 0.0;  // process CPU seconds
    std::size_t frames = 0;     // input frames through the region
    std::size_t selected = 0;   // frames over all selections made
    std::size_t reps = 0;       // representatives over all selections
    std::array<double, 4> worstError{}; // max over benches (and seeds)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Digest digest;
    /** reselect-warm only: the default-k-means-seed selection. */
    Digest seed0;
    /** estimate-long only: per bench, the estimated metric totals. */
    std::vector<std::array<double, 4>> estimates;
};

/** Full timing of a scene: per-metric totals and wall seconds. */
struct FullTiming
{
    std::array<double, 4> totals{};
    double wall = 0.0;
    bool ok = true;
};

class Flow
{
  public:
    /**
     * @p runSeed orders the benchmarks (and reselect-warm's k-means
     * seeds) so that outputs are checked to be order-independent;
     * @p workDir holds the cache directories the run creates.
     */
    Flow(const WorkloadSpec &spec, std::uint64_t workloadSeed,
         std::uint64_t runSeed, std::string workDir, Tracer &tracer);
    ~Flow();

    /**
     * Compose the scenes and, for reselect-warm, build the caches on
     * the current pool. Returns the wall seconds it took.
     */
    double setup();

    /** One timed iteration on the current pool. */
    Iteration iterate();

    /**
     * Cycle-level timing of every frame of every benchmark on the
     * current pool (outside the flow spans): the ground truth the
     * estimate-long estimates are scored against.
     */
    std::vector<FullTiming> fullTiming();

    /** Benchmarks in the run-seed order the iterations use. */
    std::vector<std::string> order() const;

    /** Frames whose ground truth failed in the last setup(). */
    std::uint64_t setupFailed() const { return setupFailed_; }

  private:
    struct Scene;

    bool groundTruth(const Scene &scene, msim::megsim::BenchmarkData &d,
                     Iteration &it);
    void iterateEstimate(Iteration &it);
    void iterateGroundTruth(Iteration &it, const std::string &dir);
    void iterateReselect(Iteration &it);
    std::string freshDir(const std::string &stem);

    const WorkloadSpec *spec_;
    std::uint64_t workloadSeed_;
    std::vector<std::size_t> order_; // indices into spec.benches
    std::vector<std::uint64_t> kmeansSeeds_; // run-seed order
    std::string workDir_;
    Tracer *tracer_;
    std::vector<std::unique_ptr<Scene>> scenes_; // Table II order
    std::string warmCache_; // reselect-warm: the set-up's caches
    std::size_t dirSerial_ = 0;
    std::uint64_t setupFailed_ = 0;
};

/** Size the process-wide exec::Pool (outside any timed region). */
void usePool(std::size_t threads);

/** The k-means seeds reselect-warm sweeps; index 0 is the default. */
const std::vector<std::uint64_t> &reselectSeeds();

/** The evaluation MEGsim configuration (k-means seed 0x4d4547). */
msim::megsim::MegsimConfig flowConfig();

} // namespace flowbench

#endif // FLOWBENCH_FLOW_HH
