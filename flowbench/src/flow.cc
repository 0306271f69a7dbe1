#include "flow.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "exec/pool.hh"
#include "gpusim/timing_simulator.hh"
#include "sim/random.hh"
#include "workloads/workloads.hh"

namespace flowbench
{

using namespace msim;

namespace
{

constexpr std::size_t kMetrics = 4;

const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"estimate-long", {"pvz", "hwh"}, 0, 4},
        {"groundtruth-cold", workloads::benchmarkNames(), 500, 1},
        {"reselect-warm", workloads::benchmarkNames(), 500, 1},
    };
    return specs;
}

gpusim::GpuConfig
gpuConfig()
{
    return gpusim::GpuConfig::evaluationScaled();
}

std::vector<double>
asDoubles(const std::vector<std::size_t> &values)
{
    return {values.begin(), values.end()};
}

std::vector<double>
asVector(const std::array<double, kMetrics> &values)
{
    return {values.begin(), values.end()};
}

/** A finished "timing.frame" span carrying the simulated counts. */
Span
frameSpan(const std::string &tag, double start,
          const gpusim::FrameStats &stats)
{
    Span span;
    span.name = "timing.frame";
    span.tag = tag;
    span.start = start;
    span.end = wallNow();
    span.counts = {
        {"sim_cycles", static_cast<double>(stats.cycles)},
        {"dram_accesses", static_cast<double>(stats.dramAccesses)},
        {"l2_accesses", static_cast<double>(stats.l2Accesses)},
        {"tile_accesses", static_cast<double>(stats.tileCacheAccesses)},
    };
    return span;
}

/** Append per-bench digests in Table II order, whatever the run order. */
void
mergeParts(Digest &digest, std::vector<Digest> &parts)
{
    for (Digest &part : parts)
        for (auto &line : part.lines)
            digest.lines.push_back(std::move(line));
}

void
foldWorst(Iteration &it, const std::array<double, kMetrics> &errors)
{
    for (std::size_t m = 0; m < kMetrics; ++m)
        it.worstError[m] = std::max(it.worstError[m], errors[m]);
}

/**
 * MegsimPipeline::run with k-means seed @p seed (0 keeps the
 * configured one) in a "sweep" span.
 */
megsim::MegsimRun
select(Tracer &tr, megsim::MegsimPipeline &pipeline,
       const std::string &alias, std::uint64_t seed, Iteration &it)
{
    Tracer::Scope span(tr, "sweep", alias);
    megsim::MegsimRun run = pipeline.run(seed);
    span.count("k_explored",
               static_cast<double>(run.selection.trace.size()));
    span.count("k_chosen", static_cast<double>(run.selection.chosen().k));
    span.count("reps", static_cast<double>(run.numRepresentatives()));
    it.selected += run.numFrames;
    it.reps += run.numRepresentatives();
    return run;
}

/** select(), then errorPercent of every metric in a "foldback" span. */
megsim::MegsimRun
selectAndFold(Tracer &tr, megsim::MegsimPipeline &pipeline,
              const std::string &alias, std::uint64_t seed, Iteration &it,
              std::array<double, kMetrics> &errors)
{
    megsim::MegsimRun run = select(tr, pipeline, alias, seed, it);
    {
        Tracer::Scope span(tr, "foldback", alias);
        for (std::size_t m = 0; m < kMetrics; ++m)
            errors[m] =
                pipeline.errorPercent(run, static_cast<gpusim::Metric>(m));
    }
    foldWorst(it, errors);
    return run;
}

} // namespace

gfx::SceneTrace
composeBenchmark(const std::string &alias, std::size_t frames,
                 std::uint64_t workloadSeed)
{
    workloads::GameSpec spec = workloads::benchmarkSpec(alias);
    if (frames != 0 && frames < spec.frames)
        spec.frames = frames;
    if (workloadSeed != 0)
        spec.seed = sim::hashMix(workloadSeed, spec.seed);
    return workloads::SceneComposer(spec).compose();
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : allWorkloads())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &spec : allWorkloads())
        names.push_back(spec.name);
    return names;
}

const std::vector<std::uint64_t> &
reselectSeeds()
{
    // 0 keeps the configured seed; the others are Table IV's.
    static const std::vector<std::uint64_t> seeds = {
        0, 0xC0FFEE, 0xC0FFEE + 7919, 0xC0FFEE + 2 * 7919};
    return seeds;
}

megsim::MegsimConfig
flowConfig()
{
    megsim::MegsimConfig config;
    config.selector.threshold = 0.85;
    config.selector.kmeans.seed = 0x4d4547; // "MEG"
    return config;
}

struct Flow::Scene
{
    std::string alias;
    gfx::SceneTrace scene;
};

Flow::Flow(const WorkloadSpec &spec, std::uint64_t workloadSeed,
           std::uint64_t runSeed, std::string workDir, Tracer &tracer)
    : spec_(&spec), workloadSeed_(workloadSeed),
      kmeansSeeds_(reselectSeeds()), workDir_(std::move(workDir)),
      tracer_(&tracer)
{
    for (std::size_t i = 0; i < spec.benches.size(); ++i)
        order_.push_back(i);
    sim::Rng rng(sim::hashMix(runSeed, 0x6f72646572));
    for (std::size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[rng.below(i)]);
    for (std::size_t i = kmeansSeeds_.size(); i > 1; --i)
        std::swap(kmeansSeeds_[i - 1], kmeansSeeds_[rng.below(i)]);
}

Flow::~Flow()
{
    std::error_code ec;
    std::filesystem::remove_all(workDir_, ec);
}

std::vector<std::string>
Flow::order() const
{
    std::vector<std::string> names;
    for (std::size_t i : order_)
        names.push_back(spec_->benches[i]);
    return names;
}

std::string
Flow::freshDir(const std::string &stem)
{
    const std::string dir =
        workDir_ + "/" + stem + "-" + std::to_string(dirSerial_++);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    return dir;
}

double
Flow::setup()
{
    Tracer &tr = *tracer_;
    const double start = wallNow();
    scenes_.clear();
    for (const std::string &alias : spec_->benches) {
        Tracer::Scope span(tr, "workloads.compose", alias);
        auto scene = std::make_unique<Scene>();
        scene->alias = alias;
        scene->scene =
            composeBenchmark(alias, spec_->frames, workloadSeed_);
        span.count("frames",
                   static_cast<double>(scene->scene.numFrames()));
        scenes_.push_back(std::move(scene));
    }
    if (spec_->name == "reselect-warm") {
        warmCache_ = freshDir("warm");
        Iteration built;
        for (const auto &scene : scenes_) {
            megsim::BenchmarkData data(scene->scene, gpuConfig(),
                                       warmCache_);
            groundTruth(*scene, data, built);
        }
        setupFailed_ = built.failed;
    }
    return wallNow() - start;
}

bool
Flow::groundTruth(const Scene &scene, megsim::BenchmarkData &data,
                  Iteration &it)
{
    Tracer &tr = *tracer_;
    exec::Pool &pool = exec::Pool::global();
    std::unique_ptr<megsim::GroundTruthPass> gt;
    std::size_t todo = 0;
    std::size_t committed = 0;
    std::string failure;
    {
        Tracer::Scope span(tr, "gt.pass", scene.alias);
        gt = std::make_unique<megsim::GroundTruthPass>(data,
                                                       pool.workers());
        todo = gt->remaining();
        tr.beginJob(pool.workers());
        auto pass = pool.parallelMapOrdered<megsim::GroundTruthFrame>(
            todo,
            [&](std::size_t i, std::size_t w)
                -> resilience::Expected<megsim::GroundTruthFrame> {
                const double t0 = wallNow();
                auto frame = gt->produce(i, w);
                if (tr.enabled() && frame.ok())
                    tr.record(w, frameSpan(scene.alias, t0,
                                           frame->stats));
                return frame;
            },
            [&](std::size_t i, megsim::GroundTruthFrame &&frame) {
                Tracer::Scope commit(tr, "gt.commit", scene.alias,
                                     true);
                gt->commit(i, std::move(frame));
                ++committed;
            });
        tr.merge();
        span.count("frames", static_cast<double>(todo));
        if (!pass.ok())
            failure = pass.error().message;
    }
    it.attempted += todo;
    if (!failure.empty()) {
        it.failed += todo - committed;
        std::fprintf(stderr, "flowbench: ground truth of %s failed: %s\n",
                     scene.alias.c_str(), failure.c_str());
        return false;
    }
    Tracer::Scope span(tr, "gt.finish", scene.alias);
    gt->finish();
    return true;
}

Iteration
Flow::iterate()
{
    Iteration it;
    const std::string dir = spec_->name == "groundtruth-cold"
                                ? freshDir("cold")
                                : std::string();
    const double wall0 = wallNow();
    const double cpu0 = cpuNow();
    if (spec_->name == "estimate-long")
        iterateEstimate(it);
    else if (spec_->name == "groundtruth-cold")
        iterateGroundTruth(it, dir);
    else
        iterateReselect(it);
    it.cpu = cpuNow() - cpu0;
    it.wall = wallNow() - wall0;
    return it;
}

void
Flow::iterateEstimate(Iteration &it)
{
    Tracer &tr = *tracer_;
    it.estimates.assign(scenes_.size(), {});
    std::vector<Digest> parts(scenes_.size());
    for (std::size_t index : order_) {
        const Scene &s = *scenes_[index];
        const std::size_t n = s.scene.numFrames();
        it.frames += n;
        it.attempted += n;

        // No cache directory: the functional pass runs every iteration.
        megsim::BenchmarkData data(s.scene, gpuConfig(), "");
        {
            Tracer::Scope span(tr, "functional.pass", s.alias);
            data.activities();
            span.count("frames", static_cast<double>(n));
        }
        megsim::MegsimPipeline pipeline(data, flowConfig());
        {
            Tracer::Scope span(tr, "features", s.alias);
            pipeline.projectedFeatures();
        }
        const megsim::RepresentativeSet reps =
            select(tr, pipeline, s.alias, 0, it).representatives;

        std::vector<gpusim::FrameStats> repStats;
        {
            Tracer::Scope span(tr, "timing.reps", s.alias);
            gpusim::SceneBinding binding(s.scene);
            gpusim::TimingSimulator timing(gpuConfig(), binding);
            for (std::size_t frame : reps.frames) {
                const double t0 = wallNow();
                repStats.push_back(
                    timing.simulate(s.scene.frames[frame]));
                if (tr.enabled())
                    tr.record(0,
                              frameSpan(s.alias, t0, repStats.back()));
            }
            it.attempted += reps.size();
        }

        std::array<double, kMetrics> estimate{};
        {
            Tracer::Scope span(tr, "foldback", s.alias);
            for (std::size_t m = 0; m < kMetrics; ++m)
                for (std::size_t i = 0; i < reps.size(); ++i)
                    estimate[m] +=
                        reps.weights[i] *
                        gpusim::metricValue(
                            repStats[i], static_cast<gpusim::Metric>(m));
        }
        it.estimates[index] = estimate;
        parts[index].add(s.alias + ".frames", asDoubles(reps.frames));
        parts[index].add(s.alias + ".weights", reps.weights);
        parts[index].add(s.alias + ".estimate", asVector(estimate));
    }
    mergeParts(it.digest, parts);
}

void
Flow::iterateGroundTruth(Iteration &it, const std::string &dir)
{
    Tracer &tr = *tracer_;
    std::vector<Digest> parts(scenes_.size());
    for (std::size_t index : order_) {
        const Scene &s = *scenes_[index];
        it.frames += s.scene.numFrames();
        megsim::BenchmarkData data(s.scene, gpuConfig(), dir);
        if (!groundTruth(s, data, it))
            continue;

        megsim::MegsimPipeline pipeline(data, flowConfig());
        {
            Tracer::Scope span(tr, "features", s.alias);
            pipeline.projectedFeatures();
        }
        std::array<double, kMetrics> errors{};
        const megsim::MegsimRun run =
            selectAndFold(tr, pipeline, s.alias, 0, it, errors);

        std::array<double, kMetrics> totals{};
        for (const gpusim::FrameStats &stats : data.frameStats())
            for (std::size_t m = 0; m < kMetrics; ++m)
                totals[m] += gpusim::metricValue(
                    stats, static_cast<gpusim::Metric>(m));
        Digest &part = parts[index];
        part.add(s.alias + ".frames",
                 asDoubles(run.representatives.frames));
        part.add(s.alias + ".weights", run.representatives.weights);
        part.add(s.alias + ".totals", asVector(totals));
        part.add(s.alias + ".error", asVector(errors));
    }
    mergeParts(it.digest, parts);
}

void
Flow::iterateReselect(Iteration &it)
{
    Tracer &tr = *tracer_;
    const std::vector<std::uint64_t> &canonical = reselectSeeds();
    // One digest part per (bench, canonical seed slot).
    std::vector<Digest> parts(scenes_.size() * canonical.size());
    std::vector<Digest> seed0(scenes_.size());
    for (std::size_t index : order_) {
        const Scene &s = *scenes_[index];
        megsim::BenchmarkData data(s.scene, gpuConfig(), warmCache_);
        megsim::CacheProbe probe;
        {
            Tracer::Scope span(tr, "cache.probe", s.alias);
            probe = data.probeCaches();
            span.count("loaded",
                       probe == megsim::CacheProbe::Loaded ? 1.0 : 0.0);
        }
        ++it.attempted;
        if (probe != megsim::CacheProbe::Loaded) {
            ++it.failed;
            std::fprintf(stderr,
                         "flowbench: cache probe of %s did not load\n",
                         s.alias.c_str());
            continue;
        }
        it.frames += s.scene.numFrames();

        megsim::MegsimPipeline pipeline(data, flowConfig());
        {
            Tracer::Scope span(tr, "features", s.alias);
            pipeline.projectedFeatures();
        }
        for (std::uint64_t seed : kmeansSeeds_) {
            std::size_t slot = 0;
            while (canonical[slot] != seed)
                ++slot;
            std::array<double, kMetrics> errors{};
            const megsim::MegsimRun run =
                selectAndFold(tr, pipeline, s.alias, seed, it, errors);

            const std::string key =
                slot == 0 ? s.alias
                          : s.alias + ".s" + std::to_string(slot);
            const auto frames = asDoubles(run.representatives.frames);
            Digest &part = parts[index * canonical.size() + slot];
            part.add(key + ".frames", frames);
            part.add(key + ".weights", run.representatives.weights);
            part.add(key + ".error", asVector(errors));
            if (slot == 0) {
                seed0[index].add(key + ".frames", frames);
                seed0[index].add(key + ".weights",
                                 run.representatives.weights);
            }
        }
    }
    mergeParts(it.digest, parts);
    mergeParts(it.seed0, seed0);
}

std::vector<FullTiming>
Flow::fullTiming()
{
    Tracer &tr = *tracer_;
    std::vector<FullTiming> out(scenes_.size());
    for (std::size_t index : order_) {
        const Scene &s = *scenes_[index];
        Tracer::Scope span(tr, "full.timing", s.alias);
        const double start = wallNow();
        exec::Pool &pool = exec::Pool::global();
        gpusim::SceneBinding binding(s.scene);
        std::vector<std::unique_ptr<gpusim::TimingSimulator>> sims(
            pool.workers());
        FullTiming &full = out[index];
        auto pass = pool.parallelMapOrdered<gpusim::FrameStats>(
            s.scene.numFrames(),
            [&](std::size_t f, std::size_t w)
                -> resilience::Expected<gpusim::FrameStats> {
                if (!sims[w])
                    sims[w] = std::make_unique<gpusim::TimingSimulator>(
                        gpuConfig(), binding);
                return sims[w]->simulate(s.scene.frames[f]);
            },
            [&](std::size_t, gpusim::FrameStats &&stats) {
                for (std::size_t m = 0; m < kMetrics; ++m)
                    full.totals[m] += gpusim::metricValue(
                        stats, static_cast<gpusim::Metric>(m));
            });
        full.ok = pass.ok();
        if (!pass.ok())
            std::fprintf(stderr,
                         "flowbench: full timing of %s failed: %s\n",
                         s.alias.c_str(), pass.error().message.c_str());
        full.wall = wallNow() - start;
        span.count("frames", static_cast<double>(s.scene.numFrames()));
    }
    return out;
}

void
usePool(std::size_t threads)
{
    exec::Pool::setConfiguredThreads(threads);
    (void)exec::Pool::global();
}

} // namespace flowbench
