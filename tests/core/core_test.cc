#include <gtest/gtest.h>

#include <cstdio>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/megsim.hh"
#include "exec/pool.hh"
#include "sim/random.hh"
#include "workloads/workloads.hh"

using namespace msim;
using namespace msim::megsim;

namespace
{

/**
 * A feature matrix with @p k well-separated synthetic clusters: each
 * frame of cluster c sits near (c * 100, c * 100, ...) with small
 * deterministic jitter.
 */
FeatureMatrix
separableMatrix(std::size_t k, std::size_t perCluster, std::size_t dims)
{
    FeatureMatrix m(k * perCluster, dims - 1, 0);
    sim::Rng rng(42);
    for (std::size_t c = 0; c < k; ++c)
        for (std::size_t i = 0; i < perCluster; ++i)
            for (std::size_t d = 0; d < dims; ++d)
                m.at(c * perCluster + i, d) =
                    static_cast<double>(c) * 100.0 +
                    rng.uniform() * 2.0 - 1.0;
    return m;
}

/** Which paths a referenceKmeans call went down. */
struct ReferencePaths
{
    std::size_t iterations = 0; // assignment passes
    std::size_t reseeds = 0;    // emptied clusters re-seeded
    bool converged = false;     // stopped before maxIterations
    /** Most consecutive passes one cluster was re-seeded in. */
    std::size_t longestEmptyRun = 0;
    /** Frames pass 0 gave the last k-means++ seed (k >= 2). */
    std::size_t lastSeedFrames = 0;
    /** A pass after the second moved exactly one frame. */
    bool lateSingleMove = false;
};

double
referenceSqDist(const FeatureMatrix &m, std::size_t frame,
                const std::vector<double> &centroids,
                std::size_t cluster, std::size_t dims)
{
    double d2 = 0.0;
    for (std::size_t c = 0; c < dims; ++c) {
        const double diff =
            m.at(frame, c) - centroids[cluster * dims + c];
        d2 += diff * diff;
    }
    return d2;
}

/**
 * Plain serial Lloyd's k-means with k-means++ seeding: every frame
 * scans every centroid on every pass. kmeans() must match it bit for
 * bit; it skips only work this loop provably does not need.
 */
KMeansResult
referenceKmeans(const FeatureMatrix &m, std::size_t k,
                const KMeansConfig &config, ReferencePaths *paths)
{
    const std::size_t n = m.rows();
    const std::size_t dims = m.cols();
    k = std::max<std::size_t>(1, std::min(k, n));

    KMeansResult result;
    result.k = k;
    result.dims = dims;
    result.labels.assign(n, 0);
    result.sizes.assign(k, 0);
    result.centroids.assign(k * dims, 0.0);
    if (n == 0)
        return result;

    sim::Rng rng(config.seed);
    std::vector<double> minD2(n, std::numeric_limits<double>::max());
    const std::size_t first = rng.below(n);
    for (std::size_t c = 0; c < dims; ++c)
        result.centroids[c] = m.at(first, c);
    for (std::size_t cl = 1; cl < k; ++cl) {
        for (std::size_t f = 0; f < n; ++f) {
            const double d2 =
                referenceSqDist(m, f, result.centroids, cl - 1, dims);
            if (d2 < minD2[f])
                minD2[f] = d2;
        }
        double total = 0.0;
        for (std::size_t f = 0; f < n; ++f)
            total += minD2[f];
        std::size_t pick = 0;
        if (total > 0.0) {
            double target = rng.uniform() * total;
            for (std::size_t f = 0; f < n; ++f) {
                target -= minD2[f];
                if (target <= 0.0) {
                    pick = f;
                    break;
                }
            }
        } else {
            pick = rng.below(n);
        }
        for (std::size_t c = 0; c < dims; ++c)
            result.centroids[cl * dims + c] = m.at(pick, c);
    }

    std::vector<std::size_t> emptyRun(k, 0);
    for (std::size_t iter = 0; iter < config.maxIterations; ++iter) {
        ++paths->iterations;
        bool changed = iter == 0;
        std::size_t moves = 0;
        for (std::size_t f = 0; f < n; ++f) {
            std::size_t best = 0;
            double bestD2 = std::numeric_limits<double>::max();
            for (std::size_t cl = 0; cl < k; ++cl) {
                const double d2 =
                    referenceSqDist(m, f, result.centroids, cl, dims);
                if (d2 < bestD2) {
                    bestD2 = d2;
                    best = cl;
                }
            }
            if (result.labels[f] != best) {
                result.labels[f] = best;
                changed = true;
                ++moves;
            }
            if (iter == 0 && k > 1 && best == k - 1)
                ++paths->lastSeedFrames;
        }
        if (iter >= 2 && moves == 1)
            paths->lateSingleMove = true;
        if (!changed) {
            paths->converged = true;
            break;
        }

        std::fill(result.centroids.begin(), result.centroids.end(),
                  0.0);
        std::fill(result.sizes.begin(), result.sizes.end(), 0);
        for (std::size_t f = 0; f < n; ++f) {
            const std::size_t cl = result.labels[f];
            ++result.sizes[cl];
            for (std::size_t c = 0; c < dims; ++c)
                result.centroids[cl * dims + c] += m.at(f, c);
        }
        for (std::size_t cl = 0; cl < k; ++cl) {
            emptyRun[cl] = result.sizes[cl] == 0 ? emptyRun[cl] + 1 : 0;
            paths->longestEmptyRun =
                std::max(paths->longestEmptyRun, emptyRun[cl]);
            if (result.sizes[cl] == 0) {
                ++paths->reseeds;
                const std::size_t f = rng.below(n);
                for (std::size_t c = 0; c < dims; ++c)
                    result.centroids[cl * dims + c] = m.at(f, c);
                continue;
            }
            const double inv =
                1.0 / static_cast<double>(result.sizes[cl]);
            for (std::size_t c = 0; c < dims; ++c)
                result.centroids[cl * dims + c] *= inv;
        }
    }

    std::fill(result.sizes.begin(), result.sizes.end(), 0);
    result.inertia = 0.0;
    for (std::size_t f = 0; f < n; ++f) {
        ++result.sizes[result.labels[f]];
        result.inertia += referenceSqDist(m, f, result.centroids,
                                          result.labels[f], dims);
    }
    return result;
}

/** Run kmeans() and the reference; return the reference's paths. */
ReferencePaths
expectMatchesReference(const FeatureMatrix &m, std::size_t k,
                       const KMeansConfig &config)
{
    ReferencePaths paths;
    const KMeansResult want = referenceKmeans(m, k, config, &paths);
    const KMeansResult got = kmeans(m, k, config);
    const std::string what = "k=" + std::to_string(k) +
                             " seed=" + std::to_string(config.seed);
    EXPECT_EQ(got.k, want.k) << what;
    EXPECT_EQ(got.dims, want.dims) << what;
    EXPECT_EQ(got.labels, want.labels) << what;
    EXPECT_EQ(got.sizes, want.sizes) << what;
    EXPECT_EQ(got.centroids.size(), want.centroids.size()) << what;
    if (got.centroids.size() == want.centroids.size()) {
        EXPECT_EQ(std::memcmp(got.centroids.data(),
                              want.centroids.data(),
                              got.centroids.size() * sizeof(double)),
                  0)
            << what << ": centroids differ in some bit";
    }
    EXPECT_EQ(std::memcmp(&got.inertia, &want.inertia, sizeof(double)),
              0)
        << what << ": inertia " << got.inertia << " vs "
        << want.inertia;
    return paths;
}

/** @p rows x @p dims, every value drawn from @p levels integers. */
FeatureMatrix
latticeMatrix(std::size_t rows, std::size_t dims, std::size_t levels,
              std::uint64_t seed)
{
    FeatureMatrix m(rows, dims - 1, 0);
    sim::Rng rng(seed);
    for (std::size_t f = 0; f < rows; ++f)
        for (std::size_t d = 0; d < dims; ++d)
            m.at(f, d) = static_cast<double>(rng.below(levels));
    return m;
}

/** Overlapping blobs, like projected features: the bounds' hard case. */
FeatureMatrix
blobMatrix(std::size_t rows, std::size_t dims, std::size_t blobs,
           std::uint64_t seed)
{
    FeatureMatrix m(rows, dims - 1, 0);
    sim::Rng rng(seed);
    std::vector<double> centers(blobs * dims);
    for (double &c : centers)
        c = rng.uniform() * 4.0;
    for (std::size_t f = 0; f < rows; ++f) {
        const std::size_t b = rng.below(blobs);
        for (std::size_t d = 0; d < dims; ++d)
            m.at(f, d) = centers[b * dims + d] + rng.uniform() - 0.5;
    }
    return m;
}

} // namespace

TEST(Features, BuildScalesInvocationsByCharacteristicCost)
{
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 3);
    gpusim::SceneBinding binding(scene);
    gpusim::FunctionalSimulator functional(
        gpusim::GpuConfig::evaluationScaled(), binding);
    std::vector<gpusim::FrameActivity> activities;
    for (const gfx::FrameTrace &frame : scene.frames)
        activities.push_back(functional.simulate(frame));

    const FeatureMatrix m = buildFeatureMatrix(activities, scene);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.vsDims(), scene.numVertexShaders());
    EXPECT_EQ(m.fsDims(), scene.numFragmentShaders());
    EXPECT_EQ(m.cols(), m.vsDims() + m.fsDims() + 1);
    // Last column is the raw primitive count.
    EXPECT_DOUBLE_EQ(m.at(0, m.cols() - 1),
                     static_cast<double>(activities[0].primitives));
    // Feature columns are cost-scaled invocation counts, so each
    // column with invocations is >= the raw count (cost >= 1).
    double total = 0.0;
    for (std::size_t d = 0; d < m.cols(); ++d)
        total += m.at(0, d);
    EXPECT_GT(total, 0.0);
}

TEST(Features, GroupSumNormalizationHitsTargetWeights)
{
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 4);
    gpusim::SceneBinding binding(scene);
    gpusim::FunctionalSimulator functional(
        gpusim::GpuConfig::evaluationScaled(), binding);
    std::vector<gpusim::FrameActivity> activities;
    for (const gfx::FrameTrace &frame : scene.frames)
        activities.push_back(functional.simulate(frame));

    FeatureMatrix m = buildFeatureMatrix(activities, scene);
    const GroupWeights weights;
    normalize(m, NormalizationScheme::GroupSumWeights, weights);

    // Mean per-frame group sums must equal the Fig. 4 weights.
    double vsSum = 0.0, fsSum = 0.0, primSum = 0.0;
    for (std::size_t f = 0; f < m.rows(); ++f) {
        for (std::size_t d = 0; d < m.vsDims(); ++d)
            vsSum += m.at(f, d);
        for (std::size_t d = 0; d < m.fsDims(); ++d)
            fsSum += m.at(f, m.vsDims() + d);
        primSum += m.at(f, m.cols() - 1);
    }
    const double n = static_cast<double>(m.rows());
    EXPECT_NEAR(vsSum / n, weights.vs, 1e-9);
    EXPECT_NEAR(fsSum / n, weights.fs, 1e-9);
    EXPECT_NEAR(primSum / n, weights.prim, 1e-9);
}

TEST(Features, RandomProjectionPreservesSeparation)
{
    const FeatureMatrix m = separableMatrix(3, 10, 40);
    const FeatureMatrix p = randomProject(m, 8);
    ASSERT_EQ(p.rows(), m.rows());
    ASSERT_EQ(p.cols(), 8u);

    // Same-cluster distances stay well below cross-cluster ones.
    const SimilarityMatrix sim(p);
    double within = 0.0, across = 0.0;
    within = sim.at(0, 5);
    across = sim.at(0, 15);
    EXPECT_LT(within, across);
}

TEST(Features, ProjectionIsIdentityWhenAlreadySmall)
{
    const FeatureMatrix m = separableMatrix(2, 4, 6);
    const FeatureMatrix p = randomProject(m, 24);
    ASSERT_EQ(p.cols(), m.cols());
    EXPECT_DOUBLE_EQ(p.at(3, 2), m.at(3, 2));
}

TEST(Cluster, KMeansRecoversSeparableClusters)
{
    const FeatureMatrix m = separableMatrix(4, 16, 12);
    const KMeansResult result = kmeans(m, 4);
    ASSERT_EQ(result.k, 4u);
    ASSERT_EQ(result.labels.size(), m.rows());

    // Every synthetic cluster maps to exactly one k-means label.
    for (std::size_t c = 0; c < 4; ++c) {
        const std::uint32_t label = result.labels[c * 16];
        for (std::size_t i = 1; i < 16; ++i)
            EXPECT_EQ(result.labels[c * 16 + i], label)
                << "cluster " << c << " split";
    }
    for (std::size_t size : result.sizes)
        EXPECT_EQ(size, 16u);
    EXPECT_LT(result.inertia, m.rows() * 12.0)
        << "tight clusters -> small inertia";
}

TEST(Cluster, SelectionPrefersTheNaturalK)
{
    const FeatureMatrix m = separableMatrix(5, 12, 10);
    SelectorConfig config;
    config.maxClusters = 16;
    const SelectionResult selection = selectClustering(m, config);
    ASSERT_FALSE(selection.trace.empty());
    EXPECT_EQ(selection.chosen().k, 5u);
}

TEST(Cluster, RepresentativeWeightsCoverEveryFrame)
{
    const FeatureMatrix m = separableMatrix(3, 8, 6);
    const KMeansResult clustering = kmeans(m, 3);
    const RepresentativeSet reps = representativeSet(m, clustering);
    ASSERT_EQ(reps.size(), 3u);
    double totalWeight = 0.0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        EXPECT_LT(reps.frames[i], m.rows());
        totalWeight += reps.weights[i];
    }
    EXPECT_DOUBLE_EQ(totalWeight, static_cast<double>(m.rows()));
}

/** kmeans() against referenceKmeans() at 1 and 4 pool threads. */
class KMeansExactness : public ::testing::TestWithParam<std::size_t>
{
  protected:
    void
    SetUp() override
    {
        saved_ = exec::Pool::configuredThreads();
        exec::Pool::setConfiguredThreads(GetParam());
    }

    void
    TearDown() override
    {
        exec::Pool::setConfiguredThreads(saved_);
    }

  private:
    std::size_t saved_ = 1;
};

TEST_P(KMeansExactness, SeparableClusters)
{
    const FeatureMatrix m = separableMatrix(4, 16, 12);
    for (std::size_t k : {2, 4, 7})
        for (std::uint64_t seed : {1, 2, 3})
            expectMatchesReference(m, k, KMeansConfig{64, seed});
}

TEST_P(KMeansExactness, OverlappingBlobsUpToSweepScale)
{
    // The shape the BIC sweep runs on: 24 projected dimensions, many
    // overlapping clusters, k up to the sweep's cap, long runs.
    const FeatureMatrix m = blobMatrix(600, 24, 12, 7);
    for (std::size_t k : {2, 9, 16, 33, 64})
        for (std::uint64_t seed : {11, 12})
            expectMatchesReference(m, k, KMeansConfig{64, seed});
}

TEST_P(KMeansExactness, DuplicatedRowsAndExactTies)
{
    // Few distinct integer rows, many duplicates: frames sit exactly
    // halfway between centroids, and the lowest-index centroid must
    // win every tie just as in the plain loop.
    const FeatureMatrix lattice = latticeMatrix(240, 3, 3, 5);
    for (std::size_t k : {2, 3, 5, 8, 12})
        for (std::uint64_t seed : {1, 2, 3, 4})
            expectMatchesReference(lattice, k, KMeansConfig{64, seed});

    // 1-D lattices where, mid-run, a frame owned by a higher-index
    // centroid lands exactly halfway to a lower-index one: a bound
    // test that let a tie pass would keep the stale label.
    for (std::size_t levels : {5, 7})
        for (std::size_t rows : {30, 60})
            for (std::uint64_t data : {2, 3})
                for (std::uint64_t seed = 1; seed <= 6; ++seed)
                    expectMatchesReference(
                        latticeMatrix(rows, 1, levels, data), 3,
                        KMeansConfig{64, seed});

    // Two clusters and a midpoint row equidistant from both means.
    FeatureMatrix line(7, 0, 0);
    const double xs[7] = {0.0, 0.0, 0.0, 2.0, 4.0, 4.0, 4.0};
    for (std::size_t f = 0; f < 7; ++f)
        line.at(f, 0) = xs[f];
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        expectMatchesReference(line, 2, KMeansConfig{64, seed});
}

TEST_P(KMeansExactness, SingleClusterAndMoreClustersThanFrames)
{
    const FeatureMatrix m = blobMatrix(5, 4, 2, 3);
    for (std::size_t k : {1, 5, 9}) {
        expectMatchesReference(m, k, KMeansConfig{64, 1});
        EXPECT_EQ(kmeans(m, k, KMeansConfig{64, 1}).k,
                  std::min<std::size_t>(k, 5));
    }
    expectMatchesReference(blobMatrix(300, 24, 6, 4), 1,
                           KMeansConfig{64, 2});
}

TEST_P(KMeansExactness, EmptiedClusterIsReseeded)
{
    // Two distinct rows and k = 4: seeding runs out of distinct
    // frames, duplicate centroids lose every tie, their clusters come
    // up empty and are re-seeded from the RNG.
    FeatureMatrix m(20, 1, 0);
    for (std::size_t f = 10; f < 20; ++f) {
        m.at(f, 0) = 1.0;
        m.at(f, 1) = 1.0;
    }
    std::size_t reseeds = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        reseeds +=
            expectMatchesReference(m, 4, KMeansConfig{64, seed}).reseeds;
    EXPECT_GT(reseeds, 0u) << "the reseed path never ran";
}

TEST_P(KMeansExactness, IterationCapStopsBothLoopsAlike)
{
    // One uniform blob: no natural clusters, so Lloyd creeps.
    const FeatureMatrix m = blobMatrix(400, 4, 1, 9);
    const ReferencePaths free =
        expectMatchesReference(m, 10, KMeansConfig{64, 5});
    ASSERT_GT(free.iterations, 3u) << "input converges too fast";
    const ReferencePaths capped =
        expectMatchesReference(m, 10, KMeansConfig{2, 5});
    EXPECT_EQ(capped.iterations, 2u);
    EXPECT_FALSE(capped.converged) << "the cap never bit";
}

TEST_P(KMeansExactness, ClusterStaysEmptyOverConsecutivePasses)
{
    // Two values, seven copies each, k = 4: seeding runs out of
    // distinct frames and two seeds come up empty. The mean of seven
    // copies of x need not round back to x, so a cluster re-drawn
    // onto a copy takes those frames from their own centroid, which
    // empties in turn; a cluster re-drawn onto the other value loses
    // the tie and stays empty while the loop goes on. Every pass then
    // re-draws a cluster whose members did not change.
    FeatureMatrix m(14, 0, 0);
    sim::Rng rng(2);
    for (std::size_t v = 0; v < 2; ++v) {
        const double x = rng.uniform();
        for (std::size_t i = 0; i < 7; ++i)
            m.at(v * 7 + i, 0) = x;
    }
    std::size_t longest = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        longest = std::max(
            longest, expectMatchesReference(m, 4, KMeansConfig{64, seed})
                         .longestEmptyRun);
    EXPECT_GE(longest, 2u) << "no cluster stayed empty for two passes";
}

TEST_P(KMeansExactness, LastSeedLabelsPassZero)
{
    // Pass 0 takes its labels from the seeding, so the last seed must
    // update the nearest seed of every frame it captures.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const FeatureMatrix blobs = blobMatrix(40, 4, 2, seed);
        EXPECT_GT(expectMatchesReference(blobs, 2, KMeansConfig{64, seed})
                      .lastSeedFrames,
                  0u)
            << "k=2 seed=" << seed;
        const FeatureMatrix few = blobMatrix(12, 4, 2, seed);
        EXPECT_GT(expectMatchesReference(few, 12, KMeansConfig{64, seed})
                      .lastSeedFrames,
                  0u)
            << "k=n seed=" << seed;
    }
}

TEST_P(KMeansExactness, LatePassMovesOneFrame)
{
    // A late pass in which one frame changes cluster: the update
    // rebuilds two centroids and keeps every other one as it was.
    const FeatureMatrix m = blobMatrix(200, 8, 6, 1);
    bool single = false;
    for (std::size_t k : {9, 16})
        for (std::uint64_t seed : {1, 3})
            single = expectMatchesReference(m, k, KMeansConfig{64, seed})
                         .lateSingleMove ||
                     single;
    EXPECT_TRUE(single) << "no late pass moved exactly one frame";
}

INSTANTIATE_TEST_SUITE_P(Threads, KMeansExactness,
                         ::testing::Values(std::size_t(1),
                                           std::size_t(4)));

TEST(Cluster, OrderedSweepStopsAtTheSameKAtAnyThreadCount)
{
    // Five separable clusters: the BIC peaks near k = 5 and patience
    // ends the sweep long before maxClusters. The ordered (k, restart)
    // job must commit exactly the trace a serial sweep would, however
    // many items the workers had in flight when patience fired.
    const FeatureMatrix m = separableMatrix(5, 24, 10);
    SelectorConfig config;
    config.maxClusters = 64;
    const std::size_t saved = exec::Pool::configuredThreads();

    exec::Pool::setConfiguredThreads(1);
    const SelectionResult serial = selectClustering(m, config);
    constexpr std::size_t kExpectedTrace = 9;
    ASSERT_EQ(serial.trace.size(), kExpectedTrace);
    EXPECT_EQ(serial.chosen().k, 5u);
    EXPECT_EQ(serial.chosen().k, serial.chosenIndex + 1);

    for (std::size_t threads : {2, 4, 8}) {
        exec::Pool::setConfiguredThreads(threads);
        const SelectionResult parallel = selectClustering(m, config);
        ASSERT_EQ(parallel.trace.size(), kExpectedTrace)
            << threads << " threads";
        for (std::size_t i = 0; i < kExpectedTrace; ++i)
            EXPECT_EQ(std::memcmp(&parallel.trace[i].bic,
                                  &serial.trace[i].bic, sizeof(double)),
                      0)
                << threads << " threads, k=" << i + 1;
        EXPECT_EQ(parallel.chosenIndex, serial.chosenIndex)
            << threads << " threads";
        EXPECT_EQ(parallel.chosen().labels, serial.chosen().labels)
            << threads << " threads";
        EXPECT_EQ(parallel.chosen().centroids, serial.chosen().centroids)
            << threads << " threads";
    }
    exec::Pool::setConfiguredThreads(saved);
}

/**
 * selectClustering() as a plain serial loop over referenceKmeans():
 * the same per-(k, restart) seeds, best of restarts, patience and
 * spread threshold, then the chosen k re-run.
 */
SelectionResult
referenceSweep(const FeatureMatrix &m, const SelectorConfig &config)
{
    SelectionResult sel;
    const std::size_t maxK = std::min(
        std::max<std::size_t>(1, config.maxClusters), m.rows());
    const std::size_t restarts =
        std::max<std::size_t>(1, config.restarts);
    auto kmeansConfig = [&](std::size_t k, std::size_t restart) {
        KMeansConfig kc = config.kmeans;
        kc.seed = sim::hashMix(config.kmeans.seed, k, restart);
        return kc;
    };
    std::vector<std::size_t> bestRestart;
    double bestBic = -std::numeric_limits<double>::max();
    std::size_t decreases = 0;
    for (std::size_t k = 1; k <= maxK; ++k) {
        double stepBic = -std::numeric_limits<double>::max();
        std::size_t stepRestart = 0;
        for (std::size_t r = 0; r < restarts; ++r) {
            ReferencePaths paths;
            const double bic = bicScore(
                m, referenceKmeans(m, k, kmeansConfig(k, r), &paths));
            if (bic > stepBic) {
                stepBic = bic;
                stepRestart = r;
            }
        }
        sel.trace.push_back(SelectionStep{stepBic});
        bestRestart.push_back(stepRestart);
        if (stepBic > bestBic) {
            bestBic = stepBic;
            decreases = 0;
        } else if (++decreases > config.patience) {
            break;
        }
    }
    double minBic = sel.trace.front().bic;
    double maxBic = sel.trace.front().bic;
    for (const SelectionStep &step : sel.trace) {
        minBic = std::min(minBic, step.bic);
        maxBic = std::max(maxBic, step.bic);
    }
    const double cut = minBic + config.threshold * (maxBic - minBic);
    sel.chosenIndex = sel.trace.size() - 1;
    for (std::size_t i = 0; i < sel.trace.size(); ++i) {
        if (sel.trace[i].bic >= cut) {
            sel.chosenIndex = i;
            break;
        }
    }
    const std::size_t k = sel.chosenIndex + 1;
    ReferencePaths paths;
    sel.clustering = referenceKmeans(
        m, k, kmeansConfig(k, bestRestart[sel.chosenIndex]), &paths);
    return sel;
}

TEST(Cluster, SweepMatchesReferenceSweep)
{
    // reselect-warm's shape: n = 500 and every k up to the sweep's
    // cap of 64, three restarts each (this input never trips patience).
    const FeatureMatrix m = blobMatrix(500, 10, 48, 21);
    SelectorConfig config;
    config.maxClusters = 64;
    config.kmeans.seed = 0x4d4547;
    const SelectionResult want = referenceSweep(m, config);
    ASSERT_EQ(want.trace.size(), 64u) << "patience ended the sweep early";

    const std::size_t saved = exec::Pool::configuredThreads();
    for (std::size_t threads : {1, 4}) {
        exec::Pool::setConfiguredThreads(threads);
        const SelectionResult got = selectClustering(m, config);
        ASSERT_EQ(got.trace.size(), want.trace.size())
            << threads << " threads";
        for (std::size_t i = 0; i < want.trace.size(); ++i)
            EXPECT_EQ(std::memcmp(&got.trace[i].bic, &want.trace[i].bic,
                                  sizeof(double)),
                      0)
                << threads << " threads, k=" << i + 1;
        EXPECT_EQ(got.chosenIndex, want.chosenIndex)
            << threads << " threads";
        EXPECT_EQ(got.chosen().labels, want.chosen().labels)
            << threads << " threads";
        ASSERT_EQ(got.chosen().centroids.size(),
                  want.chosen().centroids.size());
        EXPECT_EQ(std::memcmp(got.chosen().centroids.data(),
                              want.chosen().centroids.data(),
                              want.chosen().centroids.size() *
                                  sizeof(double)),
                  0)
            << threads << " threads: centroids differ in some bit";
    }
    exec::Pool::setConfiguredThreads(saved);
}

TEST(Similarity, MatrixIsSymmetricWithZeroDiagonal)
{
    const FeatureMatrix m = separableMatrix(2, 6, 5);
    const SimilarityMatrix sim(m);
    ASSERT_EQ(sim.frames(), m.rows());
    for (std::size_t a = 0; a < sim.frames(); ++a) {
        EXPECT_DOUBLE_EQ(sim.at(a, a), 0.0);
        for (std::size_t b = 0; b < sim.frames(); ++b)
            EXPECT_DOUBLE_EQ(sim.at(a, b), sim.at(b, a));
    }
    EXPECT_GT(sim.maxDistance(), 0.0);
    EXPECT_GT(sim.meanDistance(), 0.0);
    EXPECT_LE(sim.meanDistance(), sim.maxDistance());
}

TEST(Correlation, LinearTargetYieldsHighCoefficients)
{
    // Metric = 3*fs0 + fs1: the FS group fully explains the target,
    // the VS column is independent noise.
    const std::size_t n = 64;
    FeatureMatrix m(n, 1, 2);
    std::vector<double> metric(n);
    sim::Rng rng(7);
    for (std::size_t f = 0; f < n; ++f) {
        m.at(f, 0) = rng.uniform() * 10.0;
        m.at(f, 1) = rng.uniform() * 10.0;
        m.at(f, 2) = rng.uniform() * 10.0;
        metric[f] = 3.0 * m.at(f, 1) + m.at(f, 2);
    }
    // Make the PRIM column the metric itself for a perfect Pearson.
    for (std::size_t f = 0; f < n; ++f)
        m.at(f, 3) = metric[f];

    const CorrelationStudy study = correlationStudy(m, metric);
    EXPECT_GE(study.vscv, 0.0);
    EXPECT_LT(study.vscv, 0.5) << "noise column must not correlate";
    EXPECT_GT(study.fscv, 0.99);
    EXPECT_NEAR(study.prim, 1.0, 1e-6);
}

TEST(Pipeline, EndToEndReductionAndEstimation)
{
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 48);
    BenchmarkData data(scene, gpusim::GpuConfig::evaluationScaled(),
                       "");
    MegsimConfig config;
    config.selector.maxClusters = 12;
    MegsimPipeline pipeline(data, config);

    const MegsimRun run = pipeline.run();
    EXPECT_EQ(run.numFrames, 48u);
    EXPECT_GE(run.numRepresentatives(), 1u);
    EXPECT_LT(run.numRepresentatives(), 48u)
        << "must simulate fewer frames than the full run";
    EXPECT_GT(run.reductionFactor(), 1.0);

    const double err =
        pipeline.errorPercent(run, gpusim::Metric::Cycles);
    EXPECT_GE(err, 0.0);
    EXPECT_LT(err, 25.0) << "estimate should be in the ballpark";
}

TEST(Pipeline, CacheRoundTripsGroundTruth)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "megsim_core_cache";
    std::filesystem::remove_all(dir);

    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 6);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    BenchmarkData first(scene, config, dir.string());
    const std::vector<gpusim::FrameStats> truth = first.frameStats();
    ASSERT_EQ(truth.size(), 6u);

    BenchmarkData second(scene, config, dir.string());
    const std::vector<gpusim::FrameStats> cached = second.frameStats();
    ASSERT_EQ(cached.size(), truth.size());
    for (std::size_t f = 0; f < truth.size(); ++f) {
        EXPECT_EQ(cached[f].cycles, truth[f].cycles) << "frame " << f;
        EXPECT_EQ(cached[f].dramBytes, truth[f].dramBytes);
    }
    std::filesystem::remove_all(dir);
}

TEST(Sampling, FindsASampleSizeMatchingTheTargetError)
{
    // A noisy series: random sampling needs a reasonable fraction of
    // the frames to hit a tight error bound.
    std::vector<double> values(512);
    sim::Rng rng(11);
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = 100.0 + rng.uniform() * 50.0;

    RandomSamplingConfig config;
    config.trials = 200;
    const std::size_t m = findMatchingSampleCount(values, 1.0, config);
    EXPECT_GE(m, 1u);
    EXPECT_LE(m, values.size());

    const std::size_t loose =
        findMatchingSampleCount(values, 10.0, config);
    EXPECT_LE(loose, m) << "looser bound needs no more samples";
}

TEST(Suite, PoolFeaturesPadsAndTracksProvenance)
{
    // Bench 0: 3 frames, 2 VS, 1 FS (4 cols). Bench 1: 2 frames,
    // 1 VS, 3 FS (5 cols). The pool pads both to 2 VS + 3 FS + PRIM.
    FeatureMatrix a(3, 2, 1);
    for (std::size_t f = 0; f < a.rows(); ++f)
        for (std::size_t d = 0; d < a.cols(); ++d)
            a.at(f, d) = 10.0 * static_cast<double>(f + 1) +
                         static_cast<double>(d);
    FeatureMatrix b(2, 1, 3);
    for (std::size_t f = 0; f < b.rows(); ++f)
        for (std::size_t d = 0; d < b.cols(); ++d)
            b.at(f, d) = 100.0 * static_cast<double>(f + 1) +
                         static_cast<double>(d);

    const PooledFeatures pooled = poolFeatures({&a, &b});
    ASSERT_EQ(pooled.features.rows(), 5u);
    EXPECT_EQ(pooled.features.vsDims(), 2u);
    EXPECT_EQ(pooled.features.fsDims(), 3u);
    ASSERT_EQ(pooled.features.cols(), 6u);
    ASSERT_EQ(pooled.numBenches(), 2u);
    EXPECT_EQ(pooled.firstRow, (std::vector<std::size_t>{0, 3}));
    EXPECT_EQ(pooled.frames, (std::vector<std::size_t>{3, 2}));
    EXPECT_EQ(pooled.bench,
              (std::vector<std::size_t>{0, 0, 0, 1, 1}));
    EXPECT_EQ(pooled.frame,
              (std::vector<std::size_t>{0, 1, 2, 0, 1}));

    // Bench 0 rows: VS cols verbatim, its one FS col first in the FS
    // group, FS padding zero, PRIM moved to the (shared) last column.
    for (std::size_t f = 0; f < 3; ++f) {
        EXPECT_DOUBLE_EQ(pooled.features.at(f, 0), a.at(f, 0));
        EXPECT_DOUBLE_EQ(pooled.features.at(f, 1), a.at(f, 1));
        EXPECT_DOUBLE_EQ(pooled.features.at(f, 2), a.at(f, 2));
        EXPECT_DOUBLE_EQ(pooled.features.at(f, 3), 0.0);
        EXPECT_DOUBLE_EQ(pooled.features.at(f, 4), 0.0);
        EXPECT_DOUBLE_EQ(pooled.features.at(f, 5), a.at(f, 3));
    }
    // Bench 1 rows: one VS col plus a zero pad, all three FS cols.
    for (std::size_t f = 0; f < 2; ++f) {
        EXPECT_DOUBLE_EQ(pooled.features.at(3 + f, 0), b.at(f, 0));
        EXPECT_DOUBLE_EQ(pooled.features.at(3 + f, 1), 0.0);
        EXPECT_DOUBLE_EQ(pooled.features.at(3 + f, 2), b.at(f, 1));
        EXPECT_DOUBLE_EQ(pooled.features.at(3 + f, 3), b.at(f, 2));
        EXPECT_DOUBLE_EQ(pooled.features.at(3 + f, 4), b.at(f, 3));
        EXPECT_DOUBLE_EQ(pooled.features.at(3 + f, 5), b.at(f, 4));
    }
}

TEST(Suite, GoldenTwoBenchFoldBackWeightsAndError)
{
    // Two 3-frame benchmarks pooled into 6 rows with a single active
    // feature column, clustered by a HAND-BUILT k-means result so
    // every representative and fold-back weight is checkable by hand.
    FeatureMatrix a(3, 1, 1);
    FeatureMatrix b(3, 1, 1);
    const double aVals[3] = {1.0, 2.0, 10.0};
    const double bVals[3] = {2.9, 10.5, 12.0};
    for (std::size_t f = 0; f < 3; ++f) {
        a.at(f, 0) = aVals[f];
        b.at(f, 0) = bVals[f];
    }
    const PooledFeatures pooled = poolFeatures({&a, &b});
    ASSERT_EQ(pooled.features.rows(), 6u);

    // Cluster 0 holds {1.0, 2.0, 2.9}, cluster 2 holds {10.0, 10.5,
    // 12.0}; cluster 1 is deliberately empty and must be skipped.
    KMeansResult clustering;
    clustering.k = 3;
    clustering.dims = pooled.features.cols();
    clustering.labels = {0, 0, 2, 0, 2, 2};
    clustering.sizes = {3, 0, 3};
    clustering.centroids.assign(3 * clustering.dims, 0.0);
    clustering.centroids[0 * clustering.dims] = 3.0;  // row 3 closest
    clustering.centroids[2 * clustering.dims] = 10.4; // row 4 closest

    const SuiteClustering suite =
        suiteFromClustering(pooled, pooled.features, clustering);
    ASSERT_EQ(suite.representatives.size(), 2u)
        << "the empty cluster must not elect a representative";

    // Representative 0: pooled row 3 = bench 1 frame 0, weight 3.
    EXPECT_EQ(suite.representatives[0].cluster, 0u);
    EXPECT_EQ(suite.representatives[0].bench, 1u);
    EXPECT_EQ(suite.representatives[0].frame, 0u);
    EXPECT_DOUBLE_EQ(suite.representatives[0].weight, 3.0);
    // Representative 1: pooled row 4 = bench 1 frame 1, weight 3.
    EXPECT_EQ(suite.representatives[1].cluster, 2u);
    EXPECT_EQ(suite.representatives[1].bench, 1u);
    EXPECT_EQ(suite.representatives[1].frame, 1u);
    EXPECT_DOUBLE_EQ(suite.representatives[1].weight, 3.0);

    // Fold-back weights: bench 0 has 2 frames in cluster 0 and 1 in
    // cluster 2; bench 1 the mirror image. Rows sum to the bench's
    // frame count, columns to the representative's weight.
    ASSERT_EQ(suite.memberCounts.size(), 2u);
    EXPECT_EQ(suite.memberCounts[0],
              (std::vector<double>{2.0, 1.0}));
    EXPECT_EQ(suite.memberCounts[1],
              (std::vector<double>{1.0, 2.0}));

    // Hand-computed fold-back error. Bench 0 truth {100, 110, 200}
    // (total 410), bench 1 truth {95, 210, 205}. Representative
    // timing values are bench 1 frames 0 and 1: {95, 210}.
    const std::vector<double> repValues = {95.0, 210.0};
    // Bench 0 estimate: 2*95 + 1*210 = 400 -> |400-410|/410 %.
    EXPECT_DOUBLE_EQ(
        foldBackErrorPercent(suite.memberCounts[0], repValues, 410.0),
        10.0 / 410.0 * 100.0);
    // Bench 1 estimate: 1*95 + 2*210 = 515 -> |515-510|/510 %.
    EXPECT_DOUBLE_EQ(
        foldBackErrorPercent(suite.memberCounts[1], repValues, 510.0),
        5.0 / 510.0 * 100.0);
    // An all-zero truth series folds to zero error by definition.
    EXPECT_DOUBLE_EQ(
        foldBackErrorPercent(suite.memberCounts[0], repValues, 0.0),
        0.0);
}

TEST(Suite, ClusterSuitePipelineElectsProvenancedRepresentatives)
{
    // End-to-end over the real pipeline stages (normalize, pool,
    // project, BIC-select): every representative must carry valid
    // provenance and the fold-back weights must partition each
    // benchmark's frames.
    std::vector<FeatureMatrix> normalized;
    std::vector<const FeatureMatrix *> ptrs;
    for (const char *alias : {"hcr", "jjo"}) {
        const gfx::SceneTrace scene =
            workloads::buildBenchmark(alias, 1.0, 8);
        gpusim::SceneBinding binding(scene);
        gpusim::FunctionalSimulator functional(
            gpusim::GpuConfig::evaluationScaled(), binding);
        std::vector<gpusim::FrameActivity> activities;
        for (const gfx::FrameTrace &frame : scene.frames)
            activities.push_back(functional.simulate(frame));
        FeatureMatrix m = buildFeatureMatrix(activities, scene);
        normalize(m, NormalizationScheme::GroupSumWeights,
                  GroupWeights{});
        normalized.push_back(std::move(m));
    }
    for (const FeatureMatrix &m : normalized)
        ptrs.push_back(&m);

    const PooledFeatures pooled = poolFeatures(ptrs);
    ASSERT_EQ(pooled.features.rows(), 16u);
    const SuiteClustering suite =
        clusterSuite(pooled, MegsimConfig{});
    ASSERT_GE(suite.representatives.size(), 1u);
    ASSERT_LT(suite.representatives.size(), 16u);

    double totalWeight = 0.0;
    for (const SuiteRepresentative &rep : suite.representatives) {
        ASSERT_LT(rep.bench, 2u);
        ASSERT_LT(rep.frame, pooled.frames[rep.bench]);
        totalWeight += rep.weight;
    }
    EXPECT_DOUBLE_EQ(totalWeight, 16.0);
    for (std::size_t b = 0; b < 2; ++b) {
        double benchFrames = 0.0;
        for (double count : suite.memberCounts[b])
            benchFrames += count;
        EXPECT_DOUBLE_EQ(benchFrames, 8.0) << "bench " << b;
    }
}

TEST(Data, CachePathSurvivesLongSceneNames)
{
    // The cache path used to be composed into a fixed 160-byte
    // buffer; a long scene name silently truncated the key suffix.
    gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 2);
    scene.name = std::string(200, 'x');
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();
    BenchmarkData data(scene, config, "out/cache");

    const std::string stats = data.cachePath("stats");
    const std::string activity = data.cachePath("activity");
    EXPECT_NE(stats, activity);
    EXPECT_NE(stats.find(scene.name), std::string::npos);
    EXPECT_EQ(stats.substr(stats.size() - 10), "_stats.csv");

    // The 16-hex fingerprint key sits intact before the kind suffix.
    char keyHex[24];
    std::snprintf(keyHex, sizeof(keyHex), "%016llx",
                  static_cast<unsigned long long>(data.cacheKey()));
    EXPECT_NE(stats.find(std::string("_") + keyHex + "_stats.csv"),
              std::string::npos);
}

TEST(Data, CacheKeyIsComputedOnDemandAndRaceFree)
{
    // Without a cache directory the scene is hashed only when the key
    // is asked for; concurrent first calls all see the same value.
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 4);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();
    BenchmarkData data(scene, config, "");
    const std::uint64_t expected =
        sim::hashMix(scene.contentHash(), config.fingerprint());

    std::vector<std::uint64_t> keys(4, 0);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < keys.size(); ++i)
        threads.emplace_back([&, i] { keys[i] = data.cacheKey(); });
    for (std::thread &t : threads)
        t.join();
    for (std::uint64_t key : keys)
        EXPECT_EQ(key, expected);
}
