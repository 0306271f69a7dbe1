#include "core/megsim.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "exec/pool.hh"
#include "sim/random.hh"

namespace msim::megsim
{

namespace
{

double
sqDist(const FeatureMatrix &m, std::size_t frame,
       const std::vector<double> &centroids, std::size_t cluster,
       std::size_t dims)
{
    double d2 = 0.0;
    for (std::size_t c = 0; c < dims; ++c) {
        const double diff =
            m.at(frame, c) - centroids[cluster * dims + c];
        d2 += diff * diff;
    }
    return d2;
}

/** Distance between row @p i of table @p a and row @p j of @p b. */
double
rowDist(const std::vector<double> &a, std::size_t i,
        const std::vector<double> &b, std::size_t j, std::size_t dims)
{
    double d2 = 0.0;
    for (std::size_t c = 0; c < dims; ++c) {
        const double diff = a[i * dims + c] - b[j * dims + c];
        d2 += diff * diff;
    }
    return std::sqrt(d2);
}

/**
 * A bound test skips a distance only when it wins by more than this
 * share of the data diameter. A bound gathers one rounded addition
 * per Lloyd pass, of distances no larger than the diameter, so even
 * after 10^4 passes its error stays below 1e-11 of it; a squared
 * distance over a few dozen dimensions rounds finer still. A skipped
 * comparison is therefore one the exact scan decides the same way.
 */
constexpr double kBoundSlack = 1e-9;

/** Frames per pool item: a skipped frame costs a compare, not a call. */
constexpr std::size_t kFrameBlock = 256;

/** Run @p fn(frame, worker) over every frame, kFrameBlock at a time. */
template <typename Fn>
void
forEachFrame(exec::Pool &pool, std::size_t n, const Fn &fn)
{
    (void)pool.parallelFor(
        (n + kFrameBlock - 1) / kFrameBlock,
        [&](std::size_t block,
            std::size_t w) -> resilience::Expected<void> {
            const std::size_t end =
                std::min(n, (block + 1) * kFrameBlock);
            for (std::size_t f = block * kFrameBlock; f < end; ++f)
                fn(f, w);
            return {};
        },
        exec::Chunking::Static);
}

} // namespace

KMeansResult
kmeans(const FeatureMatrix &features, std::size_t k,
       const KMeansConfig &config)
{
    const std::size_t n = features.rows();
    const std::size_t dims = features.cols();
    k = std::max<std::size_t>(1, std::min(k, n));

    KMeansResult result;
    result.k = k;
    result.dims = dims;
    result.labels.assign(n, 0);
    result.sizes.assign(k, 0);
    result.centroids.assign(k * dims, 0.0);
    if (n == 0)
        return result;
    std::vector<double> &centroids = result.centroids;
    std::vector<std::size_t> &labels = result.labels;

    // k-means++ seeding. The per-frame distance updates fan out (each
    // frame owns its slots); the weighted draw below stays a serial
    // sum in frame order so the result is bit-identical to a
    // single-threaded run. A frame skips a new seed that is farther
    // than twice its current minimum from the seed holding that
    // minimum: by the triangle inequality the new distance cannot be
    // smaller, so minD2 is exactly what a full update would leave.
    //
    // Every seed, the last included, updates nearest[f], so seeding
    // also labels pass 0: the seeds are visited in ascending order and
    // replaced only on a strictly smaller sqDist, which is the
    // lowest-index argmin a full scan of the seeds would take.
    // second[f] collects a lower bound on the distance to every seed
    // but nearest[f]: a computed distance, the old minimum when a
    // frame moves, or the triangle bound of a skipped seed.
    exec::Pool &pool = exec::Pool::global();
    sim::Rng rng(config.seed);
    std::vector<double> minD2(n, std::numeric_limits<double>::max());
    std::vector<double> minD(n);
    std::vector<double> second(n, std::numeric_limits<double>::max());
    std::vector<std::size_t> nearest(n, 0);
    std::size_t first = rng.below(n);
    for (std::size_t c = 0; c < dims; ++c)
        centroids[c] = features.at(first, c);
    forEachFrame(pool, n, [&](std::size_t f, std::size_t) {
        const double d2 = sqDist(features, f, centroids, 0, dims);
        if (d2 < minD2[f])
            minD2[f] = d2;
        minD[f] = std::sqrt(minD2[f]);
    });
    // Every frame and centroid lies within radius max(minD) of the
    // first seed, so the data diameter is at most twice that.
    double radius = 0.0;
    for (std::size_t f = 0; f < n; ++f)
        radius = std::max(radius, minD[f]);
    const double slack = kBoundSlack * 2.0 * radius;

    std::vector<double> seedDist(k);
    for (std::size_t cl = 1; cl < k; ++cl) {
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
            centroids[cl * dims + c] = features.at(pick, c);

        for (std::size_t s = 0; s < cl; ++s)
            seedDist[s] = rowDist(centroids, cl, centroids, s, dims);
        forEachFrame(pool, n, [&](std::size_t f, std::size_t) {
            const double gap = seedDist[nearest[f]];
            if (gap > 2.0 * minD[f] + slack) {
                second[f] = std::min(second[f], gap - minD[f]);
                return;
            }
            const double d2 = sqDist(features, f, centroids, cl, dims);
            if (d2 < minD2[f]) {
                second[f] = std::min(second[f], minD[f]);
                minD2[f] = d2;
                minD[f] = std::sqrt(d2);
                nearest[f] = cl;
            } else {
                second[f] = std::min(second[f], std::sqrt(d2));
            }
        });
    }
    std::vector<double>().swap(minD2);
    std::vector<double>().swap(seedDist);

    // Lloyd iterations with Hamerly bounds. Each frame keeps an upper
    // bound on the distance to its own centroid and a lower bound on
    // the distance to every other one; each centroid keeps half the
    // distance to its nearest neighbour. A frame whose upper bound
    // stays below both (by the slack) keeps its label without a
    // single distance. Otherwise it scans the centroids, skipping
    // only those that provably lose, and takes the lowest-index
    // argmin of the same sqDist values a plain Lloyd loop compares.
    // Every frame writes only its own slots, so labels are identical
    // at any thread count. The centroid update stays serial: its
    // floating-point sums are order-sensitive, and keeping them in
    // frame order is what makes centroids bit-identical.
    //
    // Pass 0 takes its labels and bounds from the seeding. Each later
    // pass flags the clusters a frame left or joined, and the update
    // rebuilds only those: an unflagged cluster has the same members,
    // summed in the same order, so its centroid would come out the
    // same bytes and its drift exactly 0. Empty clusters are re-drawn
    // every pass, in cluster order, so the RNG sequence is unchanged.
    if (config.maxIterations > 0)
        labels = std::move(nearest); // pass 0's assignment
    std::vector<double> upper = std::move(minD);
    std::vector<double> lower = std::move(second);
    std::vector<double> half(k);
    std::vector<double> gaps(k * k, 0.0); // centroid-centroid distances
    std::vector<std::size_t> nearby(k * k); // row a: by gap from a
    for (std::size_t a = 0; a < k; ++a)
        std::iota(nearby.begin() + a * k, nearby.begin() + (a + 1) * k,
                  std::size_t(0));
    std::vector<double> drift(k);
    std::vector<double> previous;
    std::size_t farthest = 0;  // centroid with the largest drift
    double maxDrift = 0.0;     // its drift
    double otherDrift = 0.0;   // largest drift among the others
    std::vector<unsigned char> moved(k, 1); // seeds are not means yet
    std::vector<unsigned char> workerMoved(pool.workers() * k);
    for (std::size_t pass = 0; pass < config.maxIterations; ++pass) {
        previous = centroids;
        for (std::size_t cl = 0; cl < k; ++cl) {
            if (!moved[cl])
                continue;
            result.sizes[cl] = 0;
            std::fill_n(&centroids[cl * dims], dims, 0.0);
        }
        for (std::size_t f = 0; f < n; ++f) {
            const std::size_t cl = labels[f];
            if (!moved[cl])
                continue;
            ++result.sizes[cl];
            for (std::size_t c = 0; c < dims; ++c)
                centroids[cl * dims + c] += features.at(f, c);
        }
        for (std::size_t cl = 0; cl < k; ++cl) {
            if (result.sizes[cl] == 0) {
                // Re-seed an emptied cluster on a random frame.
                const std::size_t f = rng.below(n);
                for (std::size_t c = 0; c < dims; ++c)
                    centroids[cl * dims + c] = features.at(f, c);
                moved[cl] = 1;
                continue;
            }
            if (!moved[cl])
                continue;
            const double inv =
                1.0 / static_cast<double>(result.sizes[cl]);
            for (std::size_t c = 0; c < dims; ++c)
                centroids[cl * dims + c] *= inv;
        }
        if (pass + 1 == config.maxIterations)
            break;

        // How far each centroid moved loosens the bounds; half the
        // gap to the nearest other centroid is the free-pass radius.
        maxDrift = 0.0;
        otherDrift = 0.0;
        farthest = 0;
        for (std::size_t cl = 0; cl < k; ++cl) {
            drift[cl] = moved[cl]
                            ? rowDist(previous, cl, centroids, cl, dims)
                            : 0.0;
            if (drift[cl] > maxDrift) {
                otherDrift = maxDrift;
                maxDrift = drift[cl];
                farthest = cl;
            } else if (drift[cl] > otherDrift) {
                otherDrift = drift[cl];
            }
        }
        std::fill(half.begin(), half.end(),
                  std::numeric_limits<double>::max());
        for (std::size_t a = 0; a < k; ++a) {
            for (std::size_t b = a + 1; b < k; ++b) {
                if (moved[a] || moved[b]) {
                    const double gap =
                        rowDist(centroids, a, centroids, b, dims);
                    gaps[a * k + b] = gap;
                    gaps[b * k + a] = gap;
                }
                half[a] = std::min(half[a], 0.5 * gaps[a * k + b]);
                half[b] = std::min(half[b], 0.5 * gaps[a * k + b]);
            }
        }
        // Re-sort each row by gap. Centroids move little between
        // passes, so the rows are nearly sorted already and an
        // insertion sort costs about one compare per entry.
        for (std::size_t a = 0; a < k; ++a) {
            const double *gap = &gaps[a * k];
            std::size_t *row = &nearby[a * k];
            for (std::size_t i = 1; i < k; ++i) {
                const std::size_t cl = row[i];
                std::size_t j = i;
                for (; j > 0 && gap[cl] < gap[row[j - 1]]; --j)
                    row[j] = row[j - 1];
                row[j] = cl;
            }
        }

        // The next pass's assignment.
        std::fill(workerMoved.begin(), workerMoved.end(), 0);
        forEachFrame(pool, n, [&](std::size_t f, std::size_t w) {
            const std::size_t own = labels[f];
            upper[f] += drift[own];
            lower[f] -= own == farthest ? otherDrift : maxDrift;
            const double bound = std::max(half[own], lower[f]);
            if (upper[f] + slack < bound)
                return;
            upper[f] = std::sqrt(sqDist(features, f, centroids, own, dims));
            if (upper[f] + slack < bound)
                return;
            // Elkan's test trims the scan: a centroid farther than
            // twice upper[f] (now exact) from the own one cannot win,
            // and that gap minus upper[f] still bounds it from below.
            // Candidates are visited nearest-to-own first, so the
            // first one out of reach ends the scan; the tie rule
            // below still yields the lowest-index argmin.
            const std::size_t *order = &nearby[own * k];
            const double *gap = &gaps[own * k];
            const double reach = 2.0 * upper[f] + slack;
            std::size_t best = 0;
            double bestD2 = std::numeric_limits<double>::max();
            double secondD2 = std::numeric_limits<double>::max();
            double skipped = std::numeric_limits<double>::max();
            for (std::size_t i = 0; i < k; ++i) {
                const std::size_t cl = order[i];
                if (gap[cl] > reach) {
                    skipped = gap[cl] - upper[f];
                    break;
                }
                const double d2 =
                    sqDist(features, f, centroids, cl, dims);
                if (d2 < bestD2 || (d2 == bestD2 && cl < best)) {
                    secondD2 = bestD2;
                    bestD2 = d2;
                    best = cl;
                } else if (d2 < secondD2) {
                    secondD2 = d2;
                }
            }
            upper[f] = std::sqrt(bestD2);
            lower[f] = std::min(std::sqrt(secondD2), skipped);
            if (own != best) {
                labels[f] = best;
                workerMoved[w * k + own] = 1;
                workerMoved[w * k + best] = 1;
            }
        });
        bool changed = false;
        for (std::size_t cl = 0; cl < k; ++cl) {
            moved[cl] = 0;
            for (std::size_t w = 0; w < pool.workers(); ++w)
                moved[cl] |= workerMoved[w * k + cl];
            changed = changed || moved[cl] != 0;
        }
        if (!changed)
            break;
    }

    // Final bookkeeping: sizes and inertia for the final labels.
    std::fill(result.sizes.begin(), result.sizes.end(), 0);
    result.inertia = 0.0;
    for (std::size_t f = 0; f < n; ++f) {
        ++result.sizes[labels[f]];
        result.inertia +=
            sqDist(features, f, centroids, labels[f], dims);
    }
    return result;
}

double
bicScore(const FeatureMatrix &features, const KMeansResult &clustering)
{
    // x-means style BIC under identical spherical Gaussians: data
    // log-likelihood minus (parameters / 2) * log n.
    const double n = static_cast<double>(features.rows());
    const double d = static_cast<double>(features.cols());
    const double k = static_cast<double>(clustering.k);
    if (features.rows() == 0)
        return 0.0;

    const double denom =
        d * std::max(1.0, n - k);
    double variance = clustering.inertia / denom;
    variance = std::max(variance, 1e-12);

    double ll = 0.0;
    for (std::size_t cl = 0; cl < clustering.k; ++cl) {
        const double ni =
            static_cast<double>(clustering.sizes[cl]);
        if (ni <= 0.0)
            continue;
        ll += ni * std::log(ni) - ni * std::log(n) -
              ni * d / 2.0 *
                  std::log(2.0 * 3.141592653589793 * variance) -
              (ni - 1.0) * d / 2.0;
    }
    const double params = k * (d + 1.0);
    return ll - params / 2.0 * std::log(n);
}

SelectionResult
selectClustering(const FeatureMatrix &features,
                 const SelectorConfig &config)
{
    SelectionResult sel;
    const std::size_t maxK = std::min(
        std::max<std::size_t>(1, config.maxClusters),
        std::max<std::size_t>(1, features.rows()));

    // One ordered job over every (k, restart) pair in ascending k:
    // item i runs restart i % restarts of k = i / restarts + 1.
    // Workers only produce BICs. The commit, on this thread in item
    // order, replays best-of-restarts (which guards the BIC curve
    // against one unlucky k-means++ draw ending the search) and the
    // patience rule exactly as a serial sweep would, so the trace and
    // the chosen k are bit-identical at any thread count. Once
    // patience fires, the items still queued return without running.
    // Each item runs its kmeans inline (nested pool use is serial).
    exec::Pool &pool = exec::Pool::global();
    const std::size_t restarts =
        std::max<std::size_t>(1, config.restarts);
    auto kmeansConfig = [&](std::size_t k, std::size_t restart) {
        KMeansConfig kc = config.kmeans;
        kc.seed = sim::hashMix(config.kmeans.seed, k, restart);
        return kc;
    };
    std::atomic<bool> stopped{false};
    std::vector<std::size_t> bestRestart; // per trace entry
    double stepBic = 0.0;
    std::size_t stepRestart = 0;
    double bestBic = -std::numeric_limits<double>::max();
    std::size_t decreases = 0;
    (void)pool.parallelMapOrdered<double>(
        maxK * restarts,
        [&](std::size_t i,
            std::size_t) -> resilience::Expected<double> {
            if (stopped.load())
                return 0.0;
            const std::size_t k = i / restarts + 1;
            return bicScore(
                features,
                kmeans(features, k, kmeansConfig(k, i % restarts)));
        },
        [&](std::size_t i, double &&bic) {
            if (stopped.load())
                return;
            const std::size_t restart = i % restarts;
            if (restart == 0)
                stepBic = -std::numeric_limits<double>::max();
            if (bic > stepBic) {
                stepBic = bic;
                stepRestart = restart;
            }
            if (restart + 1 < restarts)
                return;
            sel.trace.push_back(SelectionStep{stepBic});
            bestRestart.push_back(stepRestart);
            if (stepBic > bestBic) {
                bestBic = stepBic;
                decreases = 0;
            } else if (++decreases > config.patience) {
                stopped.store(true);
            }
        });

    // The spread threshold T picks the smallest k whose BIC clears
    // min + T * (max - min) of the explored range (Sec. III-F).
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

    // Only the chosen clustering is kept; kmeans is deterministic, so
    // re-running its best restart reproduces it exactly.
    const std::size_t k = sel.chosenIndex + 1;
    sel.clustering = kmeans(
        features, k, kmeansConfig(k, bestRestart[sel.chosenIndex]));
    return sel;
}

RepresentativeSet
representativeSet(const FeatureMatrix &features,
                  const KMeansResult &clustering)
{
    RepresentativeSet reps;
    const std::size_t dims = features.cols();
    for (std::size_t cl = 0; cl < clustering.k; ++cl) {
        std::size_t best = static_cast<std::size_t>(-1);
        double bestD2 = std::numeric_limits<double>::max();
        for (std::size_t f = 0; f < features.rows(); ++f) {
            if (clustering.labels[f] != cl)
                continue;
            const double d2 =
                sqDist(features, f, clustering.centroids, cl, dims);
            if (d2 < bestD2) {
                bestD2 = d2;
                best = f;
            }
        }
        if (best == static_cast<std::size_t>(-1))
            continue; // empty cluster
        reps.frames.push_back(best);
        reps.weights.push_back(
            static_cast<double>(clustering.sizes[cl]));
    }
    return reps;
}

RankedClusters
rankClusterMembers(const FeatureMatrix &features,
                   const KMeansResult &clustering)
{
    RankedClusters ranked;
    const std::size_t dims = features.cols();
    for (std::size_t cl = 0; cl < clustering.k; ++cl) {
        std::vector<std::pair<double, std::size_t>> members;
        for (std::size_t f = 0; f < features.rows(); ++f) {
            if (clustering.labels[f] != cl)
                continue;
            members.emplace_back(
                sqDist(features, f, clustering.centroids, cl, dims),
                f);
        }
        if (members.empty())
            continue; // empty cluster
        std::sort(members.begin(), members.end());
        std::vector<std::size_t> frames;
        frames.reserve(members.size());
        for (const auto &[d2, f] : members)
            frames.push_back(f);
        ranked.members.push_back(std::move(frames));
        ranked.weights.push_back(
            static_cast<double>(clustering.sizes[cl]));
    }
    return ranked;
}

} // namespace msim::megsim
