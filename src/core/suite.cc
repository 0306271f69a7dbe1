#include "core/megsim.hh"

#include <algorithm>
#include <cmath>

#include "obs/attrib.hh"
#include "obs/profile.hh"
#include "sim/logging.hh"

namespace msim::megsim
{

PooledFeatures
poolFeatures(const std::vector<const FeatureMatrix *> &normalized)
{
    std::size_t maxVs = 0;
    std::size_t maxFs = 0;
    std::size_t total = 0;
    for (const FeatureMatrix *m : normalized) {
        maxVs = std::max(maxVs, m->vsDims());
        maxFs = std::max(maxFs, m->fsDims());
        total += m->rows();
    }

    PooledFeatures pooled;
    pooled.features = FeatureMatrix(total, maxVs, maxFs);
    pooled.bench.reserve(total);
    pooled.frame.reserve(total);
    pooled.firstRow.reserve(normalized.size());
    pooled.frames.reserve(normalized.size());

    std::size_t row = 0;
    for (std::size_t b = 0; b < normalized.size(); ++b) {
        const FeatureMatrix &m = *normalized[b];
        pooled.firstRow.push_back(row);
        pooled.frames.push_back(m.rows());
        for (std::size_t f = 0; f < m.rows(); ++f, ++row) {
            for (std::size_t d = 0; d < m.vsDims(); ++d)
                pooled.features.at(row, d) = m.at(f, d);
            for (std::size_t d = 0; d < m.fsDims(); ++d)
                pooled.features.at(row, maxVs + d) =
                    m.at(f, m.vsDims() + d);
            pooled.features.at(row, maxVs + maxFs) =
                m.at(f, m.vsDims() + m.fsDims());
            pooled.bench.push_back(b);
            pooled.frame.push_back(f);
        }
    }
    return pooled;
}

SuiteClustering
suiteFromClustering(const PooledFeatures &pooled,
                    const FeatureMatrix &clustered,
                    const KMeansResult &clustering)
{
    if (clustering.labels.size() != pooled.features.rows())
        sim::fatal("suite clustering labels %zu frames but the pool "
                   "holds %zu",
                   clustering.labels.size(), pooled.features.rows());

    SuiteClustering suite;
    const RepresentativeSet reps =
        representativeSet(clustered, clustering);

    // representativeSet walks clusters in index order and skips the
    // empty ones, so representative r is the r-th non-empty cluster.
    std::vector<std::size_t> repOfCluster(clustering.k,
                                          clustering.k);
    suite.representatives.reserve(reps.size());
    std::size_t r = 0;
    for (std::size_t cl = 0; cl < clustering.k; ++cl) {
        if (clustering.sizes[cl] == 0)
            continue;
        repOfCluster[cl] = r;
        const std::size_t pooledRow = reps.frames[r];
        suite.representatives.push_back(
            SuiteRepresentative{cl, pooled.bench[pooledRow],
                                pooled.frame[pooledRow],
                                reps.weights[r]});
        ++r;
    }

    suite.memberCounts.assign(
        pooled.numBenches(),
        std::vector<double>(suite.representatives.size(), 0.0));
    for (std::size_t row = 0; row < clustering.labels.size(); ++row) {
        const std::size_t rep = repOfCluster[clustering.labels[row]];
        suite.memberCounts[pooled.bench[row]][rep] += 1.0;
    }
    return suite;
}

SuiteClustering
clusterSuite(const PooledFeatures &pooled, const MegsimConfig &config,
             std::uint64_t seed)
{
    obs::PhaseProfiler::Scoped scope(obs::PhaseProfiler::global(),
                                     "clustering");
    obs::AttribScope analyzeScope(obs::HostDomain::Analyze);

    const FeatureMatrix projected =
        randomProject(pooled.features, config.projectedDims);

    SelectorConfig selector = config.selector;
    if (seed != 0)
        selector.kmeans.seed = seed;

    SelectionResult selection = selectClustering(projected, selector);
    SuiteClustering suite =
        suiteFromClustering(pooled, projected, selection.chosen());
    suite.selection = std::move(selection);
    return suite;
}

double
foldBackErrorPercent(const std::vector<double> &counts,
                     const std::vector<double> &repValues,
                     double truthTotal)
{
    if (counts.size() != repValues.size())
        sim::fatal("fold-back sizes disagree: %zu counts vs %zu "
                   "representative values",
                   counts.size(), repValues.size());

    double estimated = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i)
        estimated += counts[i] * repValues[i];

    if (truthTotal == 0.0)
        return 0.0;
    return std::fabs(estimated - truthTotal) / truthTotal * 100.0;
}

} // namespace msim::megsim
