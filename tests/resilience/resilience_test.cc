#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/megsim.hh"
#include "obs/stats.hh"
#include "resilience/artifact.hh"
#include "resilience/checkpoint.hh"
#include "resilience/checksum.hh"
#include "resilience/degrade.hh"
#include "resilience/expected.hh"
#include "resilience/fault.hh"
#include "util/csv.hh"
#include "workloads/workloads.hh"

using namespace msim;
using namespace msim::resilience;

namespace
{

/** Fresh per-test scratch directory; faults disarmed on both ends. */
class ResilienceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FaultInjector::setGlobalSpec("");
        dir_ = std::filesystem::temp_directory_path() /
               ("megsim_resilience_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        FaultInjector::setGlobalSpec("");
        std::filesystem::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

util::CsvTable
sampleTable()
{
    util::CsvTable table;
    table.header = {"a", "b", "c"};
    table.rows = {{1.0, 2.0, 3.0}, {4.5, -6.0, 7.25}, {8.0, 9.0, 10.0}};
    return table;
}

std::string
slurp(const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return text;
}

void
spit(const std::string &p, const std::string &text)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << text;
}

} // namespace

TEST(Expected, HoldsValueOrError)
{
    Expected<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(*good, 7);

    Expected<int> bad(errorf(Errc::Truncated, "only %d rows", 3));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, Errc::Truncated);
    EXPECT_EQ(bad.error().message, "only 3 rows");

    Expected<void> fine;
    EXPECT_TRUE(fine.ok());
    Expected<void> broken(Error{Errc::Io, "disk on fire"});
    ASSERT_FALSE(broken.ok());
    EXPECT_EQ(broken.error().code, Errc::Io);
    EXPECT_STREQ(errcName(Errc::BadChecksum), "bad-checksum");
}

TEST(ChecksumTest, Fnv1aMatchesReferenceAndSeesEveryByte)
{
    // Published FNV-1a 64 reference vectors.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);

    EXPECT_NE(fnv1a("megsim"), fnv1a("megsiM"));

    Checksum streaming;
    streaming.update("meg");
    streaming.update("sim");
    EXPECT_EQ(streaming.digest(), fnv1a("megsim"));
}

TEST(FaultSpec, ParsesClausesAndRejectsGarbage)
{
    auto multi = FaultInjector::parse(
        "io.read:p=0.5,seed=7; frame.hang:frame=42 ;cache.corrupt");
    ASSERT_TRUE(multi.ok());
    EXPECT_EQ(multi->clauseCount(), 3u);

    EXPECT_TRUE(FaultInjector::parse("").ok());
    EXPECT_FALSE(FaultInjector::parse("disk.melt").ok());
    EXPECT_FALSE(FaultInjector::parse("io.read:banana").ok());
    EXPECT_FALSE(FaultInjector::parse("io.read:volume=11").ok());
}

TEST_F(ResilienceTest, FaultMatchingRespectsKindAndProbability)
{
    FaultInjector::setGlobalSpec("cache.corrupt:kind=stats");
    EXPECT_TRUE(FaultInjector::global().corruptCache("stats"));
    EXPECT_FALSE(FaultInjector::global().corruptCache("activity"));

    // p=0 never fires, p=1 always does.
    FaultInjector::setGlobalSpec("io.read:p=0");
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(FaultInjector::global().failRead("x.csv"));
    FaultInjector::setGlobalSpec("io.read");
    EXPECT_TRUE(FaultInjector::global().failRead("x.csv"));

    // A bad spec must arm nothing rather than half-arm.
    FaultInjector::setGlobalSpec("io.read; disk.melt");
    EXPECT_FALSE(FaultInjector::global().enabled());

    FaultInjector::setGlobalSpec("frame.hang:frame=3");
    EXPECT_FALSE(FaultInjector::global().hangFrame(2));
    EXPECT_TRUE(FaultInjector::global().hangFrame(3));
}

TEST_F(ResilienceTest, ArtifactRoundTrips)
{
    const util::CsvTable table = sampleTable();
    ASSERT_TRUE(
        writeCsvArtifact(path("a.csv"), table, 0xfeedULL, "stats").ok());

    auto loaded = readCsvArtifact(path("a.csv"), 0xfeedULL, "stats");
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->header, table.header);
    EXPECT_EQ(loaded->rows, table.rows);

    // No temp file left behind by the atomic write.
    EXPECT_FALSE(std::filesystem::exists(path("a.csv") + ".tmp"));
}

TEST_F(ResilienceTest, ArtifactDetectsMissingStaleAndCorrupt)
{
    const util::CsvTable table = sampleTable();
    ASSERT_TRUE(
        writeCsvArtifact(path("a.csv"), table, 0xfeedULL, "stats").ok());
    const std::string pristine = slurp(path("a.csv"));

    auto missing = readCsvArtifact(path("nope.csv"), 0xfeedULL, "stats");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, Errc::NotFound);

    auto stale = readCsvArtifact(path("a.csv"), 0xbeefULL, "stats");
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.error().code, Errc::BadFingerprint);

    // Truncation: drop the last full row.
    std::string cut = pristine;
    cut.erase(cut.find_last_of('\n', cut.size() - 2) + 1);
    spit(path("a.csv"), cut);
    auto truncated = readCsvArtifact(path("a.csv"), 0xfeedULL, "stats");
    ASSERT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.error().code, Errc::Truncated);

    // Bit rot: flip one payload digit (CSV still parses).
    std::string flipped = pristine;
    const std::size_t digit = flipped.find("4.5");
    ASSERT_NE(digit, std::string::npos);
    flipped[digit] = '9';
    spit(path("a.csv"), flipped);
    auto rotten = readCsvArtifact(path("a.csv"), 0xfeedULL, "stats");
    ASSERT_FALSE(rotten.ok());
    EXPECT_EQ(rotten.error().code, Errc::BadChecksum);

    // Injected corruption via the fault layer.
    spit(path("a.csv"), pristine);
    FaultInjector::setGlobalSpec("cache.corrupt:kind=stats");
    auto injected = readCsvArtifact(path("a.csv"), 0xfeedULL, "stats");
    ASSERT_FALSE(injected.ok());
    EXPECT_EQ(injected.error().code, Errc::Injected);
}

TEST_F(ResilienceTest, AtomicWriteSurvivesInjectedWriteFailure)
{
    const util::CsvTable table = sampleTable();
    ASSERT_TRUE(
        writeCsvArtifact(path("a.csv"), table, 1ULL, "stats").ok());
    const std::string pristine = slurp(path("a.csv"));

    FaultInjector::setGlobalSpec("io.write");
    EXPECT_FALSE(
        writeCsvArtifact(path("a.csv"), sampleTable(), 2ULL, "stats")
            .ok());
    // The failed write must not have clobbered the existing artifact.
    EXPECT_EQ(slurp(path("a.csv")), pristine);
}

TEST_F(ResilienceTest, CheckpointRoundTripsAndIgnoresTornTail)
{
    const std::vector<std::vector<double>> stats = {
        {0, 10.5}, {1, 11.5}, {2, 12.5}};
    const std::vector<std::vector<double>> acts = {
        {0, 1}, {1, 2}, {2, 3}};

    {
        Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2);
        EXPECT_EQ(ckpt.resume(), 0u);
        for (std::size_t f = 0; f < 3; ++f)
            ckpt.append(stats[f], acts[f]);
        EXPECT_EQ(ckpt.frames(), 3u);
    }

    // A kill mid-append leaves at worst a torn journal line.
    {
        std::ofstream torn(path("bench") + ".ckpt.stats.jnl",
                           std::ios::app);
        torn << "3,13.5"; // no checksum, no newline
    }

    Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2);
    EXPECT_EQ(ckpt.resume(), 3u);
    EXPECT_EQ(ckpt.statsRows(), stats);
    EXPECT_EQ(ckpt.activityRows(), acts);

    // Appending after resume continues the sequence.
    ckpt.append({3, 13.5}, {3, 4});
    EXPECT_EQ(ckpt.frames(), 4u);

    ckpt.discard();
    EXPECT_FALSE(
        std::filesystem::exists(path("bench") + ".ckpt.manifest"));
    EXPECT_FALSE(
        std::filesystem::exists(path("bench") + ".ckpt.stats.jnl"));
}

TEST_F(ResilienceTest, CheckpointRejectsForeignManifest)
{
    {
        Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2);
        ckpt.resume();
        ckpt.append({0, 1}, {0, 1});
    }
    // Same stem, different scene/config fingerprint: start over.
    Checkpoint other(path("bench"), 0xdefULL, 5, 2, 2);
    EXPECT_EQ(other.resume(), 0u);
}

TEST_F(ResilienceTest, CheckpointDecodersSurviveMutatedInput)
{
    // Deterministic mutation harness over the manifest and both
    // journals: whatever the bytes, resume() returns, the rows it
    // recovers are a prefix of the rows written, and a following
    // append + resume round-trips.
    const std::vector<std::vector<double>> stats = {
        {0, 10.5, 1e20}, {1, -11.25, 0.1}, {2, 1.0 / 3, 7},
        {3, 5e-324, -0.0}, {4, 123456789.0, 2.5}};
    const std::vector<std::vector<double>> acts = {
        {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
    constexpr std::size_t kWritten = 4;
    const std::string stem = path("bench");
    const std::string manifest = stem + ".ckpt.manifest";
    const std::string statsJnl = stem + ".ckpt.stats.jnl";
    const std::string actsJnl = stem + ".ckpt.activity.jnl";
    {
        Checkpoint ckpt(stem, 0xabcULL, 6, 3, 2);
        ASSERT_EQ(ckpt.resume(), 0u);
        for (std::size_t f = 0; f < kWritten; ++f)
            ckpt.append(stats[f], acts[f]);
    }
    const std::vector<std::string> files = {manifest, statsJnl, actsJnl};
    std::vector<std::string> pristine;
    for (const std::string &f : files)
        pristine.push_back(slurp(f));

    std::size_t cases = 0;
    // Install @p mutated as file @p k (the others pristine), resume,
    // and return the number of frames recovered.
    auto check = [&](std::size_t k, const std::string &mutated,
                     const std::string &what) -> std::size_t {
        ++cases;
        for (std::size_t i = 0; i < files.size(); ++i)
            spit(files[i], i == k ? mutated : pristine[i]);
        std::size_t n = 0;
        {
            Checkpoint ckpt(stem, 0xabcULL, 6, 3, 2);
            n = ckpt.resume();
            EXPECT_LE(n, kWritten) << what;
            if (n > kWritten)
                return n;
            EXPECT_EQ(ckpt.statsRows(),
                      std::vector<std::vector<double>>(
                          stats.begin(), stats.begin() + n))
                << what;
            EXPECT_EQ(ckpt.activityRows(),
                      std::vector<std::vector<double>>(
                          acts.begin(), acts.begin() + n))
                << what;
            ckpt.append(stats[n], acts[n]);
        }
        Checkpoint again(stem, 0xabcULL, 6, 3, 2);
        EXPECT_EQ(again.resume(), n + 1) << what;
        EXPECT_EQ(again.statsRows(),
                  std::vector<std::vector<double>>(
                      stats.begin(), stats.begin() + n + 1))
            << what;
        EXPECT_EQ(again.activityRows(),
                  std::vector<std::vector<double>>(
                      acts.begin(), acts.begin() + n + 1))
            << what;
        return n;
    };

    auto lines = [](const std::string &text) {
        std::vector<std::string> out;
        std::size_t pos = 0;
        while (pos < text.size()) {
            const std::size_t eol = text.find('\n', pos);
            out.push_back(text.substr(pos, eol + 1 - pos));
            pos = eol + 1;
        }
        return out;
    };
    auto join = [](const std::vector<std::string> &parts) {
        std::string text;
        for (const std::string &p : parts)
            text += p;
        return text;
    };

    ::testing::internal::CaptureStderr(); // one warning per case
    EXPECT_EQ(check(0, pristine[0], "pristine"), kWritten);

    for (std::size_t k = 0; k < files.size(); ++k) {
        const std::string &text = pristine[k];
        for (std::size_t len = 0; len < text.size(); ++len)
            check(k, text.substr(0, len),
                  files[k] + " truncated at " + std::to_string(len));
        for (std::size_t i = 0; i < text.size(); ++i) {
            for (unsigned char bits : {0x01, 0xFF}) {
                std::string flipped = text;
                flipped[i] = static_cast<char>(
                    static_cast<unsigned char>(flipped[i]) ^ bits);
                check(k, flipped,
                      files[k] + " byte " + std::to_string(i) + " ^ " +
                          std::to_string(bits));
            }
        }
    }

    // Line edits: a line only verifies at its own position, so the
    // recovered prefix ends exactly at the first edited line.
    for (std::size_t k = 1; k < files.size(); ++k) {
        const std::vector<std::string> orig = lines(pristine[k]);
        ASSERT_EQ(orig.size(), kWritten);
        for (std::size_t j = 0; j < orig.size(); ++j) {
            std::vector<std::string> dup = orig;
            dup.insert(dup.begin() + static_cast<long>(j), orig[j]);
            EXPECT_EQ(check(k, join(dup), "dup " + std::to_string(j)),
                      j + 1);
            std::vector<std::string> drop = orig;
            drop.erase(drop.begin() + static_cast<long>(j));
            EXPECT_EQ(check(k, join(drop), "drop " + std::to_string(j)),
                      j);
            if (j + 1 < orig.size()) {
                std::vector<std::string> swap = orig;
                std::swap(swap[j], swap[j + 1]);
                EXPECT_EQ(
                    check(k, join(swap), "swap " + std::to_string(j)), j);
            }
        }
    }

    // A row of the wrong width with a valid checksum at its position:
    // the same frames journaled with one more stats column.
    {
        const std::string wideStem = path("wide");
        {
            Checkpoint wide(wideStem, 0xabcULL, 6, 4, 2);
            wide.resume();
            for (std::size_t f = 0; f < kWritten; ++f) {
                std::vector<double> row = stats[f];
                row.push_back(9.0);
                wide.append(row, acts[f]);
            }
        }
        const std::vector<std::string> wideLines =
            lines(slurp(wideStem + ".ckpt.stats.jnl"));
        const std::vector<std::string> orig = lines(pristine[1]);
        for (std::size_t j = 0; j < kWritten; ++j) {
            std::vector<std::string> edited = orig;
            edited[j] = wideLines[j];
            EXPECT_EQ(check(1, join(edited), "wide " + std::to_string(j)),
                      j);
        }
    }

    // A v1 manifest (with its `frames` line) is not this run's.
    {
        char v1[256];
        std::snprintf(v1, sizeof(v1),
                      "megsim-checkpoint v1\nfingerprint %016x\n"
                      "total 6 stats_cols 3 activity_cols 2\nframes 4\n",
                      0xabcu);
        EXPECT_EQ(check(0, v1, "v1 manifest"), 0u);
    }
    ::testing::internal::GetCapturedStderr();
    // Every byte was truncated at and flipped twice.
    EXPECT_GT(cases, 3 * (pristine[0].size() + pristine[1].size() +
                          pristine[2].size()));
}

TEST_F(ResilienceTest, GroundTruthCommitCountsCrossCheckMismatches)
{
    // The timing model's activity must agree with its own stats on
    // every committed frame; a doctored frame moves the counter and is
    // still committed.
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 3);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();
    obs::Scalar &mismatches = obs::processRegistry().scalar(
        "megsim.ground_truth.crosscheck_mismatches", "");

    megsim::BenchmarkData data(scene, config, "");
    megsim::GroundTruthPass gt(data, 1);
    ASSERT_EQ(gt.remaining(), 3u);
    const double before = mismatches.value();

    auto frame0 = gt.produce(0, 0);
    ASSERT_TRUE(frame0.ok());
    gt.commit(0, std::move(*frame0));
    EXPECT_EQ(mismatches.value(), before);

    auto frame1 = gt.produce(1, 0);
    ASSERT_TRUE(frame1.ok());
    frame1->activity.fsCounts.at(0) += 1; // fs sum != fs invocations
    ::testing::internal::CaptureStderr();
    gt.commit(1, std::move(*frame1));
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(mismatches.value(), before + 1.0);
    EXPECT_NE(warning.find("frame 1"), std::string::npos) << warning;

    auto frame2 = gt.produce(2, 0);
    ASSERT_TRUE(frame2.ok());
    frame2->stats.primitives += 1;
    ::testing::internal::CaptureStderr();
    gt.commit(2, std::move(*frame2));
    ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(mismatches.value(), before + 2.0);

    gt.finish();
    EXPECT_EQ(data.frameStats().size(), 3u);
}

TEST_F(ResilienceTest, GroundTruthSurvivesSigkillAndResumesIdentically)
{
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 5);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    // Uninterrupted reference, no caching involved.
    megsim::BenchmarkData reference(scene, config, "");
    const std::vector<gpusim::FrameStats> expected =
        reference.frameStats();
    ASSERT_EQ(expected.size(), 5u);

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // In the child: die by injected SIGKILL right after frame 2
        // is checkpointed. Reaching _exit means the fault never fired.
        FaultInjector::setGlobalSpec("run.kill:frame=2");
        megsim::BenchmarkData doomed(scene, config, dir_.string());
        doomed.frameStats();
        _exit(42);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    const double resumedBefore =
        obs::processRegistry()
            .scalar("resilience.checkpoint.frames_resumed", "")
            .value();

    megsim::BenchmarkData survivor(scene, config, dir_.string());
    const std::vector<gpusim::FrameStats> resumed =
        survivor.frameStats();
    ASSERT_EQ(resumed.size(), expected.size());
    for (std::size_t f = 0; f < expected.size(); ++f)
        EXPECT_EQ(resumed[f].toCsvRow(), expected[f].toCsvRow())
            << "frame " << f;

    // Frames 0..2 came from the checkpoint, not recomputation.
    EXPECT_EQ(obs::processRegistry()
                  .scalar("resilience.checkpoint.frames_resumed", "")
                  .value(),
              resumedBefore + 3.0);

    // The finished pass cleans its checkpoint up and leaves caches.
    const std::string statsPath = survivor.cachePath("stats");
    const std::string stem =
        statsPath.substr(0, statsPath.rfind("_stats"));
    EXPECT_FALSE(std::filesystem::exists(stem + ".ckpt.manifest"));
    EXPECT_TRUE(std::filesystem::exists(statsPath));
}

TEST_F(ResilienceTest, KillBetweenCacheStoresKeepsJournalForResume)
{
    // The exact window the discard-ordering fix covers: the stats
    // cache has landed, the activity cache has not, and the journal
    // must still hold every committed frame.
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 5);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    megsim::BenchmarkData reference(scene, config, "");
    const std::vector<gpusim::FrameStats> expected =
        reference.frameStats();

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        FaultInjector::setGlobalSpec("run.kill:site=cache.store");
        megsim::BenchmarkData doomed(scene, config, dir_.string());
        doomed.frameStats();
        _exit(42);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    megsim::BenchmarkData survivor(scene, config, dir_.string());
    const std::string statsPath = survivor.cachePath("stats");
    const std::string stem =
        statsPath.substr(0, statsPath.rfind("_stats"));

    // Stats cache stored, activity cache missing — and the journal
    // survived the window, still resumable for all 5 frames.
    EXPECT_TRUE(std::filesystem::exists(statsPath));
    EXPECT_FALSE(
        std::filesystem::exists(survivor.cachePath("activity")));
    ASSERT_TRUE(std::filesystem::exists(stem + ".ckpt.manifest"));
    {
        Checkpoint ckpt(stem, survivor.cacheKey(), 5,
                        gpusim::FrameStats::csvHeader().size(),
                        4 + scene.numVertexShaders() +
                            scene.numFragmentShaders());
        EXPECT_EQ(ckpt.resume(), 5u);
    }

    // The next run completes with identical rows.
    const std::vector<gpusim::FrameStats> resumed =
        survivor.frameStats();
    ASSERT_EQ(resumed.size(), expected.size());
    for (std::size_t f = 0; f < expected.size(); ++f)
        EXPECT_EQ(resumed[f].toCsvRow(), expected[f].toCsvRow())
            << "frame " << f;
}

TEST_F(ResilienceTest, KillBeforeJournalDiscardLeavesLoadedCaches)
{
    // One tick later: both stores landed, the discard did not. The
    // caches must verify, and the stale journal must stay harmless.
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 5);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    megsim::BenchmarkData reference(scene, config, "");
    const std::vector<gpusim::FrameStats> expected =
        reference.frameStats();

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        FaultInjector::setGlobalSpec("run.kill:site=ckpt.discard");
        megsim::BenchmarkData doomed(scene, config, dir_.string());
        doomed.frameStats();
        _exit(42);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    megsim::BenchmarkData survivor(scene, config, dir_.string());
    EXPECT_TRUE(readCsvArtifact(survivor.cachePath("stats"),
                                survivor.cacheKey(), "stats")
                    .ok());
    EXPECT_TRUE(readCsvArtifact(survivor.cachePath("activity"),
                                survivor.cacheKey(), "activity")
                    .ok());
    EXPECT_EQ(survivor.probeCaches(), megsim::CacheProbe::Loaded);
    const std::vector<gpusim::FrameStats> loaded =
        survivor.frameStats();
    ASSERT_EQ(loaded.size(), expected.size());
    for (std::size_t f = 0; f < expected.size(); ++f)
        EXPECT_EQ(loaded[f].toCsvRow(), expected[f].toCsvRow())
            << "frame " << f;
}

TEST_F(ResilienceTest, CorruptedCacheIsDetectedAndRegenerated)
{
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 4);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    megsim::BenchmarkData writer(scene, config, dir_.string());
    const std::vector<gpusim::FrameStats> expected =
        writer.frameStats();
    ASSERT_TRUE(std::filesystem::exists(writer.cachePath("stats")));

    // Flip a payload byte in the stats cache.
    std::string text = slurp(writer.cachePath("stats"));
    const std::size_t tail = text.find_last_of("0123456789");
    ASSERT_NE(tail, std::string::npos);
    text[tail] = text[tail] == '7' ? '8' : '7';
    spit(writer.cachePath("stats"), text);

    const double detectedBefore =
        obs::processRegistry()
            .scalar("resilience.cache.corrupt_detected", "")
            .value();

    megsim::BenchmarkData reader(scene, config, dir_.string());
    const std::vector<gpusim::FrameStats> regenerated =
        reader.frameStats();
    ASSERT_EQ(regenerated.size(), expected.size());
    for (std::size_t f = 0; f < expected.size(); ++f)
        EXPECT_EQ(regenerated[f].toCsvRow(), expected[f].toCsvRow());
    EXPECT_GT(obs::processRegistry()
                  .scalar("resilience.cache.corrupt_detected", "")
                  .value(),
              detectedBefore);

    // The regenerated artifact is valid again.
    EXPECT_TRUE(readCsvArtifact(reader.cachePath("stats"),
                                reader.cacheKey(), "stats")
                    .ok());
}

TEST_F(ResilienceTest, InjectedIoFaultsDegradeGracefully)
{
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 3);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    // io.read: a populated cache becomes unreadable; the pass
    // regenerates instead of trusting or crashing.
    megsim::BenchmarkData writer(scene, config, dir_.string());
    writer.frameStats();
    FaultInjector::setGlobalSpec("io.read");
    megsim::BenchmarkData blindReader(scene, config, dir_.string());
    EXPECT_EQ(blindReader.frameStats().size(), 3u);

    // io.write: nothing persists, but the run itself succeeds.
    FaultInjector::setGlobalSpec("io.write");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    megsim::BenchmarkData mute(scene, config, dir_.string());
    EXPECT_EQ(mute.frameStats().size(), 3u);
    EXPECT_FALSE(std::filesystem::exists(mute.cachePath("stats")));
}

TEST_F(ResilienceTest, RankClusterMembersOrdersByCentroidDistance)
{
    // Two well-separated 1-D clusters.
    megsim::FeatureMatrix m(6, 0, 0);
    const double values[6] = {0.0, 1.0, 0.5, 100.0, 101.0, 100.2};
    for (std::size_t f = 0; f < 6; ++f)
        m.at(f, 0) = values[f];

    megsim::KMeansConfig kc;
    const megsim::KMeansResult clustering = megsim::kmeans(m, 2, kc);
    const megsim::RankedClusters ranked =
        megsim::rankClusterMembers(m, clustering);
    const megsim::RepresentativeSet reps =
        megsim::representativeSet(m, clustering);

    ASSERT_EQ(ranked.members.size(), reps.frames.size());
    std::size_t total = 0;
    for (std::size_t c = 0; c < ranked.members.size(); ++c) {
        ASSERT_FALSE(ranked.members[c].empty());
        // The closest-ranked member is exactly the representative.
        EXPECT_EQ(ranked.members[c][0], reps.frames[c]);
        EXPECT_DOUBLE_EQ(ranked.weights[c], reps.weights[c]);
        total += ranked.members[c].size();
    }
    EXPECT_EQ(total, 6u);
}

TEST_F(ResilienceTest, DegradationFallsBackWithinTheCluster)
{
    megsim::RankedClusters ranked;
    ranked.members = {{0, 1, 2}, {3, 4}};
    ranked.weights = {3.0, 2.0};

    auto simulate = [](std::size_t frame) -> Expected<gpusim::FrameStats> {
        if (frame == 0)
            return errorf(Errc::FrameTimeout, "frame %zu hung", frame);
        gpusim::FrameStats stats;
        stats.cycles = 100 * (frame + 1);
        return stats;
    };

    auto estimate = estimateWithDegradation(
        ranked, gpusim::Metric::Cycles, simulate);
    ASSERT_TRUE(estimate.ok());
    // Cluster 0 fell back from frame 0 to frame 1; cluster 1 intact.
    EXPECT_EQ(estimate->frames, (std::vector<std::size_t>{1, 3}));
    EXPECT_DOUBLE_EQ(estimate->total, 3.0 * 200.0 + 2.0 * 400.0);
    EXPECT_TRUE(estimate->report.degraded());
    EXPECT_EQ(estimate->report.quarantined, 1u);
    EXPECT_EQ(estimate->report.fallbacks, 1u);
    EXPECT_EQ(estimate->report.exhausted, 0u);
    EXPECT_EQ(estimate->report.quarantinedFrames,
              (std::vector<std::size_t>{0}));

    // An exhausted cluster is dropped; all-exhausted is an error.
    auto alwaysFail =
        [](std::size_t frame) -> Expected<gpusim::FrameStats> {
        return errorf(Errc::FrameTimeout, "frame %zu hung", frame);
    };
    auto none = estimateWithDegradation(ranked, gpusim::Metric::Cycles,
                                        alwaysFail);
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.error().code, Errc::Exhausted);
}

TEST_F(ResilienceTest, HangFaultQuarantinesRepresentativeEndToEnd)
{
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 6);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();
    megsim::BenchmarkData data(scene, config, "");
    megsim::MegsimPipeline pipeline(data);
    const megsim::MegsimRun run = pipeline.run();
    ASSERT_FALSE(run.representatives.frames.empty());

    // Hang the first chosen representative; the estimate must still
    // come out, served by a fallback frame.
    const std::size_t victim = run.representatives.frames[0];
    FaultInjector::setGlobalSpec(
        "frame.hang:frame=" + std::to_string(victim));

    WatchdogConfig watchdog; // no budgets; only the injected hang
    auto estimate = estimateResilient(pipeline, run,
                                      gpusim::Metric::Cycles, watchdog);
    ASSERT_TRUE(estimate.ok());
    EXPECT_GT(estimate->total, 0.0);
    EXPECT_EQ(estimate->report.quarantined, 1u);
    EXPECT_EQ(estimate->report.quarantinedFrames,
              (std::vector<std::size_t>{victim}));
    for (std::size_t frame : estimate->frames)
        EXPECT_NE(frame, victim);

    // Without faults the same pass is clean and uses the original
    // representatives.
    FaultInjector::setGlobalSpec("");
    auto clean = estimateResilient(pipeline, run,
                                   gpusim::Metric::Cycles, watchdog);
    ASSERT_TRUE(clean.ok());
    EXPECT_FALSE(clean->report.degraded());
    EXPECT_EQ(clean->frames[0], victim);
}

TEST_F(ResilienceTest, WatchdogCycleBudgetTimesOut)
{
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 2);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    WatchdogConfig tight;
    tight.cycleBudget = 1; // every real frame blows this
    GuardedFrameSimulator guarded(scene, config, tight);
    auto timedOut = guarded.simulate(0);
    ASSERT_FALSE(timedOut.ok());
    EXPECT_EQ(timedOut.error().code, Errc::FrameTimeout);

    WatchdogConfig roomy; // budgets disabled
    GuardedFrameSimulator relaxed(scene, config, roomy);
    auto stats = relaxed.simulate(0);
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(stats->cycles, 1u);
}

TEST(WorkloadErrors, UnknownAliasSuggestsClosestMatch)
{
    auto spec = workloads::findBenchmarkSpec("bbr3");
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.error().code, Errc::UnknownAlias);
    EXPECT_NE(spec.error().message.find("did you mean 'bbr1'"),
              std::string::npos);
    EXPECT_NE(spec.error().message.find("asp"), std::string::npos);

    auto scene = workloads::tryBuildBenchmark("nope");
    ASSERT_FALSE(scene.ok());
    EXPECT_EQ(scene.error().code, Errc::UnknownAlias);
    // Nothing within distance 3 of "nope": no bogus suggestion.
    EXPECT_EQ(scene.error().message.find("did you mean"),
              std::string::npos);

    ASSERT_TRUE(workloads::findBenchmarkSpec("hcr").ok());
    EXPECT_TRUE(workloads::tryBuildBenchmark("hcr", 1.0, 1).ok());
}
