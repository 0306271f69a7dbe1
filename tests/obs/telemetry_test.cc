/**
 * @file
 * Unit tests for the run-telemetry layer: per-worker host timelines
 * (TimelineRecorder + Chrome export), host-cost attribution
 * (AttribRoot/AttribScope + obs.host.* flush), and the strict
 * megsim-run-v1 JSONL run ledger.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "exec/pool.hh"
#include "obs/attrib.hh"
#include "obs/ledger.hh"
#include "obs/profile.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "resilience/expected.hh"

using namespace msim;
using namespace msim::obs;

namespace
{

/** Telemetry flags are process globals: restore them per test. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        timelineWas_ = timelineEnabled();
        attribWas_ = hostAttribEnabled();
    }

    void
    TearDown() override
    {
        setTimelineEnabled(timelineWas_);
        setHostAttribEnabled(attribWas_);
        setAttribClock(nullptr);
    }

  private:
    bool timelineWas_ = false;
    bool attribWas_ = false;
};

/** A test clock for attribution: tests step it by hand. */
double gTestNow = 0.0;

double
testClock()
{
    return gTestNow;
}

/** Burn a little wall time so attributed seconds are non-zero. */
double
spin(double seconds)
{
    const double until = wallSeconds() + seconds;
    double sink = 0.0;
    while (wallSeconds() < until)
        sink += std::sqrt(sink + 1.0);
    return sink;
}

} // namespace

TEST_F(TelemetryTest, TimelineDisabledRecordsNothing)
{
    setTimelineEnabled(false);
    TimelineRecorder recorder(1);
    recorder.record("x", 0.0, 1.0);
    {
        TimelineOverride redirect(recorder);
        TimelineRecorder::Span span("y");
    }
    EXPECT_EQ(recorder.size(), 0u);
}

TEST_F(TelemetryTest, TimelineMergePreservesTracks)
{
    setTimelineEnabled(true);
    TimelineRecorder caller(0);
    TimelineRecorder worker(3);
    worker.record("chunk", 1.0, 2.0, 16);
    caller.record("wait", 0.5, 2.5);
    caller.mergeFrom(worker);
    EXPECT_EQ(worker.size(), 0u) << "merge moves, not copies";
    ASSERT_EQ(caller.size(), 2u);
    EXPECT_EQ(caller.spans()[0].track, 0u);
    EXPECT_EQ(caller.spans()[1].track, 3u);
    EXPECT_EQ(caller.spans()[1].arg, 16u);
}

TEST_F(TelemetryTest, TimelineOverrideRedirectsSpans)
{
    setTimelineEnabled(true);
    TimelineRecorder shard(2);
    {
        TimelineOverride redirect(shard);
        TimelineRecorder::Span span("inner", 7, "detail");
    }
    ASSERT_EQ(shard.size(), 1u);
    EXPECT_STREQ(shard.spans()[0].name, "inner");
    EXPECT_EQ(shard.spans()[0].track, 2u);
    EXPECT_EQ(shard.spans()[0].arg, 7u);
    EXPECT_EQ(shard.spans()[0].detail, "detail");
    EXPECT_GE(shard.spans()[0].end, shard.spans()[0].begin);
}

TEST_F(TelemetryTest, ChromeExportHasOneLanePerWorker)
{
    std::vector<HostSpan> spans;
    spans.push_back(HostSpan{"job", "", 1, 10.0, 10.5, 3});
    spans.push_back(HostSpan{"job", "alias", 0, 10.1, 10.2, 0});
    std::ostringstream os;
    writeTimelineChrome(os, spans, 4);
    const std::string text = os.str();
    // Metadata names every worker lane even if it recorded nothing.
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("worker 0 (caller)"), std::string::npos);
    EXPECT_NE(text.find("worker 1"), std::string::npos);
    EXPECT_NE(text.find("worker 3"), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    // Timestamps are relative to the earliest span begin.
    EXPECT_NE(text.find("\"ts\":0"), std::string::npos);
}

TEST_F(TelemetryTest, PoolJobSpansLandOnWorkerTracks)
{
    setTimelineEnabled(true);
    TimelineRecorder::global().clear();
    exec::Pool pool(4);
    // Static chunking pins a contiguous range to each worker, so every
    // worker thread is guaranteed to record a chunk span — under
    // dynamic chunking a fast caller can drain a trivial job before
    // the workers even wake.
    auto err = pool.parallelFor(
        64,
        [](std::size_t, std::size_t) -> resilience::Expected<void> {
            TimelineRecorder::Span span("item");
            return {};
        },
        exec::Chunking::Static);
    ASSERT_TRUE(err.ok());
    const std::vector<HostSpan> &spans =
        TimelineRecorder::global().spans();
    ASSERT_FALSE(spans.empty());
    bool sawChunk = false;
    bool sawNonCallerTrack = false;
    for (const HostSpan &s : spans) {
        EXPECT_LT(s.track, 4u);
        if (std::string(s.name) == "pool.chunk")
            sawChunk = true;
        if (s.track > 0)
            sawNonCallerTrack = true;
    }
    EXPECT_TRUE(sawChunk) << "pool chunks are recorded as spans";
    EXPECT_TRUE(sawNonCallerTrack)
        << "worker shards keep their own track ids through the merge";
    TimelineRecorder::global().clear();
}

TEST_F(TelemetryTest, AttribDisabledLeavesRegistryUntouched)
{
    setHostAttribEnabled(false);
    StatsRegistry sandbox;
    {
        ProcessRegistryOverride redirect(sandbox);
        AttribRoot root;
        AttribScope scope(HostDomain::MemWalk);
        spin(0.001);
    }
    EXPECT_EQ(sandbox.find("obs.host.memwalk.seconds"), nullptr);
}

TEST_F(TelemetryTest, AttribExclusiveAccountingAndFlush)
{
    // The test clock makes the accounting exact: every step below is
    // a binary fraction, so each domain's seconds are exact sums.
    setHostAttribEnabled(true);
    setAttribClock(&testClock);
    gTestNow = 100.0;
    StatsRegistry sandbox;
    {
        ProcessRegistryOverride redirect(sandbox);
        AttribRoot root;
        gTestNow += 0.25; // other
        {
            AttribScope raster(HostDomain::Raster);
            gTestNow += 2.0;
            {
                // Nested scope: its time must NOT also count as
                // raster (exclusive accounting).
                AttribScope mem(HostDomain::MemWalk);
                gTestNow += 1.0;
            }
            gTestNow += 2.0;
        }
        gTestNow += 0.5; // other again
    }
    const Stat *other = sandbox.find("obs.host.other.seconds");
    const Stat *raster = sandbox.find("obs.host.raster.seconds");
    const Stat *mem = sandbox.find("obs.host.memwalk.seconds");
    ASSERT_NE(other, nullptr);
    ASSERT_NE(raster, nullptr);
    ASSERT_NE(mem, nullptr);
    EXPECT_EQ(other->value(), 0.75);
    EXPECT_EQ(raster->value(), 4.0);
    EXPECT_EQ(mem->value(), 1.0);
    EXPECT_DOUBLE_EQ(
        sandbox.find("obs.host.raster.entries")->value(), 1.0);
    EXPECT_DOUBLE_EQ(
        sandbox.find("obs.host.memwalk.entries")->value(), 1.0);
}

TEST_F(TelemetryTest, AttribSnapshotComputesNamedCoverage)
{
    setHostAttribEnabled(true);
    setAttribClock(&testClock);
    gTestNow = 10.0;
    StatsRegistry sandbox;
    ProcessRegistryOverride redirect(sandbox);
    {
        AttribRoot root;
        gTestNow += 1.0; // other
        AttribScope shade(HostDomain::Shade);
        gTestNow += 3.0;
    }
    const HostAttribSnapshot snap = readHostAttrib();
    EXPECT_EQ(snap.totalSeconds(), 4.0);
    EXPECT_EQ(snap.coverage(), 0.75);
    EXPECT_EQ(snap.seconds[static_cast<std::size_t>(
                  HostDomain::Shade)],
              3.0);
}

TEST_F(TelemetryTest, NestedAttribRootIsANoOp)
{
    setHostAttribEnabled(true);
    StatsRegistry sandbox;
    ProcessRegistryOverride redirect(sandbox);
    {
        AttribRoot outer;
        {
            AttribRoot inner; // must not close/flush the window
            AttribScope load(HostDomain::Load);
            spin(0.001);
        }
        // Window is still open: nothing flushed yet.
        EXPECT_EQ(sandbox.find("obs.host.load.seconds"), nullptr);
        AttribScope geom(HostDomain::Geometry);
        spin(0.001);
    }
    EXPECT_NE(sandbox.find("obs.host.load.seconds"), nullptr);
    EXPECT_NE(sandbox.find("obs.host.geometry.seconds"), nullptr);
}

TEST_F(TelemetryTest, LedgerRoundTripsThroughStrictParser)
{
    RunLedger ledger;
    {
        util::Json fields = util::Json::object();
        fields.set("tool", "test");
        fields.set("threads", 4);
        ledger.event("run_start", std::move(fields));
    }
    {
        util::Json fields = util::Json::object();
        fields.set("name", "clustering");
        fields.set("seconds", 1.25);
        ledger.event("phase", std::move(fields));
    }
    {
        util::Json values = util::Json::object();
        values.set("suite_reduction", 88.5);
        util::Json fields = util::Json::object();
        fields.set("values", std::move(values));
        ledger.event("metrics", std::move(fields));
    }
    {
        util::Json fields = util::Json::object();
        fields.set("wall_seconds", 2.5);
        fields.set("status", "ok");
        ledger.event("run_end", std::move(fields));
    }

    auto events = RunLedger::parse(ledger.serialize());
    ASSERT_TRUE(events.ok()) << events.error().message;
    ASSERT_EQ(events->size(), 4u);
    // seq is stamped monotonically.
    for (std::size_t i = 0; i < events->size(); ++i)
        EXPECT_EQ((*events)[i].find("seq")->asNumber(),
                  static_cast<double>(i));

    const LedgerSummary row = summarizeLedger("x.jsonl", *events);
    EXPECT_EQ(row.tool, "test");
    EXPECT_EQ(row.threads, 4u);
    EXPECT_EQ(row.status, "ok");
    EXPECT_DOUBLE_EQ(row.wallSeconds, 2.5);
    ASSERT_EQ(row.metrics.size(), 1u);
    EXPECT_EQ(row.metrics[0].first, "suite_reduction");
    EXPECT_DOUBLE_EQ(row.metrics[0].second, 88.5);

    // A ledger recorded while the fast-mem model existed still
    // validates, and its run keeps its own trajectory mode.
    const std::string legacy =
        "{\"schema\":\"megsim-run-v1\",\"seq\":0,"
        "\"event\":\"run_start\",\"t\":0,\"tool\":\"campaign\","
        "\"threads\":1,\"mem_mode\":\"fast\"}\n"
        "{\"schema\":\"megsim-run-v1\",\"seq\":1,"
        "\"event\":\"bench\",\"t\":0,\"alias\":\"hcr\","
        "\"frames\":6,\"mem_mode\":\"fast\","
        "\"exact_vs_fast\":{\"cycles\":1.5},\"audited_frames\":1}\n";
    auto old = RunLedger::parse(legacy);
    ASSERT_TRUE(old.ok()) << old.error().message;
    EXPECT_EQ(summarizeLedger("old.jsonl", *old).mode, "fast");
}

TEST_F(TelemetryTest, LedgerRejectsUnknownField)
{
    RunLedger ledger;
    util::Json fields = util::Json::object();
    fields.set("tool", "test");
    fields.set("threads", 1);
    ledger.event("run_start", std::move(fields));

    util::Json ev = ledger.events()[0];
    ev.set("drive_by_field", 1.0);
    auto valid = RunLedger::validateEvent(ev);
    ASSERT_FALSE(valid.ok());
    EXPECT_NE(valid.error().message.find("drive_by_field"),
              std::string::npos);

    // And parse() names the offending line.
    const std::string text = ledger.serialize() + ev.dump(0) + "\n";
    auto parsed = RunLedger::parse(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error().message.find("line 2"),
              std::string::npos);
}

TEST_F(TelemetryTest, LedgerRejectsMissingRequiredAndBadKinds)
{
    util::Json ev = util::Json::object();
    ev.set("schema", RunLedger::kSchema);
    ev.set("seq", 0);
    ev.set("event", "run_start");
    ev.set("t", 0.0);
    ev.set("tool", "test"); // threads missing
    auto missing = RunLedger::validateEvent(ev);
    ASSERT_FALSE(missing.ok());
    EXPECT_NE(missing.error().message.find("threads"),
              std::string::npos);

    ev.set("threads", "eight"); // wrong kind
    auto badKind = RunLedger::validateEvent(ev);
    ASSERT_FALSE(badKind.ok());
    EXPECT_NE(badKind.error().message.find("expected number"),
              std::string::npos);
}

TEST_F(TelemetryTest, LedgerRejectsUnknownEventAndBadSchema)
{
    util::Json ev = util::Json::object();
    ev.set("schema", RunLedger::kSchema);
    ev.set("seq", 0);
    ev.set("event", "no_such_event");
    ev.set("t", 0.0);
    EXPECT_FALSE(RunLedger::validateEvent(ev).ok());

    ev.set("event", "run_end");
    ev.set("schema", "megsim-run-v999");
    auto bad = RunLedger::validateEvent(ev);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, resilience::Errc::BadVersion);
}

TEST_F(TelemetryTest, EmptyLedgerIsTruncated)
{
    auto parsed = RunLedger::parse("");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, resilience::Errc::Truncated);
}

TEST_F(TelemetryTest, LedgerSaveLoadRoundTrip)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "megsim_telemetry_test";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "run.jsonl").string();

    RunLedger ledger;
    util::Json fields = util::Json::object();
    fields.set("tool", "test");
    fields.set("threads", 2);
    ledger.event("run_start", std::move(fields));
    ASSERT_TRUE(ledger.save(path).ok());

    auto events = RunLedger::load(path);
    ASSERT_TRUE(events.ok()) << events.error().message;
    EXPECT_EQ(events->size(), 1u);
    std::filesystem::remove_all(dir);
}
