/**
 * @file
 * Self-tests of the flow benchmark's own machinery: self-time
 * arithmetic on a hand-built span tree, the metric-name charset (on
 * hand-picked names and on every name BENCHMARK.json declares), the
 * digest checker rejecting one perturbed value, and the workload-seed
 * override. Run from the repository root:
 *
 *   python3 flowbench/run.py --selftest
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "flow.hh"
#include "report.hh"
#include "trace.hh"
#include "util/json.hh"

namespace
{

using namespace flowbench;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

Span
span(const char *name, double start, double end, int parent, int run = 0)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.run = run;
    return s;
}

void
selfTimeArithmetic()
{
    // root [0,10] has children b [1,4] and c [3,6] (overlapping: they
    // cover [1,6] once) and d [8,11] (clipped to the parent at 10);
    // b has a child e [2,3]. A second root f [12,13].
    std::vector<Span> spans = {
        span("root", 0, 10, -1), span("b", 1, 4, 0),
        span("c", 3, 6, 0),      span("d", 8, 11, 0),
        span("e", 2, 3, 1),      span("f", 12, 13, -1),
    };
    spans[4].track = 2; // worker-track children count the same way
    const std::vector<double> self = selfTimes(spans);
    expect(near(self[0], 10 - 5 - 2), "root self = 10 - |[1,6]| - |[8,10]|");
    expect(near(self[1], 3 - 1), "b self = 3 - e");
    expect(near(self[2], 3), "c self (leaf)");
    expect(near(self[3], 3), "d self (leaf)");
    expect(near(self[4], 1), "e self (leaf)");

    expect(near(openSeconds(spans, 0, "b"), 3) &&
               near(openSeconds(spans, 0, "root"), 10) &&
               openSeconds(spans, 0, "none") == 0.0,
           "openSeconds of one layer");
    spans.push_back(span("c", 5, 7, -1));
    expect(near(openSeconds(spans, 0, "c"), 4),
           "openSeconds counts overlapping spans once");
    spans.pop_back();
    expect(near(uncoveredSeconds(spans, 0, 0, 15), 15 - 10 - 1),
           "uncovered = window - roots");
    expect(near(uncoveredSeconds(spans, 1, 0, 15), 15),
           "another round's spans cover nothing");

    spans.push_back(span("b", 20, 21, -1, 1));
    spans.back().counts = {{"k", 2.0}, {"k", 3.0}};
    const auto round0 = layerTotals(spans, 0);
    expect(round0.at("b").spans == 1 && near(round0.at("b").self, 2),
           "layerTotals filters by round");
    const auto all = layerTotals(spans);
    expect(all.at("b").spans == 2 && near(all.at("b").wall, 4) &&
               near(all.at("b").counts.at("k"), 5),
           "layerTotals sums wall and counts over rounds");

    Tracer tracer(true);
    {
        Tracer::Scope outer(tracer, "outer");
        tracer.beginJob(2);
        tracer.record(1, span("work", 0, 0, -1));
        tracer.record(0, span("work", 0, 0, -1));
        tracer.merge();
        Tracer::Scope inner(tracer, "inner");
        inner.count("n", 4);
    }
    const std::vector<Span> &rec = tracer.spans();
    expect(rec.size() == 4, "tracer keeps 4 spans");
    expect(rec[0].parent == -1 && rec[1].parent == 0 && rec[1].track == 0,
           "caller-track spans nest under the open span");
    expect(rec[2].parent == 0 && rec[2].track == 1,
           "worker spans take the job's parent");
    expect(rec[3].name == "inner" && rec[3].parent == 0 &&
               rec[3].counts.size() == 1 && near(rec[3].counts[0].second, 4),
           "inner span with its count");
    Tracer off(false);
    {
        Tracer::Scope s(off, "x");
        off.record(0, span("y", 0, 1, -1));
    }
    expect(off.spans().empty(), "a disabled tracer records nothing");
}

void
metricNames()
{
    for (const char *ok : {"frames_per_s", "t1.functional.wall_s",
                           "flow.speedup_vs_full_x.pvz", "9a-b", "A"})
        expect(validMetricName(ok), std::string("valid name ") + ok);
    for (const char *bad : {"", "_x", ".a", "-a", "a b", "a/b", "a%",
                            "\xc3\xa9t\xc3\xa9"})
        expect(!validMetricName(bad), std::string("invalid name ") + bad);
    expect(validMetricName(std::string(64, 'a')), "64 letters is valid");
    expect(!validMetricName(std::string(65, 'a')), "65 letters is not");
    for (const char *ok : {"frames/s", "%", "Mcycles/s", "MiB", "1/s"})
        expect(validUnit(ok), std::string("valid unit ") + ok);
    for (const char *bad : {"", "a b", "µs", "{x}"})
        expect(!validUnit(bad), std::string("invalid unit ") + bad);
    expect(!validUnit(std::string(17, 'a')), "17-letter unit is invalid");

    std::string text;
    expect(readFile("BENCHMARK.json", text), "BENCHMARK.json readable");
    auto json = msim::util::Json::parse(text);
    expect(json.ok(), "BENCHMARK.json parses");
    if (!json.ok())
        return;
    std::size_t declared = 0;
    for (const char *list : {"end_to_end", "per_layer"}) {
        const msim::util::Json *metrics = json->find(list);
        expect(metrics && metrics->isArray(),
               std::string("BENCHMARK.json has ") + list);
        if (!metrics)
            continue;
        for (const msim::util::Json &m : metrics->items()) {
            const msim::util::Json *name = m.find("name");
            const msim::util::Json *unit = m.find("unit");
            expect(name && validMetricName(name->asString()),
                   "declared name " + (name ? name->asString() : "?"));
            expect(unit && validUnit(unit->asString()),
                   "declared unit " + (unit ? unit->asString() : "?"));
            ++declared;
        }
    }
    expect(declared > 0, "BENCHMARK.json declares metrics");
}

void
digestChecker()
{
    Digest digest;
    digest.add("pvz.frames", {3, 141, 592});
    digest.add("pvz.weights", {100.5, 2, 0.1});
    digest.add("pvz.estimate", {1e9 / 3, 4.25e7, 0, 1});

    Digest parsed;
    expect(Digest::parse(digest.str(), parsed), "digest parses");
    expect(compareDigests(digest, parsed).empty(),
           "digest round-trips bit for bit");

    for (std::size_t line = 0; line < digest.lines.size(); ++line)
        for (std::size_t i = 0; i < digest.lines[line].second.size();
             ++i) {
            Digest perturbed = parsed;
            double &v = perturbed.lines[line].second[i];
            v = std::nextafter(v, 1e300);
            expect(compareDigests(digest, perturbed).size() == 1,
                   "one perturbed value is one mismatch (" +
                       digest.lines[line].first + ")");
        }

    Digest shorter = parsed;
    shorter.lines[0].second.pop_back();
    expect(!compareDigests(digest, shorter).empty(),
           "a dropped value is a mismatch");
    Digest missing = parsed;
    missing.lines.pop_back();
    expect(!compareDigests(digest, missing).empty(),
           "a missing line is a mismatch");
    Digest extra = parsed;
    extra.add("hwh.frames", {1});
    expect(!compareDigests(digest, extra).empty(),
           "an unexpected line is a mismatch");
    Digest junk;
    expect(!Digest::parse("pvz.frames 1 2x\n", junk),
           "a malformed value is rejected");

    // The committed digests themselves: parse and reject one bit flip.
    for (const char *workload :
         {"estimate-long", "groundtruth-cold", "reselect-warm"}) {
        std::string text;
        Digest committed;
        const std::string path =
            std::string("flowbench/digests/") + workload + ".txt";
        expect(readFile(path, text) && Digest::parse(text, committed) &&
                   !committed.lines.empty(),
               "committed digest " + path);
        if (committed.lines.empty())
            continue;
        Digest perturbed = committed;
        auto &values = perturbed.lines.back().second;
        expect(!values.empty(), path + " has values");
        if (values.empty())
            continue;
        values.back() = std::nextafter(values.back(), -1e300);
        expect(compareDigests(committed, perturbed).size() == 1,
               "perturbed " + path + " is rejected");
    }
}

void
workloadSeedOverride()
{
    for (const char *alias : {"pvz", "hwh"}) {
        const auto table = composeBenchmark(alias, 40, 0);
        const auto seeded = composeBenchmark(alias, 40, 7);
        const auto again = composeBenchmark(alias, 40, 7);
        expect(table.numFrames() == 40 && seeded.numFrames() == 40,
               std::string(alias) + ": seed keeps the frame count");
        expect(table.contentHash() != seeded.contentHash(),
               std::string(alias) + ": seed changes the scene");
        expect(seeded.contentHash() == again.contentHash(),
               std::string(alias) + ": same seed, same scene");
    }
    expect(findWorkload("estimate-long") &&
               findWorkload("groundtruth-cold") &&
               findWorkload("reselect-warm") && !findWorkload("nope"),
           "the three workloads are known");
}

} // namespace

int
main()
{
    selfTimeArithmetic();
    metricNames();
    digestChecker();
    workloadSeedOverride();
    if (failures) {
        std::fprintf(stderr, "flowbench selftest: %d failures\n",
                     failures);
        return 1;
    }
    std::printf("flowbench selftest: all passed\n");
    return 0;
}
