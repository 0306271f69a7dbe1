#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "gpusim/functional_simulator.hh"
#include "gpusim/gpu_config.hh"
#include "gpusim/imr_model.hh"
#include "gpusim/timing_simulator.hh"
#include "sim/random.hh"
#include "workloads/workloads.hh"

using namespace msim;
using namespace msim::gpusim;

namespace
{

/** A short real workload shared by the simulator tests. */
const gfx::SceneTrace &
testScene()
{
    static const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 4);
    return scene;
}

obs::ObsConfig
tracingOn()
{
    obs::ObsConfig config;
    config.traceEnabled = true;
    config.traceCapacity = 1 << 20;
    return config;
}

} // namespace

TEST(GpuConfig, BaselineMatchesTableI)
{
    const GpuConfig config = GpuConfig::baseline();
    EXPECT_EQ(config.frequencyMhz, 600u);
    EXPECT_EQ(config.screenWidth, 1440u);
    EXPECT_EQ(config.screenHeight, 720u);
    EXPECT_EQ(config.tileWidth, 32u);
    EXPECT_EQ(config.tileHeight, 32u);
    EXPECT_EQ(config.numVertexProcessors, 4u);
    EXPECT_EQ(config.numFragmentProcessors, 4u);
    EXPECT_EQ(config.numTextureCaches, 4u);
    EXPECT_EQ(config.vertexCache.sizeBytes, 4u * 1024);
    EXPECT_EQ(config.textureCache.sizeBytes, 8u * 1024);
    EXPECT_EQ(config.tileCache.sizeBytes, 32u * 1024);
    EXPECT_EQ(config.memory.l2.sizeBytes, 256u * 1024);
    EXPECT_FALSE(config.hsrEnabled);
    EXPECT_EQ(config.tilesX(), 45u);
    EXPECT_EQ(config.tilesY(), 23u);
}

TEST(GpuConfig, FingerprintSeparatesConfigs)
{
    const GpuConfig a = GpuConfig::baseline();
    GpuConfig b = a;
    b.numFragmentProcessors = 8;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    EXPECT_NE(GpuConfig::baseline().fingerprint(),
              GpuConfig::evaluationScaled().fingerprint());
}

TEST(TimingSimulator, ProducesWorkOnARealFrame)
{
    SceneBinding binding(testScene());
    TimingSimulator timing(GpuConfig::evaluationScaled(), binding);
    const FrameStats stats = timing.simulate(testScene().frames[0]);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.vsInvocations, 0u);
    EXPECT_GT(stats.fsInvocations, 0u);
    EXPECT_GT(stats.primitives, 0u);
    EXPECT_GT(stats.l2Accesses, 0u);
    EXPECT_GT(stats.dramAccesses, 0u);
    EXPECT_GT(stats.energy.totalNj(), 0.0);
}

/**
 * Acceptance: FrameStats is assembled from the registry, so a dump of
 * the registry after a frame must agree with the returned struct —
 * single source of truth.
 */
TEST(TimingSimulator, RegistryAgreesWithFrameStats)
{
    SceneBinding binding(testScene());
    TimingSimulator timing(GpuConfig::evaluationScaled(), binding);
    const FrameStats stats = timing.simulate(testScene().frames[1]);

    auto counter = [&](const char *name) {
        const obs::Stat *stat = timing.stats().find(name);
        EXPECT_NE(stat, nullptr) << name;
        return stat ? static_cast<std::uint64_t>(stat->value()) : 0u;
    };
    EXPECT_EQ(counter("gpu.frame.cycles"), stats.cycles);
    EXPECT_EQ(counter("gpu.frame.stall_cycles"), stats.stallCycles);
    EXPECT_EQ(counter("gpu.geometry.vs_invocations"),
              stats.vsInvocations);
    EXPECT_EQ(counter("gpu.geometry.vs_instructions"),
              stats.vsInstructions);
    EXPECT_EQ(counter("gpu.raster.fs_invocations"),
              stats.fsInvocations);
    EXPECT_EQ(counter("gpu.raster.fs_instructions"),
              stats.fsInstructions);
    EXPECT_EQ(counter("gpu.tiling.triangles"), stats.primitives);
    EXPECT_EQ(counter("gpu.vertex_cache.accesses"),
              stats.vertexCacheAccesses);
    EXPECT_EQ(counter("gpu.texture_cache.accesses"),
              stats.textureCacheAccesses);
    EXPECT_EQ(counter("gpu.tile_cache.accesses"),
              stats.tileCacheAccesses);
    EXPECT_EQ(counter("gpu.l2.accesses"), stats.l2Accesses);
    EXPECT_EQ(counter("gpu.dram.transactions"), stats.dramAccesses);
    EXPECT_EQ(counter("gpu.dram.bytes"), stats.dramBytes);
    EXPECT_EQ(counter("gpu.raster.earlyz_kills"), stats.earlyZKills);
}

TEST(TimingSimulator, RepeatedSimulationIsDeterministic)
{
    SceneBinding binding(testScene());
    TimingSimulator timing(GpuConfig::evaluationScaled(), binding);
    const FrameStats a = timing.simulate(testScene().frames[0]);
    const FrameStats b = timing.simulate(testScene().frames[0]);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.fsInvocations, b.fsInvocations);
}

/**
 * Per-frame cold start: simulating frame 2 directly must match
 * simulating it after other frames. Representative-only simulation
 * (the core MEGsim speedup) depends on this.
 */
TEST(TimingSimulator, FrameResultsAreOrderIndependent)
{
    SceneBinding binding(testScene());
    TimingSimulator warm(GpuConfig::evaluationScaled(), binding);
    warm.simulate(testScene().frames[0]);
    warm.simulate(testScene().frames[1]);
    const FrameStats after = warm.simulate(testScene().frames[2]);

    TimingSimulator cold(GpuConfig::evaluationScaled(), binding);
    const FrameStats direct = cold.simulate(testScene().frames[2]);
    EXPECT_EQ(after.cycles, direct.cycles);
    EXPECT_EQ(after.l2Accesses, direct.l2Accesses);
    EXPECT_EQ(after.dramAccesses, direct.dramAccesses);
}

TEST(TimingSimulator, HsrNeverShadesMoreFragments)
{
    SceneBinding binding(testScene());
    GpuConfig config = GpuConfig::evaluationScaled();
    TimingSimulator tbr(config, binding);
    const FrameStats earlyZ = tbr.simulate(testScene().frames[0]);

    config.hsrEnabled = true;
    TimingSimulator tbdr(config, binding);
    const FrameStats hsr = tbdr.simulate(testScene().frames[0]);
    EXPECT_LE(hsr.fsInvocations, earlyZ.fsInvocations);
    EXPECT_GT(hsr.fsInvocations, 0u);
}

namespace
{

/**
 * The functional pass as it was before the fused quad kernel: each
 * covered sample of rasterizeTriangleInTile()'s quads is depth-tested
 * on its own against a row-major screen buffer cleared to 1.0f. Every
 * sample must lie on the screen.
 */
FrameActivity
perSampleActivity(const GpuConfig &config, const SceneBinding &binding,
                  const GeometryIR &ir)
{
    std::vector<std::uint32_t> column(binding.scene().shaders.size());
    std::size_t numVs = 0, numFs = 0;
    for (const gfx::ShaderProgram &s : binding.scene().shaders)
        column[s.id] = static_cast<std::uint32_t>(
            s.kind == gfx::ShaderKind::Vertex ? numVs++ : numFs++);

    const int width = static_cast<int>(config.screenWidth);
    const int height = static_cast<int>(config.screenHeight);
    const util::BBox2i screen{0, 0, width, height};
    std::vector<float> depth(static_cast<std::size_t>(width) *
                                 static_cast<std::size_t>(height),
                             1.0f);
    FrameActivity act;
    act.frameIndex = ir.frameIndex;
    act.vsCounts.assign(numVs, 0);
    act.fsCounts.assign(numFs, 0);
    for (const DrawIR &draw : ir.draws) {
        act.verticesShaded += draw.vertexCount;
        act.vsCounts[column[draw.vsId]] += draw.vertexCount;
        act.primitives += draw.triangles.size();
        std::uint64_t shaded = 0;
        for (const ScreenTriangle &tri : draw.triangles) {
            rasterizeTriangleInTile(
                tri, screen, [&](const QuadFragment &quad) {
                    for (int s = 0; s < 4; ++s) {
                        if (!(quad.mask & (1 << s)))
                            continue;
                        const int x = quad.x + (s & 1);
                        const int y = quad.y + (s >> 1);
                        ASSERT_TRUE(x >= 0 && x < width && y >= 0 &&
                                    y < height)
                            << "sample (" << x << ", " << y
                            << ") is off the screen";
                        float &d = depth[static_cast<std::size_t>(y) *
                                             static_cast<std::size_t>(
                                                 width) +
                                         static_cast<std::size_t>(x)];
                        if (quad.z[s] <= d) {
                            if (!draw.transparent)
                                d = quad.z[s];
                            ++shaded;
                        }
                    }
                });
        }
        act.fragmentsShaded += shaded;
        act.fsCounts[column[draw.fsId]] += shaded;
    }
    return act;
}

void
expectSameActivity(const FrameActivity &a, const FrameActivity &b,
                   const std::string &what)
{
    EXPECT_EQ(a.frameIndex, b.frameIndex) << what;
    EXPECT_EQ(a.primitives, b.primitives) << what;
    EXPECT_EQ(a.verticesShaded, b.verticesShaded) << what;
    EXPECT_EQ(a.fragmentsShaded, b.fragmentsShaded) << what;
    EXPECT_EQ(a.vsCounts, b.vsCounts) << what;
    EXPECT_EQ(a.fsCounts, b.fsCounts) << what;
}

/** Draws and triangles that exercise the kernel's special cases. */
struct PrefixCoverage
{
    std::size_t transparentTriangles = 0;
    std::size_t offScreenTriangles = 0; // extend past a screen edge
};

/**
 * Run the first @p frames frames of every benchmark at @p config and
 * check the fused functional kernel against the per-sample loop and
 * against the activity the timing model reports for the same frames.
 */
PrefixCoverage
checkPrefix(const GpuConfig &config, std::size_t frames)
{
    PrefixCoverage seen;
    for (const std::string &alias : workloads::benchmarkNames()) {
        const gfx::SceneTrace scene =
            workloads::buildBenchmark(alias, 1.0, frames);
        SceneBinding binding(scene);
        GeometryProcessor geometry(config, binding);
        FunctionalSimulator functional(config, binding);
        TimingSimulator timing(config, binding);
        GeometryIR ir;
        for (const gfx::FrameTrace &frame : scene.frames) {
            geometry.processInto(frame, ir);
            for (const DrawIR &draw : ir.draws)
                for (const ScreenTriangle &tri : draw.triangles) {
                    const util::BBox2i box = tri.bounds();
                    if (draw.transparent)
                        ++seen.transparentTriangles;
                    if (box.x0 < 0 || box.y0 < 0 ||
                        box.x1 > static_cast<int>(config.screenWidth) ||
                        box.y1 > static_cast<int>(config.screenHeight))
                        ++seen.offScreenTriangles;
                }
            const std::string what =
                alias + " frame " + std::to_string(frame.index);

            const FrameActivity fused = functional.simulate(frame);
            expectSameActivity(fused,
                               perSampleActivity(config, binding, ir),
                               what + " (per-sample loop)");
            FrameActivity fromTiming;
            timing.simulate(ir, &fromTiming);
            expectSameActivity(fused, fromTiming, what + " (timing)");
            if (::testing::Test::HasFailure())
                return seen;
        }
    }
    return seen;
}

} // namespace

TEST(FunctionalSimulator, FusedKernelIsExactOnEveryPrefixFrame)
{
    const PrefixCoverage seen =
        checkPrefix(GpuConfig::evaluationScaled(), 64);
    EXPECT_GT(seen.transparentTriangles, 0u);
    EXPECT_GT(seen.offScreenTriangles, 0u);
}

// Synthetic frames built to hit rounding: triangles whose z is exactly
// the clear value 1.0f (a sample passes only if its interpolated z
// does not round above it), and draws repeated with the same vertices
// as transparent draws (every depth compare is a tie). Any change to
// the interpolation's operation order or to the compare shows up as a
// count difference against the per-sample loop.
TEST(FunctionalSimulator, FusedKernelIsExactAtDepthTies)
{
    SceneBinding binding(testScene());
    const gfx::FrameTrace &first = testScene().frames[0];
    ASSERT_FALSE(first.draws.empty());
    for (const std::uint32_t width : {192u, 191u}) {
        GpuConfig config = GpuConfig::evaluationScaled();
        config.screenWidth = width;
        config.screenHeight = width == 192u ? 96u : 95u;
        const float w = static_cast<float>(config.screenWidth);
        const float h = static_cast<float>(config.screenHeight);
        FunctionalSimulator functional(config, binding);
        TimingSimulator timing(config, binding);
        sim::Rng rng(width);
        for (std::uint32_t f = 0; f < 8; ++f) {
            GeometryIR ir;
            ir.frameIndex = f;
            for (int d = 0; d < 24; ++d) {
                const gfx::DrawCall &src =
                    first.draws[static_cast<std::size_t>(d) %
                                first.draws.size()];
                DrawIR draw;
                draw.vsId = src.vsId;
                draw.fsId = src.fsId;
                draw.vertexCount = 3;
                if (d % 3 == 2) {
                    // The previous draw again, blended: all ties.
                    draw.triangles = ir.draws.back().triangles;
                    draw.transparent = true;
                    ir.draws.push_back(std::move(draw));
                    continue;
                }
                const bool atClear = d % 3 == 0;
                for (int t = 0; t < 12; ++t) {
                    ScreenTriangle tri;
                    const double cx = rng.range(-10.0, w + 10.0);
                    const double cy = rng.range(-10.0, h + 10.0);
                    for (int k = 0; k < 3; ++k) {
                        tri.v[k] = {
                            static_cast<float>(cx + rng.range(-30, 30)),
                            static_cast<float>(cy + rng.range(-30, 30))};
                        tri.z[k] = atClear ? 1.0f
                                           : static_cast<float>(
                                                 rng.range(0.2, 0.9));
                    }
                    draw.triangles.push_back(tri);
                }
                ir.draws.push_back(std::move(draw));
            }
            const std::string what = std::to_string(width) + " wide, frame " +
                                     std::to_string(f);
            const FrameActivity fused = functional.simulate(ir);
            EXPECT_GT(fused.fragmentsShaded, 0u) << what;
            expectSameActivity(fused,
                               perSampleActivity(config, binding, ir),
                               what + " (per-sample loop)");
            FrameActivity fromTiming;
            timing.simulate(ir, &fromTiming);
            expectSameActivity(fused, fromTiming, what + " (timing)");
        }
    }
}

// On an odd screen the last quad column and row reach one sample past
// the screen edge. Those samples must be dropped, not shaded at the
// pixel index they alias to (the next row, or past the buffer on the
// last row). The IMR model shades the same samples as the functional
// pass: it keeps every depth pass, transparent or not.
TEST(FunctionalSimulator, OddScreenDropsSamplesPastTheEdge)
{
    GpuConfig config = GpuConfig::evaluationScaled();
    config.screenWidth = 191;
    config.screenHeight = 95;
    const PrefixCoverage seen = checkPrefix(config, 16);
    EXPECT_GT(seen.offScreenTriangles, 0u);

    const gfx::SceneTrace scene = workloads::buildBenchmark("hwh", 1.0, 50);
    SceneBinding binding(scene);
    GeometryProcessor geometry(config, binding);
    FunctionalSimulator functional(config, binding);
    ImrMemoryModel imr(config, binding.framebufferBase());
    GeometryIR ir;
    for (const gfx::FrameTrace &frame : scene.frames) {
        geometry.processInto(frame, ir);
        EXPECT_EQ(imr.frameTraffic(ir).fragmentsShaded,
                  functional.simulate(ir).fragmentsShaded)
            << "frame " << frame.index;
    }
}

TEST(TimingSimulator, TracingEmitsEveryPipelineStage)
{
    SceneBinding binding(testScene());
    TimingSimulator timing(GpuConfig::evaluationScaled(), binding,
                           tracingOn());
    timing.simulate(testScene().frames[0]);

    std::set<std::string> names;
    timing.trace().forEach(
        [&](const obs::TraceEvent &e) { names.insert(e.name); });
    const char *stages[] = {
        "vertex_fetch", "vertex_shader", "primitive_assembly",
        "binning",      "rasterizer",    "early_z",
        "fragment_shader", "blend", "tile_flush",
    };
    for (const char *stage : stages)
        EXPECT_TRUE(names.count(stage)) << "no events for " << stage;
    EXPECT_TRUE(names.count("frame"));
    EXPECT_TRUE(names.count("dram"));
}

TEST(TimingSimulator, TracingOffEmitsNothing)
{
    SceneBinding binding(testScene());
    obs::ObsConfig off;
    off.traceEnabled = false;
    TimingSimulator timing(GpuConfig::evaluationScaled(), binding,
                           off);
    timing.simulate(testScene().frames[0]);
    EXPECT_EQ(timing.trace().size(), 0u);
    EXPECT_EQ(timing.trace().emittedCount(), 0u);
}

TEST(FrameStats, CsvSchemaRoundTrips)
{
    SceneBinding binding(testScene());
    TimingSimulator timing(GpuConfig::evaluationScaled(), binding);
    const FrameStats stats = timing.simulate(testScene().frames[0]);

    const std::vector<double> row = stats.toCsvRow();
    ASSERT_EQ(row.size(), FrameStats::csvHeader().size());
    const FrameStats back = FrameStats::fromCsvRow(row);
    EXPECT_EQ(back.cycles, stats.cycles);
    EXPECT_EQ(back.fsInvocations, stats.fsInvocations);
    EXPECT_EQ(back.dramBytes, stats.dramBytes);
    EXPECT_DOUBLE_EQ(back.energy.rasterNj, stats.energy.rasterNj);
    EXPECT_DOUBLE_EQ(back.ipc(), stats.ipc());
}
