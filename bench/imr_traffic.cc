/**
 * @file
 * Background claim of Sec. II-A: Tile-Based Rendering drastically
 * reduces off-chip framebuffer traffic versus Immediate-Mode
 * Rendering, because tiles render entirely in on-chip memory and each
 * pixel's color is written to DRAM exactly once.
 *
 * Compares, per benchmark (on a gameplay-frame window): the TBR
 * pipeline's framebuffer DRAM bytes (tile flushes) against the IMR
 * model's post-cache depth+color traffic for the identical frames.
 */

#include <cstdio>

#include "bench_common.hh"
#include "gpusim/geometry.hh"
#include "gpusim/imr_model.hh"
#include "gpusim/scene_binding.hh"
#include "gpusim/timing_simulator.hh"

int
main()
{
    using namespace msim;

    const std::size_t window_begin = 150;
    const std::size_t window_end = 180;

    std::printf("Sec. II-A: off-chip framebuffer traffic, IMR vs TBR\n");
    std::printf("(%zu gameplay frames per benchmark)\n",
                window_end - window_begin);
    std::printf("%-8s %14s %14s %10s %12s\n", "bench", "IMR KB/frame",
                "TBR KB/frame", "ratio", "overdraw");
    bench::printRule(64);

    for (const auto &alias : workloads::benchmarkNames()) {
        const auto scene = workloads::buildBenchmark(
            alias, 1.0, window_end);
        const auto config = bench::evalConfig();

        gpusim::SceneBinding binding(scene);
        gpusim::GeometryProcessor geometry(config, binding);
        gpusim::TimingSimulator timing(config, binding);
        gpusim::ImrMemoryModel imr(config, binding.framebufferBase());

        gpusim::GeometryIR ir;
        double imr_bytes = 0.0, tbr_bytes = 0.0;
        double shaded = 0.0;
        const double pixels =
            static_cast<double>(config.screenWidth) *
            config.screenHeight;
        for (std::size_t f = window_begin; f < window_end; ++f) {
            geometry.processInto(scene.frames[f], ir);
            const auto traffic = imr.frameTraffic(ir);
            imr_bytes += static_cast<double>(traffic.dramBytes);
            shaded += static_cast<double>(traffic.fragmentsShaded);
            const auto stats = timing.simulate(ir);
            tbr_bytes += static_cast<double>(stats.framebufferBytes);
        }
        const double n =
            static_cast<double>(window_end - window_begin);
        std::printf("%-8s %14.1f %14.1f %9.1fx %11.2fx\n",
                    alias.c_str(), imr_bytes / n / 1024.0,
                    tbr_bytes / n / 1024.0, imr_bytes / tbr_bytes,
                    shaded / n / pixels);
    }
    std::printf("\nTBR writes each pixel once at tile flush; IMR pays "
                "off-chip depth\ntraffic plus one color write per "
                "surviving fragment (overdraw).\n");
    return 0;
}
