#include "gpusim/functional_simulator.hh"

#include <algorithm>

#include "gpusim/rasterizer.hh"
#include "obs/attrib.hh"

namespace msim::gpusim
{

FunctionalSimulator::FunctionalSimulator(const GpuConfig &config,
                                         const SceneBinding &binding)
    : config_(config), binding_(&binding),
      geometry_(config, binding),
      depth_(4 * static_cast<std::size_t>((config.screenWidth + 1) / 2) *
             ((config.screenHeight + 1) / 2))
{
    const gfx::SceneTrace &scene = binding.scene();
    shaderColumn_.resize(scene.shaders.size(), 0);
    for (const gfx::ShaderProgram &s : scene.shaders) {
        if (s.kind == gfx::ShaderKind::Vertex)
            shaderColumn_[s.id] =
                static_cast<std::uint32_t>(numVs_++);
        else
            shaderColumn_[s.id] =
                static_cast<std::uint32_t>(numFs_++);
    }
}

FrameActivity
FunctionalSimulator::simulate(const gfx::FrameTrace &frame)
{
    {
        obs::AttribScope geomScope(obs::HostDomain::Geometry);
        geometry_.processInto(frame, ir_);
    }
    return simulate(ir_);
}

FrameActivity
FunctionalSimulator::simulate(const GeometryIR &ir)
{
    // The functional walk is coverage rasterization + depth test.
    obs::AttribScope rasterScope(obs::HostDomain::Raster);
    FrameActivity act;
    act.frameIndex = ir.frameIndex;
    act.vsCounts.assign(numVs_, 0);
    act.fsCounts.assign(numFs_, 0);

    std::fill(depth_.begin(), depth_.end(), 1.0f);
    const util::BBox2i screen{0, 0,
                              static_cast<int>(config_.screenWidth),
                              static_cast<int>(config_.screenHeight)};
    float *const depth = depth_.data();
    const std::size_t quadsPerRow = (config_.screenWidth + 1) / 2;

    for (const DrawIR &draw : ir.draws) {
        act.verticesShaded += draw.vertexCount;
        act.vsCounts[shaderColumn_[draw.vsId]] += draw.vertexCount;
        act.primitives += draw.triangles.size();

        // Per quad: the covered samples that pass `z <= depth` are
        // shaded; an opaque draw also writes their z (a select-store:
        // failing and uncovered lanes write their old depth back).
        // Transparent draws blend without a depth write.
        const bool opaque = !draw.transparent;
        std::uint64_t shaded = 0;
        for (const ScreenTriangle &tri : draw.triangles) {
            const TriangleSetup setup = setupTriangle(tri);
            const Lanes4 inv = splat4(setup.inv);
            const Lanes4 z0 = splat4(tri.z[0]), z1 = splat4(tri.z[1]),
                         z2 = splat4(tri.z[2]);
            scanQuads(setup, screen, [&](int x, int y, unsigned mask,
                                         const QuadEdges &q) {
                // The per-sample interpolation of rasterizeSetupInTile,
                // lane for lane: w0 = e1*inv, w1 = e2*inv, w2 = e0*inv,
                // z = (w0*z0 + w1*z1) + w2*z2.
                const Lanes4 w0 = q.e[1] * inv;
                const Lanes4 w1 = q.e[2] * inv;
                const Lanes4 w2 = q.e[0] * inv;
                const Lanes4 z = (w0 * z0 + w1 * z1) + w2 * z2;
                float *const d =
                    depth + 4 * (static_cast<std::size_t>(y >> 1) *
                                     quadsPerRow +
                                 static_cast<std::size_t>(x >> 1));
                const Lanes4 old = load4(d);
                const unsigned pass = lessEqualBits(z, old) & mask;
                shaded += static_cast<std::uint64_t>(popcount4(pass));
                if (opaque)
                    store4(d, select4(pass, z, old));
            });
        }
        act.fragmentsShaded += shaded;
        act.fsCounts[shaderColumn_[draw.fsId]] += shaded;
    }
    return act;
}

} // namespace msim::gpusim
