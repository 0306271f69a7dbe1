#include "gpusim/geometry.hh"

#include <cmath>

namespace msim::gpusim
{

void
GeometryProcessor::transformDraw(const gfx::DrawCall &draw, DrawIR &out)
{
    const gfx::SceneTrace &scene = binding_->scene();
    const gfx::Mesh &mesh = scene.meshes[draw.meshId];
    const float sw = static_cast<float>(config_.screenWidth);
    const float sh = static_cast<float>(config_.screenHeight);
    // Draws scale against the short screen axis so aspect is preserved.
    const float unit = std::min(sw, sh);

    out.meshId = draw.meshId;
    out.vsId = draw.vsId;
    out.fsId = draw.fsId;
    out.textureId = draw.textureId;
    out.transparent = draw.transparent;
    out.vertexCount =
        static_cast<std::uint32_t>(mesh.positions.size());

    const float cx = draw.x * sw;
    const float cy = draw.y * sh;
    const float s = draw.scale * unit;
    const float cosR = std::cos(draw.rotation);
    const float sinR = std::sin(draw.rotation);

    screen_.resize(mesh.positions.size());
    depth_.resize(mesh.positions.size());
    for (std::size_t i = 0; i < mesh.positions.size(); ++i) {
        const util::Vec3f &p = mesh.positions[i];
        screen_[i] = {cx + s * (p.x * cosR - p.y * sinR),
                      cy + s * (p.x * sinR + p.y * cosR)};
        // Mesh-local z perturbs the draw depth so 3D meshes get
        // intra-draw occlusion; 0.2 keeps draws depth-ordered.
        depth_[i] = draw.depth + 0.2f * p.z * draw.scale;
    }

    out.triangles.clear();
    out.triangles.reserve(mesh.triangleCount());
    for (std::size_t t = 0; t + 2 < mesh.indices.size(); t += 3) {
        ScreenTriangle tri;
        for (int k = 0; k < 3; ++k) {
            const std::uint32_t idx = mesh.indices[t + k];
            tri.v[k] = screen_[idx];
            tri.z[k] = depth_[idx];
            tri.uv[k] = mesh.uvs[idx];
        }
        if (tri.area2() == 0.0f)
            continue; // degenerate
        const util::BBox2i box = tri.bounds().intersect(
            util::BBox2i{0, 0, static_cast<int>(sw),
                         static_cast<int>(sh)});
        if (box.empty())
            continue; // fully off-screen
        out.triangles.push_back(tri);
    }
}

void
GeometryProcessor::processInto(const gfx::FrameTrace &frame,
                               GeometryIR &out)
{
    out.frameIndex = frame.index;
    // Shrink keeps leading DrawIRs (and their triangle capacity)
    // alive; growth default-constructs the tail in place.
    out.draws.resize(frame.draws.size());
    for (std::size_t i = 0; i < frame.draws.size(); ++i)
        transformDraw(frame.draws[i], out.draws[i]);
}

} // namespace msim::gpusim
