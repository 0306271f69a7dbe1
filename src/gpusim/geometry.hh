/**
 * @file
 * Geometry front-end shared by every back-end model: transforms draw
 * calls into screen-space triangle lists (GeometryIR). The transform
 * is the architecture-independent part of the pipeline, so the
 * functional simulator, the TBR timing simulator and the IMR model all
 * consume the same IR.
 */

#ifndef MSIM_GPUSIM_GEOMETRY_HH
#define MSIM_GPUSIM_GEOMETRY_HH

#include <cstdint>
#include <vector>

#include "gfx/trace.hh"
#include "gpusim/gpu_config.hh"
#include "gpusim/rasterizer.hh"
#include "gpusim/scene_binding.hh"

namespace msim::gpusim
{

/** One draw call after geometry processing. */
struct DrawIR
{
    std::uint32_t meshId = 0;
    std::uint32_t vsId = 0;
    std::uint32_t fsId = 0;
    std::int32_t textureId = -1;
    bool transparent = false;
    std::uint32_t vertexCount = 0;  // vertices fetched and shaded
    std::vector<ScreenTriangle> triangles; // surviving cull + clip
};

struct GeometryIR
{
    std::uint32_t frameIndex = 0;
    std::vector<DrawIR> draws;

    std::uint64_t
    primitives() const
    {
        std::uint64_t n = 0;
        for (const DrawIR &d : draws)
            n += d.triangles.size();
        return n;
    }
};

class GeometryProcessor
{
  public:
    GeometryProcessor(const GpuConfig &config,
                      const SceneBinding &binding)
        : config_(config), binding_(&binding)
    {}

    /**
     * Transform @p frame into @p out, in place: a caller looping over
     * frames reuses the draw/triangle allocations of the previous
     * frame, along with the processor's own per-vertex scratch.
     */
    void processInto(const gfx::FrameTrace &frame, GeometryIR &out);

  private:
    void transformDraw(const gfx::DrawCall &draw, DrawIR &out);

    GpuConfig config_;
    const SceneBinding *binding_;
    // Per-vertex scratch, reused across draws and frames.
    std::vector<util::Vec2f> screen_;
    std::vector<float> depth_;
};

} // namespace msim::gpusim

#endif // MSIM_GPUSIM_GEOMETRY_HH
