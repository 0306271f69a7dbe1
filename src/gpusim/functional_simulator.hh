/**
 * @file
 * Functional simulator: renders frames with no timing model and
 * collects the architecture-independent activity counts MEGsim builds
 * its characteristic vectors from (per-shader invocation counts and
 * the primitive count, Sec. III-B).
 */

#ifndef MSIM_GPUSIM_FUNCTIONAL_SIMULATOR_HH
#define MSIM_GPUSIM_FUNCTIONAL_SIMULATOR_HH

#include <cstdint>
#include <vector>

#include "gpusim/geometry.hh"
#include "gpusim/gpu_config.hh"
#include "gpusim/scene_binding.hh"

namespace msim::gpusim
{

/** Architecture-independent per-frame activity. */
struct FrameActivity
{
    std::uint32_t frameIndex = 0;
    std::uint64_t primitives = 0;
    std::uint64_t verticesShaded = 0;
    std::uint64_t fragmentsShaded = 0;
    // Invocations per shader, indexed by the shader's position among
    // shaders of its kind (SceneTrace column order).
    std::vector<std::uint64_t> vsCounts;
    std::vector<std::uint64_t> fsCounts;
};

class FunctionalSimulator
{
  public:
    FunctionalSimulator(const GpuConfig &config,
                        const SceneBinding &binding);

    FrameActivity simulate(const gfx::FrameTrace &frame);
    FrameActivity simulate(const GeometryIR &ir);

  private:
    GpuConfig config_;
    const SceneBinding *binding_;
    GeometryProcessor geometry_;
    std::vector<std::uint32_t> shaderColumn_; // global id -> column
    std::size_t numVs_ = 0;
    std::size_t numFs_ = 0;
    // Full-screen z buffer in 2x2 quad-major order: quad (x, y)
    // holds its four samples in lane order at
    // ((y / 2) * ceil(width / 2) + x / 2) * 4, so a quad's depth test
    // is one 4-lane load. Cleared to 1.0f at the start of every frame.
    std::vector<float> depth_;
    GeometryIR ir_; // reused across simulate(FrameTrace) calls
};

} // namespace msim::gpusim

#endif // MSIM_GPUSIM_FUNCTIONAL_SIMULATOR_HH
