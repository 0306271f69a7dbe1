/**
 * @file
 * Cycle-level TBR GPU timing model (Sec. II-B architecture): bounded
 * inter-stage queues modelled as completion-time rings, latency-
 * annotated caches, banked DRAM, per-tile rasterization with early-Z
 * (or deferred HSR). Every stage, queue, cache and the DRAM register
 * their counters in one hierarchical stats registry, and the same
 * counters are what FrameStats is assembled from — there is a single
 * source of truth. Stage/queue/DRAM activity is mirrored into the
 * trace buffer when tracing is enabled.
 *
 * Hot-path engineering (see DESIGN.md §6g): per-access counters batch
 * into integer accumulators and reach the registry in one exact flush
 * per frame; the on-chip tile buffers are quad-major and clear via a
 * per-quad epoch stamp instead of a per-tile fill; triangle setup is
 * computed once per triangle and reused across the tiles it was
 * binned into; each tile runs one fused per-quad kernel (edge scan,
 * 4-lane z, early-Z or HSR). All of it keeps every statistic
 * bit-identical to the straightforward model — the golden suites under
 * tests/perf enforce that.
 */

#ifndef MSIM_GPUSIM_TIMING_SIMULATOR_HH
#define MSIM_GPUSIM_TIMING_SIMULATOR_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/frame_stats.hh"
#include "gpusim/functional_simulator.hh"
#include "gpusim/geometry.hh"
#include "gpusim/gpu_config.hh"
#include "gpusim/rasterizer.hh"
#include "gpusim/scene_binding.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "obs/attrib.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace msim::gpusim
{

/**
 * A bounded pipeline queue, modelled as a ring of slot-free times: a
 * push at time t issues at max(t, time the oldest slot frees), which
 * is exactly the backpressure stall. Counters (pushes, stall cycles,
 * max occupancy proxy) live in the shared registry but accumulate in
 * plain integers between flushStats() calls (one flush per frame);
 * long stalls emit trace events.
 */
class PipeQueue
{
  public:
    PipeQueue(obs::StatsGroup stats, obs::TraceBuffer &trace,
              const char *name, std::uint32_t entries);

    /**
     * Reserve a slot for an item that becomes ready at @p ready.
     * Returns the entry time (>= ready; later when the queue is full
     * — that difference is the backpressure stall). Must be paired
     * with complete(), which records when the consumer frees the slot.
     */
    sim::Tick
    reserve(sim::Tick ready)
    {
        const sim::Tick slotFree = ring_[head_];
        const sim::Tick issue = slotFree > ready ? slotFree : ready;
        if (issue > ready) {
            const sim::Tick stall = issue - ready;
            pendStall_ += stall;
            if (stall >= kTraceStallThreshold)
                trace_->emit(name_, obs::TraceCategory::Queue, frame_,
                             ready, issue, stall);
        }
        ++pendPushes_;
        return issue;
    }

    /** The consumer drains the reserved slot at @p done. */
    void
    complete(sim::Tick done)
    {
        ring_[head_] = done;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    }

    void reset(std::uint32_t frame);

    /** Publish pending counter deltas to the registry (exact). */
    void flushStats();

    std::uint64_t stallCycles() const
    {
        return static_cast<std::uint64_t>(stallCycles_->value()) +
               pendStall_;
    }

  private:
    static constexpr sim::Tick kTraceStallThreshold = 8;

    std::vector<sim::Tick> ring_;
    std::size_t head_ = 0;
    const char *name_;
    std::uint32_t frame_ = 0;
    std::uint64_t pendPushes_ = 0;
    std::uint64_t pendStall_ = 0;
    obs::TraceBuffer *trace_;
    obs::Scalar *pushes_;
    obs::Scalar *stallCycles_;
};

class TimingSimulator
{
  public:
    TimingSimulator(const GpuConfig &config,
                    const SceneBinding &binding,
                    const obs::ObsConfig &obsConfig =
                        obs::ObsConfig::fromEnv());

    /**
     * Simulate one frame from scratch (cold caches, so the result is
     * independent of which frames were simulated before — the property
     * representative-only simulation relies on). Optionally also
     * reports the functional activity of the frame.
     */
    FrameStats simulate(const gfx::FrameTrace &frame,
                        FrameActivity *activity = nullptr);
    FrameStats simulate(const GeometryIR &ir,
                        FrameActivity *activity = nullptr);

    const GpuConfig &config() const { return config_; }
    obs::StatsRegistry &stats() { return registry_; }
    obs::TraceBuffer &trace() { return trace_; }

    /** Host wall-clock seconds the last simulate() call took — what
     *  the resilience watchdog compares against its budget. */
    double lastFrameWallSeconds() const { return lastFrameWall_; }

  private:
    struct StageSpan
    {
        sim::Tick begin = ~sim::Tick{0};
        sim::Tick end = 0;

        void
        cover(sim::Tick b, sim::Tick e)
        {
            if (b < begin)
                begin = b;
            if (e > end)
                end = e;
        }

        bool used() const { return end >= begin; }
    };

    /**
     * One frame's hot-loop counters, batched in integers and flushed
     * onto the (per-frame reset) registry Scalars in harvest(). The
     * single integer-valued add per Scalar is exact below 2^53, so
     * the registry totals are bit-identical to per-event increments.
     */
    struct FrameBatch
    {
        std::uint64_t vsInvocations = 0;
        std::uint64_t vsInstructions = 0;
        std::uint64_t geomDramLines = 0;
        std::uint64_t triangles = 0;
        std::uint64_t tileEntries = 0;
        std::uint64_t tileListBytes = 0;
        std::uint64_t tilingDramLines = 0;
        std::uint64_t quads = 0;
        std::uint64_t earlyZKills = 0;
        std::uint64_t fsInvocations = 0;
        std::uint64_t fsInstructions = 0;
        std::uint64_t blendedPixels = 0;
        std::uint64_t framebufferBytes = 0;
        std::uint64_t rasterDramLines = 0;
    };

    /**
     * Charge an access through @p l1 (may be null for L2-direct
     * streams) -> L2 -> DRAM; returns the completion time.
     * @p dramLines counts lines that reached DRAM for this requester
     * (a FrameBatch field), which is what attributes memory energy to
     * pipeline phases. Inline: every memory reference of a frame
     * funnels through here.
     */
    sim::Tick
    memAccess(mem::Cache *l1, sim::Tick now, sim::Addr addr,
              bool write, std::uint64_t *dramLines)
    {
        // Host-cost attribution of the whole walk (one predictable
        // branch when MEGSIM_ATTRIB is off).
        obs::AttribScope memScope(obs::HostDomain::MemWalk);
        return memWalk(l1, now, addr, write, dramLines);
    }

    /** memAccess() minus the attribution scope — the body shared by
     *  the single-access and batched entry points. */
    sim::Tick
    memWalk(mem::Cache *l1, sim::Tick now, sim::Addr addr,
            bool write, std::uint64_t *dramLines)
    {
        sim::Tick t = now;
        if (l1) {
            const mem::CacheAccess a = l1->accessDeferred(addr, write);
            t += l1->config().hitLatency;
            if (a.writeback) {
                const mem::CacheAccess wb =
                    l2_.accessDeferred(a.victimLine, true);
                if (wb.writeback)
                    dram_.accessDeferred(t, wb.victimLine, true);
            }
            if (a.hit)
                return t;
            const mem::CacheAccess l2a =
                l2_.accessDeferred(addr, false); // fills read from L2
            t += l2_.config().hitLatency;
            if (l2a.writeback)
                dram_.accessDeferred(t, l2a.victimLine, true);
            if (!l2a.hit) {
                const sim::Tick done =
                    dram_.accessDeferred(t, addr, false);
                ++*dramLines;
                trace_.emit("dram", obs::TraceCategory::Dram,
                            frameIndex_, t, done, addr);
                t = done;
            }
            return t;
        }
        const mem::CacheAccess l2a = l2_.accessDeferred(addr, write);
        t += l2_.config().hitLatency;
        if (l2a.writeback)
            dram_.accessDeferred(t, l2a.victimLine, true);
        if (l2a.hit)
            return t;
        const sim::Tick done = dram_.accessDeferred(t, addr, write);
        ++*dramLines;
        trace_.emit("dram", obs::TraceCategory::Dram, frameIndex_, t,
                    done, addr);
        return done;
    }

    /**
     * Batched multi-line walk: identical state, counter and timing
     * effects to @p lines consecutive line-stride memAccess() calls
     * with each walk starting when the previous one completed, but
     * with the attribution scope and per-call overhead hoisted out of
     * the loop. Returns the last line's completion time.
     */
    sim::Tick
    memAccessLines(mem::Cache *l1, sim::Tick now, sim::Addr addr,
                   std::uint32_t lines, bool write,
                   std::uint64_t *dramLines)
    {
        obs::AttribScope memScope(obs::HostDomain::MemWalk);
        const sim::Addr step = l2_.config().lineBytes;
        sim::Tick t = now;
        for (std::uint32_t i = 0; i < lines; ++i, addr += step)
            t = memWalk(l1, t, addr, write, dramLines);
        return t;
    }

    /** Flush every deferred counter (batch, caches, DRAM, queues). */
    void flushFrameStats();

    FrameStats harvest(std::uint32_t frameIndex, sim::Tick cycles);

    GpuConfig config_;
    const SceneBinding *binding_;
    GeometryProcessor geometry_;

    obs::StatsRegistry registry_;
    obs::TraceBuffer trace_;

    mem::Cache vertexCache_;
    std::vector<mem::Cache> textureCaches_;
    mem::Cache tileCache_;
    mem::Cache l2_;
    mem::Dram dram_;

    PipeQueue vertexInQueue_;
    PipeQueue vertexOutQueue_;
    PipeQueue triangleQueue_;
    PipeQueue fragmentQueue_;
    PipeQueue colorQueue_;

    // Programmable / fixed-function unit availability rings.
    std::vector<sim::Tick> vertexProcFree_;
    std::vector<sim::Tick> fragmentProcFree_;

    /**
     * The on-chip tile buffers, in 2x2 quad-major order: quad (qx, qy)
     * of a tile (relative to the quad holding the tile's top-left
     * pixel) holds its four samples in lane order at
     * (qy * tileQuadsPerRow_ + qx) * 4, so a quad's early-Z test is
     * one 4-lane load. One epoch stamp per quad validates its lanes:
     * a quad whose stamp is not tileEpoch_ reads depth 1.0f in every
     * lane, so "clearing" a tile is one counter increment instead of
     * a fill. An opaque write stores all four lanes and the stamp.
     * The 32-bit epoch wraps after 2^32 tiles; the wrap handler
     * re-zeroes the stamps so no stale quad can alias.
     */
    std::vector<float> tileZ_;
    std::vector<std::uint32_t> tileStamp_;
    std::vector<std::uint32_t> tileOwner_; // HSR: winning draw + 1
    std::vector<util::Vec2f> tileUv_;      // HSR: winning sample uv
    std::size_t tileQuadsPerRow_ = 0;
    std::uint32_t tileEpoch_ = 0;
    FrameBatch batch_;
    GeometryIR ir_; // reused by simulate(FrameTrace) across frames
    // Per-tile triangle lists, cleared (capacity kept) every frame.
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        bins_;
    // Lazily built per-triangle rasterizer setups, shared by every
    // tile a triangle was binned into. Indexed drawTriOffset_[di]+ti.
    std::vector<TriangleSetup> setups_;
    std::vector<std::uint8_t> setupDone_;
    std::vector<std::size_t> drawTriOffset_;
    // HSR resolve scratch (per tile, only when hsrEnabled).
    std::vector<std::uint64_t> hsrPixelsPerDraw_;
    std::vector<util::Vec2f> hsrUv_;
    std::uint32_t frameIndex_ = 0;
    std::string statsDump_; // per-frame registry dump glob

    // Stage counters (geometry).
    obs::Scalar *vsInvocations_;
    obs::Scalar *vsInstructions_;
    obs::Scalar *geomDramLines_;
    // Tiling.
    obs::Scalar *trianglesBinned_;
    obs::Scalar *tileEntries_;
    obs::Scalar *tileListBytes_;
    obs::Scalar *tilingDramLines_;
    // Raster.
    obs::Scalar *quads_;
    obs::Scalar *earlyZKills_;
    obs::Scalar *fsInvocations_;
    obs::Scalar *fsInstructions_;
    obs::Scalar *blendedPixels_;
    obs::Scalar *framebufferBytes_;
    obs::Scalar *rasterDramLines_;
    obs::Distribution *tileCycles_;
    // Frame.
    obs::Scalar *frameCycles_;
    obs::Scalar *frameStallCycles_;
    obs::Scalar *framesSimulated_;
    obs::Scalar *frameWallSeconds_;
    double lastFrameWall_ = 0.0;

    // Column maps for FrameActivity output.
    std::vector<std::uint32_t> shaderColumn_;
    std::size_t numVs_ = 0;
    std::size_t numFs_ = 0;
};

} // namespace msim::gpusim

#endif // MSIM_GPUSIM_TIMING_SIMULATOR_HH
