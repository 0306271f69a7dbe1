#include "gpusim/timing_simulator.hh"

#include <algorithm>
#include <iostream>
#include <optional>
#include <utility>

#include "gpusim/power.hh"
#include "obs/profile.hh"

namespace msim::gpusim
{

PipeQueue::PipeQueue(obs::StatsGroup stats, obs::TraceBuffer &trace,
                     const char *name, std::uint32_t entries)
    : ring_(entries ? entries : 1, 0), name_(name), trace_(&trace),
      pushes_(&stats.scalar("pushes", "items enqueued")),
      stallCycles_(&stats.scalar("stall_cycles",
                                 "producer cycles lost to a full queue"))
{}

void
PipeQueue::reset(std::uint32_t frame)
{
    std::fill(ring_.begin(), ring_.end(), 0);
    head_ = 0;
    frame_ = frame;
}

void
PipeQueue::flushStats()
{
    if (pendPushes_) {
        *pushes_ += static_cast<double>(pendPushes_);
        pendPushes_ = 0;
    }
    if (pendStall_) {
        *stallCycles_ += static_cast<double>(pendStall_);
        pendStall_ = 0;
    }
}

TimingSimulator::TimingSimulator(const GpuConfig &config,
                                 const SceneBinding &binding,
                                 const obs::ObsConfig &obsConfig)
    : config_(config), binding_(&binding),
      geometry_(config, binding), trace_(obsConfig),
      vertexCache_(config.vertexCache,
                   registry_.group("gpu.vertex_cache")),
      tileCache_(config.tileCache, registry_.group("gpu.tile_cache")),
      l2_(config.memory.l2, registry_.group("gpu.l2")),
      dram_(config.memory.dram, registry_.group("gpu.dram")),
      vertexInQueue_(registry_.group("gpu.queue.vertex_in"), trace_,
                     "vertex_in", config.vertexInQueueEntries),
      vertexOutQueue_(registry_.group("gpu.queue.vertex_out"), trace_,
                      "vertex_out", config.vertexInQueueEntries),
      triangleQueue_(registry_.group("gpu.queue.triangle"), trace_,
                     "triangle", config.triangleQueueEntries),
      fragmentQueue_(registry_.group("gpu.queue.fragment"), trace_,
                     "fragment", config.fragmentQueueEntries),
      colorQueue_(registry_.group("gpu.queue.color"), trace_, "color",
                  config.colorQueueEntries),
      statsDump_(obsConfig.statsDump)
{
    // All texture caches share one stats group: registration is
    // idempotent, so the four caches aggregate into the same counters.
    textureCaches_.reserve(config.numTextureCaches);
    for (std::uint32_t i = 0; i < config.numTextureCaches; ++i)
        textureCaches_.emplace_back(
            config.textureCache, registry_.group("gpu.texture_cache"));

    vertexProcFree_.resize(std::max(1u, config.numVertexProcessors));
    fragmentProcFree_.resize(
        std::max(1u, config.numFragmentProcessors));

    // A tile's pixels span at most ceil(w / 2) x ceil(h / 2) quads,
    // also when an odd tile size puts its first pixel mid-quad. Epoch
    // 0 is never used for a tile, so zero-initialized stamps read as
    // "stale" (depth 1.0f, no owner) from the first frame on.
    tileQuadsPerRow_ = (config.tileWidth + 1) / 2;
    const std::size_t tileQuads =
        tileQuadsPerRow_ * ((config.tileHeight + 1) / 2);
    tileZ_.assign(4 * tileQuads, 1.0f);
    tileStamp_.assign(tileQuads, 0);
    tileOwner_.resize(4 * tileQuads);
    tileUv_.resize(4 * tileQuads);

    obs::StatsGroup geom = registry_.group("gpu.geometry");
    vsInvocations_ = &geom.scalar("vs_invocations",
                                  "vertex-shader executions");
    vsInstructions_ = &geom.scalar("vs_instructions",
                                   "vertex-shader instructions");
    geomDramLines_ = &geom.scalar("dram_lines",
                                  "DRAM lines fetched for vertices");

    obs::StatsGroup tiling = registry_.group("gpu.tiling");
    trianglesBinned_ = &tiling.scalar("triangles",
                                      "triangles binned");
    tileEntries_ = &tiling.scalar("tile_entries",
                                  "triangle-tile pairs emitted");
    tileListBytes_ = &tiling.scalar("tile_list_bytes",
                                    "bytes written to tile lists");
    tilingDramLines_ = &tiling.scalar("dram_lines",
                                      "DRAM lines for tile lists");

    obs::StatsGroup raster = registry_.group("gpu.raster");
    quads_ = &raster.scalar("quads", "quad-fragments rasterized");
    earlyZKills_ = &raster.scalar("earlyz_kills",
                                  "quads rejected by early-Z");
    fsInvocations_ = &raster.scalar("fs_invocations",
                                    "fragments shaded");
    fsInstructions_ = &raster.scalar("fs_instructions",
                                     "fragment-shader instructions");
    blendedPixels_ = &raster.scalar("blended_pixels",
                                    "pixels through the blend unit");
    framebufferBytes_ = &raster.scalar(
        "framebuffer_bytes", "tile-flush bytes written off-chip");
    rasterDramLines_ = &raster.scalar(
        "dram_lines", "DRAM lines for textures + flushes");
    tileCycles_ = &raster.distribution(
        "tile_cycles", 0.0, 20000.0, 20, "cycles spent per tile");

    obs::StatsGroup frame = registry_.group("gpu.frame");
    frameCycles_ = &frame.scalar("cycles", "frame execution cycles");
    frameStallCycles_ = &frame.scalar(
        "stall_cycles", "total queue backpressure cycles");
    framesSimulated_ = &frame.scalar("index", "frame index simulated");
    frameWallSeconds_ = &frame.scalar(
        "wall_seconds", "host wall-clock time simulating the frame");
    frame.formula(
        "ipc",
        [this] {
            const double c = frameCycles_->value();
            return c > 0.0 ? (vsInstructions_->value() +
                              fsInstructions_->value()) /
                                 c
                           : 0.0;
        },
        "instructions per cycle");

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

void
TimingSimulator::flushFrameStats()
{
    // Each Scalar was reset at frame start, so every counter receives
    // exactly one integer-valued add here — exact below 2^53 and
    // therefore bit-identical to per-event increments. The texture
    // caches fold one after another into their shared group; every
    // partial sum is an exact integer, so the order is immaterial.
    *vsInvocations_ += static_cast<double>(batch_.vsInvocations);
    *vsInstructions_ += static_cast<double>(batch_.vsInstructions);
    *geomDramLines_ += static_cast<double>(batch_.geomDramLines);
    *trianglesBinned_ += static_cast<double>(batch_.triangles);
    *tileEntries_ += static_cast<double>(batch_.tileEntries);
    *tileListBytes_ += static_cast<double>(batch_.tileListBytes);
    *tilingDramLines_ += static_cast<double>(batch_.tilingDramLines);
    *quads_ += static_cast<double>(batch_.quads);
    *earlyZKills_ += static_cast<double>(batch_.earlyZKills);
    *fsInvocations_ += static_cast<double>(batch_.fsInvocations);
    *fsInstructions_ += static_cast<double>(batch_.fsInstructions);
    *blendedPixels_ += static_cast<double>(batch_.blendedPixels);
    *framebufferBytes_ += static_cast<double>(batch_.framebufferBytes);
    *rasterDramLines_ += static_cast<double>(batch_.rasterDramLines);
    batch_ = FrameBatch{};

    vertexCache_.flushStats();
    for (mem::Cache &c : textureCaches_)
        c.flushStats();
    tileCache_.flushStats();
    l2_.flushStats();
    dram_.flushStats(); // sole flush this frame: latency_avg is exact

    vertexInQueue_.flushStats();
    vertexOutQueue_.flushStats();
    triangleQueue_.flushStats();
    fragmentQueue_.flushStats();
    colorQueue_.flushStats();
}

FrameStats
TimingSimulator::simulate(const gfx::FrameTrace &frame,
                          FrameActivity *activity)
{
    {
        obs::AttribScope geomScope(obs::HostDomain::Geometry);
        geometry_.processInto(frame, ir_);
    }
    return simulate(ir_, activity);
}

FrameStats
TimingSimulator::simulate(const GeometryIR &ir, FrameActivity *activity)
{
    const double wallStart = obs::wallSeconds();
    const gfx::SceneTrace &scene = binding_->scene();
    frameIndex_ = ir.frameIndex;

    // Cold start: each frame simulates independently of which frames
    // ran before — the property representative-only simulation needs.
    registry_.resetPerFrame();
    vertexCache_.invalidate();
    for (mem::Cache &c : textureCaches_)
        c.invalidate();
    tileCache_.invalidate();
    l2_.invalidate();
    dram_.drain();
    vertexInQueue_.reset(frameIndex_);
    vertexOutQueue_.reset(frameIndex_);
    triangleQueue_.reset(frameIndex_);
    fragmentQueue_.reset(frameIndex_);
    colorQueue_.reset(frameIndex_);
    std::fill(vertexProcFree_.begin(), vertexProcFree_.end(), 0);
    std::fill(fragmentProcFree_.begin(), fragmentProcFree_.end(), 0);
    batch_ = FrameBatch{};

    if (activity) {
        *activity = FrameActivity{};
        activity->frameIndex = ir.frameIndex;
        activity->vsCounts.assign(numVs_, 0);
        activity->fsCounts.assign(numFs_, 0);
    }

    const std::uint32_t tilesX = config_.tilesX();
    const std::uint32_t tilesY = config_.tilesY();
    const std::size_t numTiles =
        static_cast<std::size_t>(tilesX) * tilesY;
    // Per tile: (draw index, triangle index) in submission order.
    // Member scratch: clearing keeps each bin's capacity across frames.
    if (bins_.size() < numTiles)
        bins_.resize(numTiles);
    for (std::size_t tile = 0; tile < numTiles; ++tile)
        bins_[tile].clear();

    // Triangle setup is frame-invariant per triangle; compute it once
    // (lazily, at the first tile that rasterizes the triangle) and
    // reuse it in every other tile the triangle was binned into.
    drawTriOffset_.resize(ir.draws.size());
    std::size_t totalTris = 0;
    for (std::size_t di = 0; di < ir.draws.size(); ++di) {
        drawTriOffset_[di] = totalTris;
        totalTris += ir.draws[di].triangles.size();
    }
    setups_.resize(totalTris);
    setupDone_.assign(totalTris, 0);

    // ---- Geometry + binning --------------------------------------------
    sim::Tick fetchClock = 0;
    sim::Tick paFree = 0;
    sim::Tick binFree = 0;
    sim::Tick geomDone = 0;
    std::size_t vpRR = 0;

    StageSpan fetchSpan, vsSpan, paSpan, binSpan;

    std::optional<obs::AttribScope> geomScope;
    geomScope.emplace(obs::HostDomain::Geometry);
    for (std::uint32_t di = 0; di < ir.draws.size(); ++di) {
        const DrawIR &draw = ir.draws[di];
        const gfx::ShaderProgram &vs = scene.shaders[draw.vsId];
        const std::uint64_t vsInstr = vs.instructionCount();

        sim::Tick lastPaDone = fetchClock;
        for (std::uint32_t v = 0; v < draw.vertexCount; ++v) {
            const sim::Tick fetchStart = fetchClock++;
            const sim::Tick fetchDone = memAccess(
                &vertexCache_, fetchStart,
                binding_->vertexAddr(draw.meshId, v), false,
                &batch_.geomDramLines);
            fetchSpan.cover(fetchStart, fetchDone);

            const sim::Tick inIssue = vertexInQueue_.reserve(fetchDone);
            sim::Tick &vp = vertexProcFree_[vpRR];
            if (++vpRR == vertexProcFree_.size())
                vpRR = 0;
            const sim::Tick vpStart = std::max(inIssue, vp);
            const sim::Tick vpDone = vpStart + vsInstr;
            vp = vpDone;
            vertexInQueue_.complete(vpStart);
            vsSpan.cover(vpStart, vpDone);

            const sim::Tick outIssue = vertexOutQueue_.reserve(vpDone);
            const sim::Tick paStart = std::max(outIssue, paFree);
            const sim::Tick paDone =
                paStart + (v % std::max(1u, config_.paVerticesPerCycle)
                               ? 0
                               : 1);
            paFree = paDone;
            vertexOutQueue_.complete(paStart);
            paSpan.cover(paStart, paDone);
            lastPaDone = paDone;
        }
        batch_.vsInvocations += draw.vertexCount;
        batch_.vsInstructions += vsInstr * draw.vertexCount;
        if (activity) {
            activity->verticesShaded += draw.vertexCount;
            activity->vsCounts[shaderColumn_[draw.vsId]] +=
                draw.vertexCount;
            activity->primitives += draw.triangles.size();
        }

        // Binning: assign each surviving triangle to the tiles its
        // bounding box covers and write the tile-list entries.
        for (std::uint32_t ti = 0; ti < draw.triangles.size(); ++ti) {
            const ScreenTriangle &tri = draw.triangles[ti];
            const util::BBox2i box = tri.bounds().intersect(
                util::BBox2i{0, 0,
                             static_cast<int>(config_.screenWidth),
                             static_cast<int>(config_.screenHeight)});

            const sim::Tick tqIssue =
                triangleQueue_.reserve(lastPaDone);
            sim::Tick binStart = std::max(tqIssue, binFree);
            sim::Tick binDone = binStart;

            const int tx0 = box.x0 / static_cast<int>(config_.tileWidth);
            const int ty0 =
                box.y0 / static_cast<int>(config_.tileHeight);
            const int tx1 = (box.x1 - 1) /
                            static_cast<int>(config_.tileWidth);
            const int ty1 = (box.y1 - 1) /
                            static_cast<int>(config_.tileHeight);
            for (int ty = ty0; ty <= ty1; ++ty) {
                for (int tx = tx0; tx <= tx1; ++tx) {
                    const std::size_t tile =
                        static_cast<std::size_t>(ty) * tilesX +
                        static_cast<std::size_t>(tx);
                    binDone += 1; // one entry per cycle
                    binDone = std::max(
                        binDone,
                        memAccess(nullptr, binDone,
                                  binding_->tileListAddr(
                                      static_cast<std::uint32_t>(tile),
                                      static_cast<std::uint32_t>(
                                          bins_[tile].size())),
                                  true, &batch_.tilingDramLines));
                    bins_[tile].emplace_back(di, ti);
                    ++batch_.tileEntries;
                    batch_.tileListBytes +=
                        SceneBinding::kTileListEntryBytes;
                }
            }
            binFree = binDone;
            triangleQueue_.complete(binStart);
            binSpan.cover(binStart, binDone);
            geomDone = std::max(geomDone, binDone);
            ++batch_.triangles;
        }
        geomDone = std::max(geomDone, lastPaDone);
    }
    geomScope.reset();

    auto emitStage = [&](const char *name, const StageSpan &span) {
        if (span.used())
            trace_.emit(name, obs::TraceCategory::Stage, frameIndex_,
                        span.begin, span.end);
    };
    emitStage("vertex_fetch", fetchSpan);
    emitStage("vertex_shader", vsSpan);
    emitStage("primitive_assembly", paSpan);
    emitStage("binning", binSpan);
    trace_.emit("geometry", obs::TraceCategory::Phase, frameIndex_, 0,
                geomDone);

    // ---- Per-tile rasterization ----------------------------------------
    sim::Tick clock = geomDone;
    const int tileW = static_cast<int>(config_.tileWidth);
    const int tileH = static_cast<int>(config_.tileHeight);
    std::size_t fpRR = 0, texRR = 0;

    std::optional<obs::AttribScope> rasterScope;
    rasterScope.emplace(obs::HostDomain::Raster);
    for (std::size_t tile = 0; tile < numTiles; ++tile) {
        if (bins_[tile].empty())
            continue;
        const sim::Tick tileStart = clock;
        const int px0 =
            static_cast<int>(tile % tilesX) * tileW;
        const int py0 =
            static_cast<int>(tile / tilesX) * tileH;
        const util::BBox2i tileBox{
            px0, py0,
            std::min(px0 + tileW,
                     static_cast<int>(config_.screenWidth)),
            std::min(py0 + tileH,
                     static_cast<int>(config_.screenHeight))};

        // Clear the on-chip tile buffers by advancing the epoch: a
        // quad whose stamp is stale reads as depth 1.0f / no owner,
        // exactly what a per-tile fill would produce. On the (rare)
        // 32-bit wrap, re-zero the stamps so a quad from 2^32 tiles
        // ago cannot alias the fresh epoch.
        if (++tileEpoch_ == 0) {
            std::fill(tileStamp_.begin(), tileStamp_.end(), 0);
            tileEpoch_ = 1;
        }
        // Quad coordinates of the tile's top-left pixel.
        const int qx0 = px0 >> 1;
        const int qy0 = py0 >> 1;

        // Read the tile list back (one L2 access per line), as
        // batched multi-line walks. Entry indices wrap modulo 512
        // (tileListAddr), i.e. every 128 64-byte lines, so each chunk
        // re-walks the same contiguous window the per-line loop
        // addressed: line i maps to tileListAddr(tile, 0) + (i % 128)
        // * 64 exactly.
        sim::Tick t = clock;
        std::size_t listLines =
            (bins_[tile].size() * SceneBinding::kTileListEntryBytes +
             63) /
            64;
        const sim::Addr listBase = binding_->tileListAddr(
            static_cast<std::uint32_t>(tile), 0);
        while (listLines > 0) {
            const std::uint32_t chunk = static_cast<std::uint32_t>(
                std::min<std::size_t>(listLines, 128));
            t = memAccessLines(nullptr, t, listBase, chunk, false,
                               &batch_.tilingDramLines);
            listLines -= chunk;
        }

        StageSpan rastSpan, ezSpan, fsSpan, blendSpan, flushSpan;
        sim::Tick rastFree = t;
        sim::Tick blendFree = t;
        sim::Tick tileDone = t;

        // Per-draw constants hoisted out of the per-quad shading path:
        // the shader's instruction/sample counts and the resolved
        // texture, refreshed only when the draw changes (bin entries
        // arrive in draw order, so this is rare).
        struct DrawHot
        {
            std::uint64_t fsInstr = 0;
            std::uint32_t textureSamples = 0;
            std::uint32_t fsColumn = 0;
            SceneBinding::TextureRef tex;
        };
        auto makeHot = [&](const DrawIR &draw) {
            DrawHot h;
            const gfx::ShaderProgram &fs = scene.shaders[draw.fsId];
            h.fsInstr = fs.instructionCount();
            h.textureSamples = fs.textureSamples;
            h.fsColumn = shaderColumn_[draw.fsId];
            if (draw.textureId >= 0) {
                h.tex = binding_->textureRef(draw.textureId);
            } else {
                // Untextured fallback: a zero-dimension ref makes
                // texelAddr() collapse to its base, the same
                // tile-list-base address the textureId < 0 path
                // returned (untextured draws never sample anyway).
                h.tex.base = binding_->tileListAddr(0, 0);
            }
            return h;
        };

        // Shade one surviving quad: queue -> fragment processor ->
        // texture samples -> blend. Returns the blend-complete time.
        auto shadeQuad = [&](const DrawHot &hot, sim::Tick ready,
                             util::Vec2f uv, int pixels) {
            obs::AttribScope shadeScope(obs::HostDomain::Shade);
            const std::uint64_t fsInstr = hot.fsInstr;

            const sim::Tick fqIssue = fragmentQueue_.reserve(ready);
            sim::Tick &fp = fragmentProcFree_[fpRR];
            if (++fpRR == fragmentProcFree_.size())
                fpRR = 0;
            const sim::Tick fpStart = std::max(fqIssue, fp);
            sim::Tick fpDone = fpStart + fsInstr;
            fragmentQueue_.complete(fpStart);

            for (std::uint32_t s = 0; s < hot.textureSamples; ++s) {
                mem::Cache &tc = textureCaches_[texRR];
                if (++texRR == textureCaches_.size())
                    texRR = 0;
                const sim::Tick texDone = memAccess(
                    &tc, fpStart,
                    SceneBinding::texelAddr(hot.tex, uv.x + 0.01f * s,
                                            uv.y),
                    false, &batch_.rasterDramLines);
                fpDone = std::max(fpDone, texDone);
            }
            fp = fpDone;
            fsSpan.cover(fpStart, fpDone);
            batch_.fsInvocations += static_cast<std::uint64_t>(pixels);
            batch_.fsInstructions +=
                fsInstr * static_cast<std::uint64_t>(pixels);
            if (activity) {
                activity->fragmentsShaded +=
                    static_cast<std::uint64_t>(pixels);
                activity->fsCounts[hot.fsColumn] +=
                    static_cast<std::uint64_t>(pixels);
            }

            const sim::Tick cqIssue = colorQueue_.reserve(fpDone);
            const sim::Tick blendStart = std::max(cqIssue, blendFree);
            const sim::Tick blendDone = blendStart + pixels;
            blendFree = blendDone;
            colorQueue_.complete(blendStart);
            blendSpan.cover(blendStart, blendDone);
            batch_.blendedPixels += static_cast<std::uint64_t>(pixels);
            return blendDone;
        };

        float *const tileZ = tileZ_.data();
        std::uint32_t *const tileStamp = tileStamp_.data();
        std::uint32_t *const tileOwner = tileOwner_.data();
        util::Vec2f *const tileUv = tileUv_.data();
        const std::size_t quadsPerRow = tileQuadsPerRow_;
        const std::uint32_t epoch = tileEpoch_;

        std::uint32_t hotDrawId = ~0u;
        DrawHot hot;
        for (const auto &[di, ti] : bins_[tile]) {
            const DrawIR &draw = ir.draws[di];
            if (di != hotDrawId) {
                hot = makeHot(draw);
                hotDrawId = di;
            }
            const ScreenTriangle &tri = draw.triangles[ti];
            const bool opaque = !draw.transparent;
            const bool deferOpaque = config_.hsrEnabled && opaque;

            // Triangle setup: attribute interpolants.
            rastFree +=
                12 / std::max(1u, config_.rastAttributesPerCycle);

            const std::size_t si = drawTriOffset_[di] + ti;
            if (!setupDone_[si]) {
                setups_[si] = setupTriangle(tri);
                setupDone_[si] = 1;
            }
            const TriangleSetup &setup = setups_[si];
            const Lanes4 inv = splat4(setup.inv);
            const Lanes4 z0 = splat4(tri.z[0]), z1 = splat4(tri.z[1]),
                         z2 = splat4(tri.z[2]);

            // One fused body per covered quad: 4-lane z, early-Z
            // against the on-chip tile buffer (no memory traffic — the
            // TBR advantage), then either shading or, for an opaque
            // draw under HSR, recording the visible owner.
            scanQuads(setup, tileBox, [&](int x, int y, unsigned mask,
                                          const QuadEdges &q) {
                const sim::Tick rastDone = ++rastFree;
                rastSpan.cover(rastDone - 1, rastDone);
                ++batch_.quads;
                // The earlyZInflightQuads-deep availability ring never
                // throttles: each quad advances rastFree by at least
                // one cycle, so a ring slot written ezDone =
                // thatRastDone + 1 one-or-more quads ago is always <=
                // the current rastDone. The start time max(rastDone,
                // slot) is therefore rastDone unconditionally and the
                // unit-latency test finishes one cycle later.
                const sim::Tick ezDone = rastDone + 1;
                ezSpan.cover(rastDone, ezDone);

                // Barycentric weights: e1 belongs to v0 (opposite
                // edge), e2 to v1, e0 to v2; z = (w0*z0 + w1*z1) +
                // w2*z2 per lane.
                const Lanes4 w0 = q.e[1] * inv;
                const Lanes4 w1 = q.e[2] * inv;
                const Lanes4 w2 = q.e[0] * inv;
                const Lanes4 z = (w0 * z0 + w1 * z1) + w2 * z2;
                const std::size_t qi =
                    static_cast<std::size_t>((y >> 1) - qy0) *
                        quadsPerRow +
                    static_cast<std::size_t>((x >> 1) - qx0);
                float *const d = tileZ + 4 * qi;
                const bool live = tileStamp[qi] == epoch;
                const Lanes4 old = live ? load4(d) : splat4(1.0f);
                // !(z > depth): a NaN z passes.
                const unsigned pass = notGreaterBits(z, old) & mask;
                if (pass == 0) {
                    ++batch_.earlyZKills;
                    return;
                }
                if (opaque) {
                    // Select-store: failing and uncovered lanes write
                    // their old depth back.
                    store4(d, select4(pass, z, old));
                    tileStamp[qi] = epoch;
                }

                // Texture coordinate of the first covered sample
                // stands in for the whole quad.
                alignas(16) float w0a[4], w1a[4], w2a[4];
                store4(w0a, w0);
                store4(w1a, w1);
                store4(w2a, w2);
                const int s = __builtin_ctz(mask);
                const util::Vec2f uv = {
                    w0a[s] * tri.uv[0].x + w1a[s] * tri.uv[1].x +
                        w2a[s] * tri.uv[2].x,
                    w0a[s] * tri.uv[0].y + w1a[s] * tri.uv[1].y +
                        w2a[s] * tri.uv[2].y};

                if (deferOpaque) {
                    // Shaded after the HSR resolve. Owner and uv lanes
                    // are initialised on the quad's first touch in
                    // this tile, so owner 0 means "never written".
                    std::uint32_t *const own = tileOwner + 4 * qi;
                    util::Vec2f *const quv = tileUv + 4 * qi;
                    for (unsigned l = 0; l < 4; ++l) {
                        const bool win = (pass >> l) & 1u;
                        own[l] = win ? di + 1 : live ? own[l] : 0;
                        quv[l] = win ? uv : quv[l];
                    }
                    return;
                }
                tileDone = std::max(
                    tileDone, shadeQuad(hot, ezDone, uv, popcount4(pass)));
            });
            tileDone = std::max(tileDone, rastFree);
        }

        if (config_.hsrEnabled) {
            // Deferred shading: only the visible opaque pixels are
            // shaded, grouped per draw (PowerVR-style HSR). One pass
            // over the tile's pixels in row-major order counts pixels
            // per owner and records each draw's first uv in that
            // order.
            hsrPixelsPerDraw_.assign(ir.draws.size(), 0);
            hsrUv_.resize(ir.draws.size());
            for (int y = tileBox.y0; y < tileBox.y1; ++y) {
                const std::size_t rowQuad =
                    static_cast<std::size_t>((y >> 1) - qy0) *
                    quadsPerRow;
                const unsigned rowLane = (y & 1) ? 2u : 0u;
                for (int x = tileBox.x0; x < tileBox.x1; ++x) {
                    const std::size_t qi =
                        rowQuad + static_cast<std::size_t>((x >> 1) - qx0);
                    if (tileStamp[qi] != epoch)
                        continue;
                    const std::size_t lane =
                        4 * qi + rowLane + static_cast<unsigned>(x & 1);
                    const std::uint32_t owner = tileOwner[lane];
                    if (owner == 0)
                        continue;
                    if (++hsrPixelsPerDraw_[owner - 1] == 1)
                        hsrUv_[owner - 1] = tileUv[lane];
                }
            }
            for (std::size_t di = 0; di < hsrPixelsPerDraw_.size();
                 ++di) {
                std::uint64_t pixels = hsrPixelsPerDraw_[di];
                if (!pixels)
                    continue;
                const DrawIR &draw =
                    ir.draws[static_cast<std::uint32_t>(di)];
                const DrawHot drawHot = makeHot(draw);
                while (pixels) {
                    const int batch = static_cast<int>(
                        std::min<std::uint64_t>(4, pixels));
                    pixels -= static_cast<std::uint64_t>(batch);
                    tileDone = std::max(
                        tileDone,
                        shadeQuad(drawHot, tileDone, hsrUv_[di], batch));
                }
            }
        }

        // Tile flush: one color write per pixel, through the tile
        // cache to DRAM. This is the only framebuffer traffic TBR
        // generates.
        const std::uint64_t flushBytes =
            static_cast<std::uint64_t>(tileBox.width()) *
            static_cast<std::uint64_t>(tileBox.height()) * 4;
        // One access per 64 B line (16 4-byte pixels); each row is
        // contiguous, so it flushes as one batched multi-line walk.
        // Chaining through memAccessLines is identical to the former
        // per-access max(): every walk completes strictly after it
        // starts, so the max was always the new completion time.
        sim::Tick flushT = tileDone;
        const std::uint32_t rowLines = static_cast<std::uint32_t>(
            (tileBox.width() + 15) / 16);
        for (int y = tileBox.y0; y < tileBox.y1; ++y)
            flushT = memAccessLines(
                &tileCache_, flushT,
                binding_->colorAddr(
                    config_.screenWidth,
                    static_cast<std::uint32_t>(tileBox.x0),
                    static_cast<std::uint32_t>(y)),
                rowLines, true, &batch_.rasterDramLines);
        flushSpan.cover(tileDone, flushT);
        batch_.framebufferBytes += flushBytes;
        tileDone = flushT;

        emitStage("rasterizer", rastSpan);
        emitStage("early_z", ezSpan);
        emitStage("fragment_shader", fsSpan);
        emitStage("blend", blendSpan);
        emitStage("tile_flush", flushSpan);
        trace_.emit("raster_tile", obs::TraceCategory::Stage,
                    frameIndex_, tileStart, tileDone,
                    static_cast<std::uint64_t>(tile));

        tileCycles_->sample(static_cast<double>(tileDone - tileStart));
        clock = tileDone;
    }
    rasterScope.reset();

    trace_.emit("raster", obs::TraceCategory::Phase, frameIndex_,
                geomDone, clock);
    trace_.emit("frame", obs::TraceCategory::Frame, frameIndex_, 0,
                clock, ir.primitives());

    lastFrameWall_ = obs::wallSeconds() - wallStart;
    frameWallSeconds_->set(lastFrameWall_);
    return harvest(ir.frameIndex, clock);
}

FrameStats
TimingSimulator::harvest(std::uint32_t frameIndex, sim::Tick cycles)
{
    // Publish every deferred counter before the registry is read —
    // from here on the registry is complete and consistent.
    flushFrameStats();

    frameCycles_->set(static_cast<double>(cycles));
    framesSimulated_->set(static_cast<double>(frameIndex));
    frameStallCycles_->set(
        static_cast<double>(vertexInQueue_.stallCycles() +
                            vertexOutQueue_.stallCycles() +
                            triangleQueue_.stallCycles() +
                            fragmentQueue_.stallCycles() +
                            colorQueue_.stallCycles()));

    // FrameStats is read back out of the registry: the registry is the
    // single source of truth for every counter below.
    FrameStats s;
    s.frameIndex = frameIndex;
    s.cycles = cycles;
    auto count = [this](const char *name) {
        const obs::Stat *stat = registry_.find(name);
        return stat ? static_cast<std::uint64_t>(stat->value()) : 0;
    };
    s.vsInvocations = count("gpu.geometry.vs_invocations");
    s.vsInstructions = count("gpu.geometry.vs_instructions");
    s.fsInvocations = count("gpu.raster.fs_invocations");
    s.fsInstructions = count("gpu.raster.fs_instructions");
    s.primitives = count("gpu.tiling.triangles");
    s.vertexCacheAccesses = count("gpu.vertex_cache.accesses");
    s.textureCacheAccesses = count("gpu.texture_cache.accesses");
    s.tileCacheAccesses = count("gpu.tile_cache.accesses");
    s.l2Accesses = count("gpu.l2.accesses");
    s.dramAccesses = count("gpu.dram.transactions");
    s.dramBytes = count("gpu.dram.bytes");
    s.framebufferBytes = count("gpu.raster.framebuffer_bytes");
    s.stallCycles = count("gpu.frame.stall_cycles");
    s.earlyZKills = count("gpu.raster.earlyz_kills");
    s.energy = energyFromRegistry(registry_);

    if (!statsDump_.empty())
        registry_.dump(std::cerr, statsDump_);
    return s;
}

} // namespace msim::gpusim
