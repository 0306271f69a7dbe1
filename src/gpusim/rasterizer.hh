/**
 * @file
 * Edge-function rasterizer emitting 2x2 quad-fragments, the unit both
 * pipelines shade in. Header-only so the per-quad callback inlines in
 * the simulator hot loops.
 */

#ifndef MSIM_GPUSIM_RASTERIZER_HH
#define MSIM_GPUSIM_RASTERIZER_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/geom.hh"

namespace msim::gpusim
{

/** A screen-space triangle after geometry processing. */
struct ScreenTriangle
{
    util::Vec2f v[3];   // pixel coordinates
    float z[3] = {0.5f, 0.5f, 0.5f};
    util::Vec2f uv[3];

    util::BBox2i
    bounds() const
    {
        const float x0 = std::min({v[0].x, v[1].x, v[2].x});
        const float y0 = std::min({v[0].y, v[1].y, v[2].y});
        const float x1 = std::max({v[0].x, v[1].x, v[2].x});
        const float y1 = std::max({v[0].y, v[1].y, v[2].y});
        return util::BBox2i{static_cast<int>(std::floor(x0)),
                            static_cast<int>(std::floor(y0)),
                            static_cast<int>(std::floor(x1)) + 1,
                            static_cast<int>(std::floor(y1)) + 1};
    }

    /** Twice the signed area; 0 = degenerate, <0 = back-facing. */
    float
    area2() const
    {
        return (v[1].x - v[0].x) * (v[2].y - v[0].y) -
               (v[2].x - v[0].x) * (v[1].y - v[0].y);
    }
};

/**
 * A 2x2 fragment quad: the x/y of its top-left pixel (even
 * coordinates), a 4-bit coverage mask (bit i = pixel (i%2, i/2)),
 * per-pixel interpolated depth and the quad-center texture coordinate.
 */
struct QuadFragment
{
    int x = 0;
    int y = 0;
    std::uint8_t mask = 0;
    float z[4] = {};
    util::Vec2f uv;

    int coveredPixels() const { return __builtin_popcount(mask); }
};

/**
 * Per-triangle rasterization state that is independent of the tile
 * being scanned: oriented edge-function coefficients, the inverse
 * area and the screen-space bounding box. A triangle binned into many
 * tiles is set up once and rasterized per tile from the same setup —
 * the coefficients are computed with exactly the expressions the
 * one-shot rasterizer used, so coverage, depth and uv are unchanged.
 */
struct TriangleSetup
{
    float ax[3] = {};
    float by[3] = {};
    float cc[3] = {};
    float inv = 0.0f;
    util::BBox2i box{0, 0, 0, 0}; // tri.bounds(), pre-intersection
    bool valid = false;           // false = degenerate (zero area)
};

inline TriangleSetup
setupTriangle(const ScreenTriangle &tri)
{
    TriangleSetup s;
    float a2 = tri.area2();
    if (a2 == 0.0f)
        return s;
    // Orient the edge functions so inside is positive.
    const float flip = a2 < 0.0f ? -1.0f : 1.0f;
    a2 *= flip;

    const util::Vec2f &p0 = tri.v[0];
    const util::Vec2f &p1 = tri.v[1];
    const util::Vec2f &p2 = tri.v[2];
    // Edge i: from v[i] to v[(i+1)%3]; e(x,y) = A*x + B*y + C.
    s.ax[0] = flip * (p0.y - p1.y);
    s.ax[1] = flip * (p1.y - p2.y);
    s.ax[2] = flip * (p2.y - p0.y);
    s.by[0] = flip * (p1.x - p0.x);
    s.by[1] = flip * (p2.x - p1.x);
    s.by[2] = flip * (p0.x - p2.x);
    s.cc[0] = flip * (p0.x * p1.y - p1.x * p0.y);
    s.cc[1] = flip * (p1.x * p2.y - p2.x * p1.y);
    s.cc[2] = flip * (p2.x * p0.y - p0.x * p2.y);
    s.inv = 1.0f / a2;
    s.box = tri.bounds();
    s.valid = true;
    return s;
}

/**
 * Four float lanes, one per sample of a 2x2 quad, in the lane order
 * s0 = (L,A), s1 = (R,A), s2 = (L,B), s3 = (R,B): left/right column,
 * upper/lower row (bit s of a quad mask is lane s). Every operation is
 * a per-lane IEEE single op — SSE2 packed mul/add/compare, or the same
 * scalar expression per lane without SSE2 — so each lane rounds
 * exactly like the scalar expression it spells (no fma, no
 * reassociation) and both builds produce the same bits.
 */
#if defined(__SSE2__)
struct Lanes4
{
    __m128 v;
};

inline Lanes4
lanes4(float s0, float s1, float s2, float s3)
{
    return {_mm_setr_ps(s0, s1, s2, s3)};
}

inline Lanes4 splat4(float a) { return {_mm_set1_ps(a)}; }
inline Lanes4 operator+(Lanes4 a, Lanes4 b) { return {_mm_add_ps(a.v, b.v)}; }
inline Lanes4 operator*(Lanes4 a, Lanes4 b) { return {_mm_mul_ps(a.v, b.v)}; }
inline Lanes4 load4(const float *p) { return {_mm_loadu_ps(p)}; }
inline void store4(float *p, Lanes4 a) { _mm_storeu_ps(p, a.v); }

/** Bit s set where lane s is < 0 (clear for NaN). */
inline unsigned
negativeBits(Lanes4 a)
{
    return static_cast<unsigned>(
        _mm_movemask_ps(_mm_cmplt_ps(a.v, _mm_setzero_ps())));
}

/** Bit s set where a[s] <= b[s] (clear when either is NaN). */
inline unsigned
lessEqualBits(Lanes4 a, Lanes4 b)
{
    return static_cast<unsigned>(_mm_movemask_ps(_mm_cmple_ps(a.v, b.v)));
}

/** Bit s set where !(a[s] > b[s]) (set when either is NaN). */
inline unsigned
notGreaterBits(Lanes4 a, Lanes4 b)
{
    return static_cast<unsigned>(
        _mm_movemask_ps(_mm_cmpngt_ps(a.v, b.v)));
}

/** Lane s of @p a where bit s of @p bits is set, else lane s of @p b. */
inline Lanes4
select4(unsigned bits, Lanes4 a, Lanes4 b)
{
    const __m128i bit = _mm_setr_epi32(1, 2, 4, 8);
    const __m128 m = _mm_castsi128_ps(_mm_cmpeq_epi32(
        _mm_and_si128(_mm_set1_epi32(static_cast<int>(bits)), bit), bit));
    return {_mm_or_ps(_mm_and_ps(m, a.v), _mm_andnot_ps(m, b.v))};
}
#else
struct Lanes4
{
    float v[4];
};

inline Lanes4
lanes4(float s0, float s1, float s2, float s3)
{
    return {{s0, s1, s2, s3}};
}

inline Lanes4 splat4(float a) { return {{a, a, a, a}}; }

inline Lanes4
operator+(Lanes4 a, Lanes4 b)
{
    return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
             a.v[3] + b.v[3]}};
}

inline Lanes4
operator*(Lanes4 a, Lanes4 b)
{
    return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
             a.v[3] * b.v[3]}};
}

inline Lanes4 load4(const float *p) { return {{p[0], p[1], p[2], p[3]}}; }

inline void
store4(float *p, Lanes4 a)
{
    for (int s = 0; s < 4; ++s)
        p[s] = a.v[s];
}

inline unsigned
negativeBits(Lanes4 a)
{
    unsigned bits = 0;
    for (int s = 0; s < 4; ++s)
        bits |= a.v[s] < 0.0f ? 1u << s : 0u;
    return bits;
}

inline unsigned
lessEqualBits(Lanes4 a, Lanes4 b)
{
    unsigned bits = 0;
    for (int s = 0; s < 4; ++s)
        bits |= a.v[s] <= b.v[s] ? 1u << s : 0u;
    return bits;
}

inline unsigned
notGreaterBits(Lanes4 a, Lanes4 b)
{
    unsigned bits = 0;
    for (int s = 0; s < 4; ++s)
        bits |= !(a.v[s] > b.v[s]) ? 1u << s : 0u;
    return bits;
}

inline Lanes4
select4(unsigned bits, Lanes4 a, Lanes4 b)
{
    Lanes4 r;
    for (int s = 0; s < 4; ++s)
        r.v[s] = (bits >> s) & 1u ? a.v[s] : b.v[s];
    return r;
}
#endif

/** Set bits of a 4-bit quad mask, from a 16-entry nibble table (the
 *  portable build has no popcnt instruction). */
inline int
popcount4(unsigned mask)
{
    return static_cast<int>((0x4332322132212110ull >> (4 * mask)) & 0xFu);
}

/** The three edge functions at the four samples of one quad. */
struct QuadEdges
{
    Lanes4 e[3];
};

/**
 * Scan the 2x2 quads of a set-up triangle over the pixels of
 * @p bounds (half-open) and call visit(x, y, mask, edges) for every
 * quad with at least one covered sample. (x, y) is the quad's
 * top-left pixel (even coordinates) and bit s of the 4-bit @p mask is
 * a covered sample inside @p bounds. This is the single edge test of
 * every rasterizing model: the IMR model through
 * rasterizeSetupInTile(), the timing model and the functional pass
 * directly, each with a fused per-quad body.
 */
template <typename Visit>
void
scanQuads(const TriangleSetup &setup, const util::BBox2i &bounds,
          Visit &&visit)
{
    if (!setup.valid)
        return;
    util::BBox2i box = setup.box.intersect(bounds);
    if (box.empty())
        return;
    // Snapping to the quad grid reaches one sample outside the box
    // where a box edge is odd. Where that edge is also a bound (an
    // odd screen size), those samples lie outside @p bounds and are
    // dropped from the mask; elsewhere the edge test decides them as
    // before. With even bounds every keep mask is 0xF.
    const unsigned keepLeft =
        (box.x0 & 1) && box.x0 == bounds.x0 ? 0xAu : 0xFu;
    const unsigned keepRight =
        (box.x1 & 1) && box.x1 == bounds.x1 ? 0x5u : 0xFu;
    const unsigned keepTop =
        (box.y0 & 1) && box.y0 == bounds.y0 ? 0xCu : 0xFu;
    const unsigned keepBottom =
        (box.y1 & 1) && box.y1 == bounds.y1 ? 0x3u : 0xFu;
    box.x0 &= ~1;
    box.y0 &= ~1;
    const int lastX = (box.x1 - 1) & ~1;
    const int lastY = (box.y1 - 1) & ~1;

    const float ax0 = setup.ax[0], ax1 = setup.ax[1], ax2 = setup.ax[2];
    const float by0 = setup.by[0], by1 = setup.by[1], by2 = setup.by[2];
    // Row-termination predicates. Round-to-nearest is a monotone map,
    // so the float-evaluated edge function is monotone along a row
    // exactly like the real one: for an edge with ax <= 0 (e does not
    // increase with x), a failure at a row's RIGHT sample keeps
    // failing at every larger x. Once both rows of a quad-row have
    // terminated this way, the remaining quads provably have empty
    // coverage and the scan can stop without any output changing.
    // Relevance mask per edge: all lanes when the edge can terminate a
    // row (ax <= 0), none otherwise.
    const unsigned rel0 = ax0 <= 0.0f ? 0xFu : 0u;
    const unsigned rel1 = ax1 <= 0.0f ? 0xFu : 0u;
    const unsigned rel2 = ax2 <= 0.0f ? 0xFu : 0u;
    const Lanes4 ax0v = splat4(ax0), ax1v = splat4(ax1),
                 ax2v = splat4(ax2);
    const Lanes4 cc0v = splat4(setup.cc[0]), cc1v = splat4(setup.cc[1]),
                 cc2v = splat4(setup.cc[2]);
    const Lanes4 two = splat4(2.0f);

    for (int y = box.y0; y < box.y1; y += 2) {
        const float pyA = static_cast<float>(y) + 0.5f;
        const float pyB = static_cast<float>(y + 1) + 0.5f;
        // Row-constant by*py products. Each lane below evaluates
        // (ax*px + by*py) + cc, the original per-sample expression
        // ((ax*px) + (by*py)) + cc term for term.
        const float b0A = by0 * pyA, b0B = by0 * pyB;
        const float b1A = by1 * pyA, b1B = by1 * pyB;
        const float b2A = by2 * pyA, b2B = by2 * pyB;
        const Lanes4 b0v = lanes4(b0A, b0A, b0B, b0B);
        const Lanes4 b1v = lanes4(b1A, b1A, b1B, b1B);
        const Lanes4 b2v = lanes4(b2A, b2A, b2B, b2B);
        const unsigned rowKeep = (y == box.y0 ? keepTop : 0xFu) &
                                 (y == lastY ? keepBottom : 0xFu);
        // Sample x centers x + 0.5 and x + 1.5. Integers plus 0.5
        // below 2^22 are exact floats, so stepping by 2.0 yields the
        // same bits as converting each x.
        const float pxL0 = static_cast<float>(box.x0) + 0.5f;
        Lanes4 pxv = lanes4(pxL0, pxL0 + 1.0f, pxL0, pxL0 + 1.0f);
        bool doneA = false, doneB = false;
        for (int x = box.x0; x < box.x1; x += 2, pxv = pxv + two) {
            // Branchless: evaluating an edge the short-circuiting
            // scalar scan skipped has no side effects, and the fail
            // bits fI keep that scan's predicate polarity (e < 0), so
            // even a NaN takes the branch it did.
            QuadEdges q;
            q.e[0] = (ax0v * pxv + b0v) + cc0v;
            q.e[1] = (ax1v * pxv + b1v) + cc1v;
            q.e[2] = (ax2v * pxv + b2v) + cc2v;
            const unsigned f0 = negativeBits(q.e[0]);
            const unsigned f1 = negativeBits(q.e[1]);
            const unsigned f2 = negativeBits(q.e[2]);
            const unsigned colKeep = (x == box.x0 ? keepLeft : 0xFu) &
                                     (x == lastX ? keepRight : 0xFu);
            const unsigned mask = ~(f0 | f1 | f2) & rowKeep & colKeep;
            if (mask)
                visit(x, y, mask, static_cast<const QuadEdges &>(q));

            // Bits 1/3 are each row's RIGHT sample.
            const unsigned rowFail =
                (f0 & rel0) | (f1 & rel1) | (f2 & rel2);
            doneA = doneA || (rowFail & 2u) != 0;
            doneB = doneB || (rowFail & 8u) != 0;
            if (doneA && doneB)
                break;
        }
    }
}

/**
 * Rasterize a set-up triangle over the pixels of @p bounds
 * (half-open), invoking @p emit for every quad with at least one
 * covered sample. Returns the number of quads emitted. @p tri supplies
 * the z/uv attributes interpolated from the setup's barycentrics.
 */
template <typename Emit>
std::size_t
rasterizeSetupInTile(const TriangleSetup &setup,
                     const ScreenTriangle &tri,
                     const util::BBox2i &bounds, Emit &&emit)
{
    const float inv = setup.inv;
    std::size_t quads = 0;
    scanQuads(setup, bounds, [&](int x, int y, unsigned mask,
                                 const QuadEdges &q) {
        alignas(16) float e0a[4], e1a[4], e2a[4];
        store4(e0a, q.e[0]);
        store4(e1a, q.e[1]);
        store4(e2a, q.e[2]);
        QuadFragment quad;
        quad.x = x;
        quad.y = y;
        quad.mask = static_cast<std::uint8_t>(mask);
        int first = -1;
        for (int s = 0; s < 4; ++s) {
            if (!(mask & (1u << s)))
                continue;
            // Barycentric weights: e1 belongs to v0 (opposite edge),
            // e2 to v1, e0 to v2.
            const float w0 = e1a[s] * inv;
            const float w1 = e2a[s] * inv;
            const float w2 = e0a[s] * inv;
            if (first < 0) {
                first = s;
                // Texture coordinate of the first covered sample
                // stands in for the whole quad.
                quad.uv = {w0 * tri.uv[0].x + w1 * tri.uv[1].x +
                               w2 * tri.uv[2].x,
                           w0 * tri.uv[0].y + w1 * tri.uv[1].y +
                               w2 * tri.uv[2].y};
            }
            quad.z[s] = w0 * tri.z[0] + w1 * tri.z[1] + w2 * tri.z[2];
        }
        emit(static_cast<const QuadFragment &>(quad));
        ++quads;
    });
    return quads;
}

/**
 * One-shot rasterization: set up @p tri and scan @p bounds. Callers
 * that visit the same triangle in many tiles should cache
 * setupTriangle() and call rasterizeSetupInTile() instead.
 */
template <typename Emit>
std::size_t
rasterizeTriangleInTile(const ScreenTriangle &tri,
                        const util::BBox2i &bounds, Emit &&emit)
{
    return rasterizeSetupInTile(setupTriangle(tri), tri, bounds,
                                std::forward<Emit>(emit));
}

} // namespace msim::gpusim

#endif // MSIM_GPUSIM_RASTERIZER_HH
