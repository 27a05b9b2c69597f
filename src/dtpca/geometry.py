"""2D Delaunay triangulation and the triangle-area mesh descriptor.

A landmark set is triangulated so that no input point lies strictly inside
any triangle's circumcircle.  The mesh is then reduced to a scalar shape
descriptor: per-triangle areas from edge lengths (Heron), areas normalized
by the largest triangle, and the arithmetic mean of those ratios.

The triangulation is a halfedge sweep.  Points are inserted in lexicographic
order, so each new point is outside the hull of its predecessors and sees a
run of hull edges that touches the point inserted just before it; walking
the hull ring both ways from that point finds the run.  The new point is
fanned onto the run, and Lawson flips legalize only the edges opposite it
(Guibas and Stolfi 1985).  Every orientation and in-circle sign is exact.
One error bound per mesh decides almost all of them: a double determinant
errs by at most Shewchuk's coefficient times its permanent, which is at
most that bound.  The determinant in exact integer arithmetic decides the
rest.  Lawson decides cocircular quads where it tests them, under
Simulation of Simplicity (Edelsbrunner and Mücke 1990): the kept diagonal
is the one whose lowest vertex index is smallest, so each cocircular
polygon is fanned from its lowest index.  Only the sweep runs per point in
Python; the finished mesh goes to numpy once, for the canonical triangle
order and Heron's formula over all triangles (edge lengths from math.hypot).
The sweep takes every determinant's differences from the inserted point,
carries them from one hull edge or flip to the next, and finds duplicates
as it goes: in lexicographic order a duplicate follows its twin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Error coefficients (Shewchuk, "Adaptive Precision Floating-Point Arithmetic
# and Fast Robust Geometric Predicates", 1997): a double determinant differs
# from the exact one by at most the coefficient times its permanent, the
# same sum over each product's absolute value.  They assume no underflow,
# so TINY is added and no determinant below it is trusted.  `_static_bounds`
# builds one bound per mesh from them.
_EPS = 2.0**-53
ORIENT_BOUND = (3 + 16 * _EPS) * _EPS
INCIRCLE_BOUND = (10 + 96 * _EPS) * _EPS
TINY = 2.0**-900

# A triangle is a triple of point indices, stored in ascending order.
Triangle = tuple[int, int, int]


@dataclass(frozen=True)
class Triangulation:
    """A Delaunay mesh over a point set plus its derived area statistics.

    points: (n, 2) float array of the triangulated coordinates.
    triangles: ascending-index triples, sorted canonically.
    areas: per-triangle area in coordinate-unit**2 (Heron, from edge lengths;
        half the exact orientation determinant where Heron rounds to 0).
    relative_areas: areas / max(areas), so max(relative_areas) == 1 exactly.
    average_relative_area: arithmetic mean of relative_areas.
    """

    points: np.ndarray
    triangles: list[Triangle]
    areas: np.ndarray
    relative_areas: np.ndarray
    average_relative_area: float

    def to_dict(self) -> dict:
        """JSON-ready mesh representation."""
        return {
            "points": [[float(x), float(y)] for x, y in self.points],
            "triangles": [[int(i), int(j), int(k)] for i, j, k in self.triangles],
            "areas": [float(a) for a in self.areas],
            "relative_areas": [float(r) for r in self.relative_areas],
            "average_relative_area": float(self.average_relative_area),
        }


def _orient_det(ax, ay, bx, by, cx, cy):
    """Orientation determinant of (a, b, c), positive when counterclockwise.
    Runs unchanged on floats, numpy arrays and Python integers."""
    return (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)


def _incircle_det(ax, ay, bx, by, cx, cy, px, py):
    """Lifted 3x3 determinant for p against circle(a, b, c), positive when
    p is inside for counterclockwise (a, b, c).  Runs unchanged on floats,
    numpy arrays and Python integers."""
    adx = ax - px
    ady = ay - py
    bdx = bx - px
    bdy = by - py
    cdx = cx - px
    cdy = cy - py
    return (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


def _as_integers(coords) -> tuple[list[int], int]:
    """Float coordinates times their largest denominator den, as Python
    integers, and den.  Every float is n / 2**e, so this is exact and keeps
    the sign of both determinants (scaled by den**2 and den**4)."""
    ratios = [v.as_integer_ratio() for v in coords]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _sign(det, *coords) -> int:
    """Exact sign of `det`, _orient_det or _incircle_det, at float
    coordinates."""
    value = det(*_as_integers(coords)[0])
    return (value > 0) - (value < 0)


def _static_bounds(xs, ys) -> tuple[float, float]:
    """Orientation and in-circle error bounds for any points of xs, ys
    (Devillers and Pion, "Efficient exact geometric predicates for Delaunay
    triangulations", 2003).  Rounding is monotone, so every computed
    coordinate difference is at most span, and a permanent at most 2 span**2
    (orientation) or 12 span**4 (in-circle), give or take a few roundings
    that the 1 + 2**-40 factor covers.  A determinant errs by at most its
    coefficient times its permanent, which is at most the bound, so beyond
    the bound its sign is exact.  An overflow makes a bound inf; float `**`
    would raise OverflowError instead."""
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    sq = span * span
    return (
        ORIENT_BOUND * (2 * sq) * (1 + 2**-40) + TINY,
        INCIRCLE_BOUND * (12 * (sq * sq)) * (1 + 2**-40) + TINY,
    )


def _halfedge_steps(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The halfedge after and before each of the first m: within a
    triangle, e + 1 if e % 3 < 2 else e - 2, and e - 1 if e % 3 else e + 2."""
    return (
        tuple(e + 1 if e % 3 < 2 else e - 2 for e in range(m)),
        tuple(e - 1 if e % 3 else e + 2 for e in range(m)),
    )


# The (next, prev) pair for the largest mesh so far, grown by the first
# larger one.  It is one immutable object, rebound whole, so a delaunay on
# another thread reads either the old pair or the new one.
_STEPS = _halfedge_steps(0)


def delaunay(points) -> Triangulation:
    """Delaunay-triangulate landmark points and compute their area descriptors.

    Accepts any (n, 2) coordinate array.  The output is deterministic:
    triangles are index triples in ascending order, listed in sorted
    order.  Raises ValueError on duplicate points, when all points are
    collinear, or when the areas overflow or all vanish.
    """
    global _STEPS
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) coordinate array")
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 points to triangulate")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite coordinate")

    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist()

    # Halfedge mesh: triangle t is tri[3t:3t+3], counterclockwise, and
    # halfedge e runs from tri[e] to the next corner of its triangle,
    # NEXT[e]; PREV[e] is the one before it.  twin[e] is the opposite
    # halfedge, or -1 on the hull.  Both lists are sized once for the
    # 2n - 5 triangles n points can have at most (lists grown per triangle
    # leave the heap fragmented for the caller's large arrays); size counts
    # the halfedges in use.
    tri = [0] * (6 * n)
    twin = [-1] * (6 * n)
    size = 0
    steps = _STEPS
    if len(steps[0]) < 6 * n:
        steps = _STEPS = _halfedge_steps(6 * n)
    NEXT, PREV = steps
    # Counterclockwise hull ring; hull_he[v] is the halfedge v -> hull_next[v].
    hull_next = [0] * n
    hull_prev = [0] * n
    hull_he = [0] * n

    orient_bound, incircle_bound = _static_bounds(xs, ys)

    def incircle_sign(a, b, c, d):
        # 1 when d is inside the circumcircle of the counterclockwise
        # triangle (a, b, c), -1 outside.  When d is exactly on it, the quad
        # (a, d, b, c) is convex and either diagonal is Delaunay; the sign is
        # then the one after each point's lifted height drops by
        # eps**(index + 1), which favours the diagonal through the quad's
        # lowest index: 1 (flip to c-d) when c or d holds it.  That
        # perturbation changes no orientation and breaks every tie, so the
        # sweep builds its unique Delaunay mesh: the fan from each cocircular
        # polygon's lowest index, whatever the insertion order.
        coords = (xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[d], ys[d])
        sign = _sign(_incircle_det, *coords)
        return sign or (1 if min(c, d) < min(a, b) else -1)

    # Points go in lexicographic order, so a duplicate comes right after
    # its twin, which is the point named.
    chain: list[int] = []  # leading collinear run, in sorted order
    last = -1  # the point inserted last, once the mesh is 2D
    for i in np.lexsort((pts[:, 1], pts[:, 0])).tolist():
        xi, yi = xs[i], ys[i]
        if last < 0:
            side = 0
            if chain and xi == xs[chain[-1]] and yi == ys[chain[-1]]:
                raise ValueError(f"duplicate point ({pts[chain[-1], 0]}, {pts[chain[-1], 1]})")
            if len(chain) >= 2:  # beyond the bound the sign is det's; within it, or nan, exact
                c = (xs[chain[0]], ys[chain[0]], xs[chain[-1]], ys[chain[-1]], xi, yi)
                det = _orient_det(*c)
                side = (det > 0) - (det < 0) if abs(det) > orient_bound else _sign(_orient_det, *c)
            if side == 0:
                chain.append(i)
                continue
            # First off-line point: fan it onto the chain, closing the first
            # counterclockwise hull ring.
            ring = chain if side > 0 else chain[::-1]
            for a, b in zip(ring, ring[1:]):
                tri[size], tri[size + 1], tri[size + 2] = a, b, i
                if size:
                    twin[size + 2], twin[size - 2] = size - 2, size + 2
                hull_next[a], hull_prev[b], hull_he[a] = b, a, size
                size += 3
            hull_next[b], hull_prev[i], hull_he[b] = i, b, size - 2  # b is ring[-1]
            hull_next[i], hull_prev[ring[0]], hull_he[i] = ring[0], i, 2
            last = i
            continue

        # i is lexicographically last, so strictly outside the hull, and it
        # sees a contiguous run of hull edges.  The run touches the previous
        # point, the hull's lexicographic maximum, since every direction into
        # the hull from there points away from i.  Walk both ways from it
        # while i is strictly right of the hull edge: beyond the bound the
        # sign is det's, and within it, or nan, exact.  Each orientation is
        # _orient_det's expression, so it rounds the same, with each point's
        # differences from i carried from one hull edge to the next.
        lx, ly = xs[last] - xi, ys[last] - yi
        if lx == ly == 0:
            raise ValueError(f"duplicate point ({pts[last, 0]}, {pts[last, 1]})")
        first, fx, fy = last, lx, ly
        while True:
            q = hull_prev[first]
            qx, qy = xs[q] - xi, ys[q] - yi
            det = qx * fy - qy * fx
            if det > orient_bound or (not det < -orient_bound and _sign(
                _orient_det, xs[q], ys[q], xs[first], ys[first], xi, yi
            ) >= 0):
                break
            first, fx, fy = q, qx, qy
        while True:
            q = hull_next[last]
            qx, qy = xs[q] - xi, ys[q] - yi
            det = lx * qy - ly * qx
            if det > orient_bound or (not det < -orient_bound and _sign(
                _orient_det, xs[last], ys[last], xs[q], ys[q], xi, yi
            ) >= 0):
                break
            last, lx, ly = q, qx, qy
        t0 = size
        v = first
        while v != last:
            w = hull_next[v]
            tri[size], tri[size + 1], tri[size + 2] = w, v, i
            h = hull_he[v]
            twin[size], twin[h] = h, size
            if size > t0:
                twin[size + 1], twin[size - 1] = size - 1, size + 1
            size += 3
            v = w
        hull_next[first], hull_prev[i], hull_he[first] = i, first, t0 + 1
        hull_next[i], hull_prev[last], hull_he[i] = last, i, size - 1
        last = i

        # Lawson flips (Guibas and Stolfi 1985).  Only edges opposite i can be
        # illegal, and a flip leaves two new ones to check, again opposite i.
        # Halfedge a, in (pr, pl, i), is legal when i is outside the circle
        # through its twin's triangle: _incircle_det(pr, pl, p1, i), in its
        # operand order, is then positive, since (pr, pl, p1) is clockwise.
        # Beyond the bound the sign is det's; within it, or nan, exact.  The
        # differences from i and the lifts of pr and pl are carried along
        # each flip chain.
        stack = list(range(t0, size, 3))
        while stack:
            a = stack.pop()
            b = twin[a]
            if b < 0:
                continue
            pr, pl = tri[a], tri[b]
            adx, ady = xs[pr] - xi, ys[pr] - yi
            bdx, bdy = xs[pl] - xi, ys[pl] - yi
            alift = adx * adx + ady * ady
            blift = bdx * bdx + bdy * bdy
            while True:
                bl = PREV[b]
                p1 = tri[bl]
                cdx, cdy = xs[p1] - xi, ys[p1] - yi
                clift = cdx * cdx + cdy * cdy
                det = (
                    alift * (bdx * cdy - cdx * bdy)
                    + blift * (cdx * ady - adx * cdy)
                    + clift * (adx * bdy - bdx * ady)
                )
                if det > incircle_bound or (
                    not det < -incircle_bound and incircle_sign(pr, pl, i, p1) < 0
                ):
                    break
                # Flip: halfedge a in (pr, pl, i) and its twin b in
                # (pl, pr, p1) become (p1, pl, i) and (i, pr, p1).  Of the
                # halfedges now opposite i, pr -> p1 waits on the stack,
                # and a, now p1 -> pl with twin hbl, is checked next.
                ar = PREV[a]
                tri[a] = p1
                tri[b] = i
                hbl, har = twin[bl], twin[ar]
                twin[a], twin[b] = hbl, har
                twin[ar], twin[bl] = bl, ar
                if har < 0:  # hull edge i -> pr moved from slot ar to slot b
                    hull_he[i] = b
                else:
                    twin[har] = b
                stack.append(NEXT[b])
                if hbl < 0:  # hull edge p1 -> pl moved from slot bl to slot a
                    hull_he[p1] = a
                    break
                twin[hbl] = a
                b, pr, adx, ady, alift = hbl, p1, cdx, cdy, clift

    if not size:
        raise ValueError("all points are collinear")

    # Canonical order: each triangle's indices ascending, then the rows.
    corners = np.sort(np.fromiter(tri, np.intp, size).reshape(-1, 3), axis=1)
    corners = corners[np.lexsort(corners.T[::-1])]
    triangles = list(zip(*corners.T.tolist()))

    # Heron's formula from edge lengths, in math.hypot's rounding (np.hypot
    # differs from it in the last bit on about 0.1 % of pairs); a radicand
    # that rounding takes below 0 counts as 0.  Where Heron rounds a sliver
    # to 0, take half the exact orientation determinant, which is non-zero
    # on every mesh triangle, rounded once (int / int rounds correctly);
    # only an area below the smallest double stays 0.
    x, y = pts[:, 0][corners.T], pts[:, 1][corners.T]  # row k: corner k of each triangle
    dx, dy = (x - x[[1, 2, 0]]).ravel().tolist(), (y - y[[1, 2, 0]]).ravel().tolist()
    l1, l2, l3 = np.fromiter(map(math.hypot, dx, dy), float, len(dx)).reshape(3, -1)
    s = (l1 + l2 + l3) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        radicand = s * (s - l1) * (s - l2) * (s - l3)
    areas = np.sqrt(np.where(radicand < 0, 0.0, radicand))
    for t in np.flatnonzero(areas == 0).tolist():
        a, b, c = triangles[t]
        ints, den = _as_integers((xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]))
        areas[t] = abs(_orient_det(*ints)) / (2 * den * den)
    # Heron overflows to inf or nan on coordinates near 1e150, and then the
    # largest area, as max propagates nan, is not finite.  Then each area
    # over the largest, which maps to exactly 1, and their mean, RA_avg.
    amax = areas.max()
    if not math.isfinite(amax):
        raise ValueError("non-finite triangle area")
    if amax <= 0:
        raise ValueError("all areas are zero")
    ras = areas / amax
    return Triangulation(
        points=pts,
        triangles=triangles,
        areas=areas,
        relative_areas=ras,
        average_relative_area=float(ras.mean()),
    )

