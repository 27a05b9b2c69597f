"""2D Delaunay triangulation and the triangle-area mesh descriptor.

A landmark set is triangulated so that no input point lies strictly inside
any triangle's circumcircle.  The mesh is then reduced to a scalar shape
descriptor: per-triangle areas from edge lengths (Heron), areas normalized
by the largest triangle, and the arithmetic mean of those ratios.

The triangulation is built by inserting points in lexicographic order
(each new point is outside the hull of its predecessors, so no point
location is needed) and restoring the empty-circumcircle property with
edge flips.  Degenerate cocircular quads are resolved deterministically:
the kept diagonal is the one whose lowest vertex index is smallest.  Every
orientation and in-circle sign is exact: a floating-point filter decides
almost all of them, and the rest are recomputed with Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Float filter for the predicate kernels (Shewchuk, "Adaptive Precision
# Floating-Point Arithmetic and Fast Robust Geometric Predicates", 1997):
# the double determinant has the exact sign when |det| exceeds the bound
# times its permanent.  The bounds assume no underflow, so TINY is added
# to them and no determinant below it is trusted.  An overflowed permanent
# (inf or nan) never passes either.  Undecided signs are recomputed exactly.
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
    areas: per-triangle area in coordinate-unit**2 (Heron, from edge lengths).
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


def edge_length(p, q) -> float:
    """Euclidean distance between two 2D points."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def triangle_area(l1: float, l2: float, l3: float) -> float:
    """Triangle area from its three edge lengths (Heron's formula).

    A slightly negative radicand from rounding is clamped to zero; a
    radicand below -1e-9 * S**4 means the lengths genuinely violate the
    triangle inequality and raises ValueError.
    """
    if l1 < 0 or l2 < 0 or l3 < 0:
        raise ValueError("edge lengths must be non-negative")
    s = (l1 + l2 + l3) / 2.0
    radicand = s * (s - l1) * (s - l2) * (s - l3)
    if radicand < 0:
        if radicand < -1e-9 * s * s * s * s:  # s**4 would raise OverflowError
            raise ValueError(
                f"edge lengths ({l1}, {l2}, {l3}) violate the triangle inequality"
            )
        radicand = 0.0
    return math.sqrt(radicand)


def relative_areas(areas) -> np.ndarray:
    """Each area divided by the largest one. The maximum maps to exactly 1.

    Raises ValueError on an empty sequence, a negative or non-finite area
    (Heron's formula overflows on coordinates near 1e150), or all zeros.
    """
    arr = np.asarray(areas, dtype=float)
    if arr.size == 0:
        raise ValueError("empty area sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite triangle area")
    if np.any(arr < 0):
        raise ValueError("areas must be non-negative")
    amax = arr.max()
    if amax <= 0:
        raise ValueError("all areas are zero")
    return arr / amax


def average_relative_area(ras) -> float:
    """Arithmetic mean of the relative areas (divisor = triangle count)."""
    arr = np.asarray(ras, dtype=float)
    if arr.size == 0:
        raise ValueError("empty relative-area sequence")
    return float(arr.mean())


def _orient(ax, ay, bx, by, cx, cy):
    """Orientation determinant of (a, b, c) and its permanent.

    Positive when (a, b, c) is counterclockwise.  Runs unchanged on floats,
    numpy arrays and Fractions.
    """
    t1 = (ax - cx) * (by - cy)
    t2 = (ay - cy) * (bx - cx)
    return t1 - t2, abs(t1) + abs(t2)


def _incircle(ax, ay, bx, by, cx, cy, px, py):
    """Lifted 3x3 determinant for p against circle(a, b, c), plus permanent.

    Positive when p is inside, for counterclockwise (a, b, c).  Runs
    unchanged on floats, numpy arrays and Fractions.
    """
    adx = ax - px
    ady = ay - py
    bdx = bx - px
    bdy = by - py
    cdx = cx - px
    cdy = cy - py
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    cdxady = cdx * ady
    adxcdy = adx * cdy
    adxbdy = adx * bdy
    bdxady = bdx * ady
    det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady)
    permanent = (
        alift * (abs(bdxcdy) + abs(cdxbdy))
        + blift * (abs(cdxady) + abs(adxcdy))
        + clift * (abs(adxbdy) + abs(bdxady))
    )
    return det, permanent


def _sign(kernel, bound, *coords) -> int:
    """Exact sign of a kernel's determinant at float coordinates: the
    double result when it passes the filter, else the kernel on Fractions."""
    det, permanent = kernel(*coords)
    if not abs(det) > bound * permanent + TINY:
        det, _ = kernel(*map(Fraction, coords))
    return (det > 0) - (det < 0)


def orientation(a, b, c) -> int:
    """Exact orientation of (a, b, c): 1 counterclockwise, -1 clockwise,
    0 collinear."""
    return _sign(
        _orient, ORIENT_BOUND,
        float(a[0]), float(a[1]), float(b[0]), float(b[1]), float(c[0]), float(c[1]),
    )


def in_circumcircle(a, b, c, p) -> str:
    """Classify p against the circumcircle of triangle (a, b, c).

    Returns "inside", "on", or "outside", decided exactly and independent
    of the orientation in which a, b, c are given.  Raises ValueError if
    a, b, c are collinear (no circumcircle exists).
    """
    coords = [float(v) for q in (a, b, c, p) for v in (q[0], q[1])]
    side = _sign(_orient, ORIENT_BOUND, *coords[:6])
    if side == 0:
        raise ValueError("collinear points have no circumcircle")
    s = _sign(_incircle, INCIRCLE_BOUND, *coords)
    if s == 0:
        return "on"
    return "inside" if s == side else "outside"


def empty_circumcircle_violations(points, triangles):
    """All (triangle_index, point_index) pairs with the point strictly
    inside that triangle's circumcircle, decided exactly; "on" never counts.

    The kernels run on broadcast arrays; only the cells the float filter
    cannot decide are recomputed with Fractions.
    """
    pts = np.asarray(points, dtype=float)
    tris = np.asarray(triangles, dtype=int)
    if tris.size == 0:
        return []
    corners = [pts[tris[:, k], axis][:, None] for k in range(3) for axis in (0, 1)]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow goes exact
        odet, operm = _orient(*corners)
        det, perm = _incircle(*corners, pts[:, 0], pts[:, 1])
        inside = np.sign(det) * np.sign(odet) > 0
        unsure = ~(np.abs(det) > INCIRCLE_BOUND * perm + TINY)
        unsure |= ~(np.abs(odet) > ORIENT_BOUND * operm + TINY)
    # A corner lies on its own circumcircle, never inside it.
    unsure[np.arange(len(tris))[:, None], tris] = False
    for t, p in np.argwhere(unsure):
        tri = [float(v[t, 0]) for v in corners]
        side = _sign(_orient, ORIENT_BOUND, *tri)
        inside[t, p] = side * _sign(_incircle, INCIRCLE_BOUND, *tri, *pts[p].tolist()) > 0
    return [(int(t), int(p)) for t, p in np.argwhere(inside)]


def delaunay(landmarks) -> Triangulation:
    """Delaunay-triangulate a landmark set and compute its area descriptors.

    Accepts a LandmarkSet or any (n, 2) coordinate array.  The output is
    deterministic: triangles are index triples in ascending order, listed
    in sorted order.  Raises ValueError on duplicate points, when all
    points are collinear, or when the areas overflow or all vanish.
    """
    pts = np.asarray(getattr(landmarks, "points", landmarks), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) coordinate array")
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 points to triangulate")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite coordinate")

    order = np.lexsort((pts[:, 1], pts[:, 0]))
    sorted_pts = pts[order]
    dup = np.all(sorted_pts[1:] == sorted_pts[:-1], axis=1)
    if np.any(dup):
        i = int(np.argmax(dup))
        raise ValueError(
            f"duplicate point ({sorted_pts[i, 0]}, {sorted_pts[i, 1]})"
        )

    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist()

    # Edge map: (u, v) with u < v  ->  list of opposite vertices (1 or 2).
    opposite: dict[tuple[int, int], list[int]] = {}

    def add_triangle(a, b, c):
        for u, v, w in ((a, b, c), (b, c, a), (a, c, b)):
            key = (u, v) if u < v else (v, u)
            opposite.setdefault(key, []).append(w)

    def incircle_sign(u, v, c, d):
        # 1 when d is strictly inside the circumcircle of triangle (u, v, c),
        # 0 on it, -1 outside.  Triangles here are never degenerate.
        ux, uy, vx, vy, cx, cy = xs[u], ys[u], xs[v], ys[v], xs[c], ys[c]
        dx, dy = xs[d], ys[d]
        odet, operm = _orient(ux, uy, vx, vy, cx, cy)
        det, perm = _incircle(ux, uy, vx, vy, cx, cy, dx, dy)
        if abs(odet) > ORIENT_BOUND * operm + TINY and abs(det) > INCIRCLE_BOUND * perm + TINY:
            return 1 if (det > 0) == (odet > 0) else -1
        return _sign(_orient, ORIENT_BOUND, ux, uy, vx, vy, cx, cy) * _sign(
            _incircle, INCIRCLE_BOUND, ux, uy, vx, vy, cx, cy, dx, dy
        )

    def flip(key, c, d):
        # Swap the diagonal (u, v) of the quad u-c-v-d for (c, d).
        u, v = key
        del opposite[key]
        for a, b, old, new in ((u, c, v, d), (v, c, u, d), (u, d, v, c), (v, d, u, c)):
            lst = opposite[(a, b) if a < b else (b, a)]
            lst[lst.index(old)] = new
        opposite[(c, d) if c < d else (d, c)] = [u, v]

    def legalize(stack):
        # Lawson flips: while an edge's opposite vertex lies strictly inside
        # the circumcircle across it, swap the quad's diagonal.
        while stack:
            u, v = stack.pop()
            key = (u, v) if u < v else (v, u)
            opp = opposite.get(key)
            if opp is None or len(opp) != 2:
                continue
            c, d = opp
            if incircle_sign(u, v, c, d) <= 0:
                continue
            flip(key, c, d)
            stack.append((u, c))
            stack.append((v, c))
            stack.append((u, d))
            stack.append((v, d))

    hull: list[int] = []  # counterclockwise vertex ring once 2D
    chain: list[int] = []  # leading collinear run, in sorted order

    for idx in order:
        i = int(idx)
        if not hull:
            if len(chain) < 2:
                chain.append(i)
                continue
            c0, cl = chain[0], chain[-1]
            side = _sign(_orient, ORIENT_BOUND, xs[c0], ys[c0], xs[cl], ys[cl], xs[i], ys[i])
            if side == 0:
                chain.append(i)
                continue
            # First off-line point: fan it against the whole chain.
            for a, b in zip(chain, chain[1:]):
                add_triangle(a, b, i)
            hull = chain + [i] if side > 0 else chain[::-1] + [i]
            chain = []
            continue

        # Point i is lexicographically last, so strictly outside the hull:
        # it sees a contiguous run of edges, neither empty nor the whole ring.
        h = len(hull)
        vis = []
        px, py = xs[i], ys[i]
        for j in range(h):
            a = hull[j]
            b = hull[(j + 1) % h]
            # _orient(b, i, a), inlined with its float filter.
            t1 = (xs[b] - xs[a]) * (py - ys[a])
            t2 = (ys[b] - ys[a]) * (px - xs[a])
            if abs(t1 - t2) > ORIENT_BOUND * (abs(t1) + abs(t2)) + TINY:
                vis.append(t1 < t2)
            else:
                vis.append(_sign(_orient, ORIENT_BOUND, xs[b], ys[b], px, py, xs[a], ys[a]) < 0)
        nvis = sum(vis)
        # Rotate so the visible run starts at index 0.
        start = next(j for j in range(h) if vis[j] and not vis[j - 1])
        hull = hull[start:] + hull[:start]
        stack = []
        for j in range(nvis):
            a, b = hull[j], hull[j + 1]
            add_triangle(a, b, i)
            stack.append((a, b))
        hull = [hull[0], i] + hull[nvis:]
        legalize(stack)

    if not opposite:
        raise ValueError("all points are collinear")

    # A cocircular quad has two Delaunay diagonals; keep the one whose lowest
    # vertex index is smallest.  Each flip lowers the sum over edges of their
    # lowest index, so the pass terminates.
    flipped = True
    while flipped:
        flipped = False
        for key in sorted(opposite):
            opp = opposite.get(key)
            if opp is None or len(opp) != 2 or min(opp) >= key[0]:
                continue
            c, d = opp
            if incircle_sign(key[0], key[1], c, d) == 0:
                flip(key, c, d)
                flipped = True

    tri_set = set()
    for (u, v), opps in opposite.items():
        for w in opps:
            tri_set.add(tuple(sorted((u, v, w))))
    triangles = sorted(tri_set)

    areas = np.empty(len(triangles))
    for t, (a, b, c) in enumerate(triangles):
        pa, pb, pc = pts[a], pts[b], pts[c]
        areas[t] = triangle_area(
            edge_length(pa, pb), edge_length(pb, pc), edge_length(pc, pa)
        )
    ras = relative_areas(areas)
    return Triangulation(
        points=pts,
        triangles=triangles,
        areas=areas,
        relative_areas=ras,
        average_relative_area=average_relative_area(ras),
    )

